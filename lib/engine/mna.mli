(** Modified Nodal Analysis: compile a netlist into an evaluable system

    {[ d/dt q(v) + i(v) = s(t) = B·u(t) + (other sources) ]}

    Unknowns are the non-ground node voltages followed by one branch
    current per voltage source and per inductor. *)

type output = Node of string | Diff of string * string

type backend = Dense | Sparse
(** Which linear-algebra backbone the engine stages run on. [Dense] is
    the original path, bit-identical to before the sparse backbone
    existed; [Sparse] assembles G/C into compiled CSC patterns and
    factors them with {!Linalg.Splu}/{!Linalg.Spclu}. *)

type t

val build : ?inputs:string list -> ?outputs:output list -> Circuit.Netlist.t -> t
(** [inputs] names voltage/current sources whose values form the input
    vector [u] (they keep their waves for simulation; the [B] matrix maps
    [u] into the residual). [outputs] picks the observed voltages for the
    [D] matrix. Defaults: no inputs, no outputs. Raises
    [Invalid_argument] on unknown names or nodes. *)

val size : t -> int
val n_nodes : t -> int
val n_inputs : t -> int
val n_outputs : t -> int
val node_index : t -> string -> int
(** Index of a non-ground node in the unknown vector. Raises [Not_found]. *)

val netlist : t -> Circuit.Netlist.t

type eval = {
  i_vec : Linalg.Vec.t;  (** i(v) − s(t) *)
  q_vec : Linalg.Vec.t;  (** q(v) *)
  g_mat : Linalg.Mat.t option;  (** ∂i/∂v *)
  c_mat : Linalg.Mat.t option;  (** ∂q/∂v *)
}

val eval : t -> ?with_matrices:bool -> time:float -> Linalg.Vec.t -> eval
(** Evaluate residual pieces (and Jacobians when [with_matrices], default
    true) at the given unknown vector and time. *)

(** {1 Sparse assembly}

    The sparsity pattern is compiled once per system by a probe
    evaluation (stamp occurrence sequences are state-independent);
    every linearization then refills the value arrays in place. [G] and
    [C] share one union pattern — including the full diagonal — so the
    AC pencil [G + s·C] and the Newton pencil [G + α·C] are elementwise
    fills, and gmin regularization always has its diagonal slots. *)

type sparse_ctx

val sparse_ctx : t -> sparse_ctx
(** Compile the sparsity pattern and allocate value storage. *)

val sparse_pattern : sparse_ctx -> Linalg.Sp.pattern

type sparse_eval = {
  si_vec : Linalg.Vec.t;  (** i(v) − s(t) *)
  sq_vec : Linalg.Vec.t;  (** q(v) *)
  sg : Linalg.Sp.t;  (** ∂i/∂v — view into the context, overwritten by the next eval *)
  sc : Linalg.Sp.t;  (** ∂q/∂v — likewise *)
}

val eval_sparse : t -> sparse_ctx -> time:float -> Linalg.Vec.t -> sparse_eval
(** Like {!eval} with matrices, but filling the context's sparse value
    arrays in place. The returned [sg]/[sc] alias the context; copy
    their value arrays before the next evaluation if they must
    survive. Entry values match the dense {!eval} Jacobians exactly
    (same accumulation order per entry). *)

val b_matrix : t -> Linalg.Mat.t
(** [size × n_inputs]; the incidence of the designated inputs. *)

val d_matrix : t -> Linalg.Mat.t
(** [size × n_outputs]. *)

val input_values : t -> float -> Linalg.Vec.t
(** Values of the designated input sources at a given time. *)

val output_values : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [Dᵀ v]. *)
