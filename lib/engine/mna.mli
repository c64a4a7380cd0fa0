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

type eval = {
  i_vec : Linalg.Vec.t;  (** i(v) − s(t) *)
  q_vec : Linalg.Vec.t;  (** q(v) *)
  g_mat : Linalg.Mat.t option;  (** ∂i/∂v *)
  c_mat : Linalg.Mat.t option;  (** ∂q/∂v *)
}

val eval : t -> ?with_matrices:bool -> time:float -> Linalg.Vec.t -> eval
(** Evaluate residual pieces (and Jacobians when [with_matrices], default
    true) at the given unknown vector and time, into fresh storage: the
    wrapper for callers that evaluate once per snapshot, one {!assemble}
    into a fresh dense {!assembly}. A repeated evaluation, as in a
    Newton loop, refills an {!assembly} instead. Safe to call from
    several domains on one [t]. *)

(** {1 In-place assembly}

    {!build} compiles the netlist into a stamp program that runs in
    netlist order. The linear elements (R, C, L, V, VCCS, VCVS, CCCS)
    become data — a kind, their unknown indices and a value — and run
    as flat loops; each nonlinear device stays a stamp that evaluates it
    in place ({!Device.scratch}). Every device stamp's Jacobian entries
    form an occurrence sequence that does not depend on the
    linearization point, so {!build} records it once and an evaluation
    streams each entry into a precompiled slot of a flat value array:
    slot [r·n + c] of the row-major dense layout, or the compiled CSC
    slot of the sparse one.

    An entry of G or C that only linear elements stamp is {e constant}:
    it is summed once, in stamp order from 0.0, when its {!assembly} is
    made, and no evaluation zeroes or restamps it. Every other entry
    {e varies}: each evaluation zeroes it and adds all of its
    contributions, linear ones included, in stamp order. Both sums are
    the ones one stamp per element accumulates, so the values are bit
    for bit those of {!eval}'s matrices in either layout. *)

type assembly
(** Caller-owned storage for repeated evaluations of one system in one
    layout: the vectors i(v) − s(t) and q(v), the value arrays of G and
    C with their constant entries filled, and a device scratch. The
    arrays are allocated once and every {!assemble} overwrites their
    varying entries in place; a caller must not write the value arrays.
    The storage lives with the caller, never in [t], because several
    domains may share one [t]; an [assembly] is not safe to share across
    domains. *)

val dense_assembly : t -> assembly
(** Storage in the dense layout: G and C are [n×n] row-major value
    arrays, as {!Linalg.Mat.unsafe_data} exposes them. *)

val assemble : t -> assembly -> time:float -> Linalg.Vec.t -> unit
(** [assemble t a ~time v] evaluates i(v) − s(time), q(v), G and C into
    [a]'s storage. It allocates nothing that grows with the circuit or
    its device count: only the boxed values of the time-dependent
    sources. *)

val charge_into : t -> assembly -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [charge_into t a v q] writes q(v) into [q], bit for bit {!eval}'s
    [q_vec]; it uses [a]'s residual as scratch (overwritten) and leaves
    [a]'s other storage untouched. The linear elements contribute only
    their charges. *)

val residual : assembly -> Linalg.Vec.t
(** i(v) − s(t) of the last {!assemble}; the same array every time. *)

val charge : assembly -> Linalg.Vec.t
(** q(v) of the last {!assemble}. *)

val g_values : assembly -> float array
(** The value array of G in the assembly's layout. *)

val c_values : assembly -> float array
(** The value array of C, in the same layout as {!g_values}. *)

val varying_slots : assembly -> int array
(** The slots, ascending and distinct, that vary in G or in C. Every
    other slot of both value arrays keeps the value it had when the
    assembly was made, so a pencil [G + α·C] changes outside these
    slots only when α does. *)

(** {1 Sparse assembly}

    The sparsity pattern is compiled once per system from the recorded
    occurrence sequences; every linearization then refills the value
    arrays in place. [G] and [C] share one union pattern — including
    the full diagonal — so the AC pencil [G + s·C] and the Newton pencil
    [G + α·C] are elementwise fills, and gmin regularization always has
    its diagonal slots. *)

type sparse_ctx

val sparse_ctx : t -> sparse_ctx
(** Compile the sparsity pattern and allocate value storage. *)

val sparse_pattern : sparse_ctx -> Linalg.Sp.pattern

val sparse_assembly : sparse_ctx -> assembly
(** The context's storage as an {!assembly} in the CSC layout of
    {!sparse_pattern}; {!eval_sparse} refills the same storage. *)

type sparse_eval = {
  si_vec : Linalg.Vec.t;  (** i(v) − s(t) *)
  sq_vec : Linalg.Vec.t;  (** q(v) *)
  sg : Linalg.Sp.t;  (** ∂i/∂v — view into the context, overwritten by the next eval *)
  sc : Linalg.Sp.t;  (** ∂q/∂v — likewise *)
}

val eval_sparse : t -> sparse_ctx -> time:float -> Linalg.Vec.t -> sparse_eval
(** Like {!eval} with matrices, but filling the context's sparse value
    arrays in place; [si_vec] and [sq_vec] are fresh copies. The
    returned [sg]/[sc] alias the context; copy their value arrays
    before the next evaluation if they must survive. Entry values match
    the dense {!eval} Jacobians exactly (same accumulation order per
    entry). *)

val b_matrix : t -> Linalg.Mat.t
(** [size × n_inputs]; the incidence of the designated inputs. *)

val d_matrix : t -> Linalg.Mat.t
(** [size × n_outputs]. *)

val input_values : t -> float -> Linalg.Vec.t
(** Values of the designated input sources at a given time. *)

val output_values : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [Dᵀ v]. *)
