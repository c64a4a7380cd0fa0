(** Transfer Function Trajectory datasets.

    Each sample is one state-space location [k] (one accepted transient
    time point) carrying the state-estimator coordinates [x(k)] and the
    transfer matrix [H^(k)(s_l)] evaluated on the shared frequency grid —
    eq. (3) of the paper. *)

type sample = {
  time : float;
  x : float array;  (** state-estimator coordinates *)
  u : float array;  (** raw input values *)
  y : float array;  (** circuit outputs at the sample *)
  h : Linalg.Cmat.t array;  (** per frequency: n_outputs × n_inputs *)
  h0 : Linalg.Cmat.t;  (** DC transfer H^(k)(0) (instantaneous conductance) *)
}

type t = {
  freqs_hz : float array;
  samples : sample array;
  n_inputs : int;
  n_outputs : int;
}

val of_snapshots :
  ?pool:Exec.t ->
  ?cancel:Cancel.t ->
  ?metrics:Metrics.t ->
  ?obs:Obs.t ->
  ?backend:Engine.Mna.backend ->
  ?sparse_ctx:Engine.Mna.sparse_ctx ->
  mna:Engine.Mna.t ->
  estimator:Estimator.t ->
  freqs_hz:float array ->
  Engine.Tran.snapshot array ->
  t
(** Evaluate [H^(k)(s) = Dᵀ(G_k + s·C_k)⁻¹B] on the frequency grid for
    every snapshot. Snapshots hold the state only: both backends stamp
    [G_k] and [C_k] from it, which reproduces the Jacobians of the
    transient step that produced it bit for bit. The estimator is
    evaluated from the designated input sources of the MNA system. On
    the dense backend each snapshot is one {!Engine.Mna.eval} and one
    {!Engine.Ac.transfer_sweep} over the grid extended by [s = 0]: one
    Hessenberg reduction, certified O(n²) grid points, and [H(0)] from
    the same factorization of [G_k].

    With [?pool], snapshots are partitioned across the pool's domains
    with one preallocated solve workspace per domain; the result is
    bit-identical to the sequential path for any domain count (fixed
    chunk boundaries, per-sample independence, no reductions). With
    [cancel], the token is probed at every chunk boundary (site
    [tft.chunk]) and every pencil solve (site [ac.sweep]).

    With [obs]: a [tft.dataset] span over one [tft.chunk] span per
    chunk, each on the track of the domain that ran it; the records of
    the per-snapshot sweeps ({!Engine.Ac.transfer_sweep},
    {!Engine.Ratkrylov.sweep}); chunk wait/run times in
    [tft.chunk_wait_ns]/[tft.chunk_run_ns]. [metrics] without [obs]
    records into that registry through a fresh hub.

    A quarantine pass runs after the sweep: samples with non-finite
    transfer data are counted ([dataset.quarantined]) and rebuilt by
    time-weighted interpolation between the nearest healthy neighbors
    ([dataset.repaired]); a sample whose own coordinates are non-finite
    is removed ([dataset.dropped]). Either comes with a warning and a
    [quarantine] event. Raises [Guard.Violation] when every sample is
    corrupt. Hosts the
    ["dataset.snapshot_burst"] fault probe; firing is decided per
    snapshot index in a sequential pre-pass, so injected bursts are
    deterministic for any domain count.

    With [backend:Sparse], G/C are stamped from each snapshot's
    converged state through the compiled pattern of [sparse_ctx]
    (compiled on the fly when omitted) in a sequential pre-pass, and
    each snapshot's grid sweep runs through {!Engine.Ratkrylov} — a few
    sparse shift factorizations plus certified projected solves instead
    of one dense factorization per grid point. The pre-pass also builds
    one pilot basis ({!Engine.Ratkrylov.pilot}) from snapshot 0; every
    snapshot's sweep first projects all its points on it, keeps the
    answers its own true residual certifies, and restarts a private
    basis only for the rest. Workers only read the pilot basis, so each
    sample depends on its own snapshot and that basis alone. [H(0)]
    comes from an exact sparse solve. An armed fault site forces the
    sequential path so injections ([sp.singular], [krylov.stall]) land
    deterministically; the pilot is the first [krylov.stall]
    invocation. A sparse singularity escapes as
    {!Linalg.Spclu.Singular} for the pipeline's escalation ladder to
    catch. *)

val dynamic_part : t -> t
(** Subtract [H^(k)(0)] from every frequency sample: the remaining purely
    dynamical part [H̄^(k)(s)], which vanishes at DC. *)

val siso : t -> input:int -> output:int -> (float array array * Complex.t array array)
(** Slice one (input, output) channel: [(xs, data)] with [xs.(k)] the
    estimator coordinates and [data.(k).(l)] = [H^(k)_{lm}(s_l)]. *)

val dc_trace : t -> input:int -> output:int -> float array
(** [H^(k)(0)] for one channel, per sample (real part). *)

val thin : t -> min_dx:float -> t
(** Drop samples whose estimator coordinates are within [min_dx]
    (infinity-norm) of an already kept sample; keeps endpoints of the
    trajectory. Controls training-set redundancy. *)

val sort_by_x0 : t -> t
(** Order samples by the first estimator coordinate (for printing the
    hyperplane figures). *)
