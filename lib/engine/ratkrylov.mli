(** Rational-Krylov frequency sweeps over a sparse MNA pencil.

    Computes the transfer trajectory [H(s) = Dᵀ(G + s·C)⁻¹B] over a
    frequency grid by factoring the sparse pencil at a few greedily
    chosen *shifts*, orthonormalizing the shift solutions into a real
    subspace basis (each complex solve at [σ = jω] contributes its real
    and imaginary parts, spanning the conjugate pair [±jω]), and
    answering the remaining grid points from the Galerkin-projected
    dense pencil of subspace dimension [k ≪ n]. That small pencil is
    answered by {!Ac.transfer_sweep} (one Hessenberg reduction per
    round, an O(k²) solve per point, its complex-LU fallback).

    Every projected answer is certified: the reduced solution is
    expanded back to full space and its true relative residual measured
    with sparse matvecs. A point within [tol] keeps that answer for
    good, and later rounds evaluate only the points still open. The
    greedy places each further shift at the worst open point, and a
    shift point is answered by the shift's own solve. It stops when a
    shift adds no direction (every candidate is dropped by [drop_tol],
    so the projection cannot change), at [max_shifts] or at full
    dimension. Points still open are then solved exactly per point, so
    the sweep never trades accuracy for speed — at worst it degrades to
    the plain per-point sparse sweep.

    A TFT transform sweeps many snapshots of one circuit, and their
    pencils share most of their subspace. {!pilot} runs the greedy once
    on one snapshot and returns its basis; {!sweep} with [~basis] first
    evaluates every point on it (round 0) and keeps the certified
    answers. Only when points stay open does it start a private basis,
    at the first and last open points, and run the greedy over the open
    points alone. A neighbour's basis that fails the certificate is
    restarted from, never extended, so the cost of a poor pilot is one
    round of reduced solves. *)

type opts = {
  max_shifts : int;
      (** shift budget of one greedy, ≥ 2 used (default 12); a sweep's
          private shifts only, the pilot's are not counted *)
  tol : float;  (** relative-residual acceptance threshold (default 1e-12) *)
  drop_tol : float;
      (** basis candidates whose norm drops below [drop_tol × original]
          under orthogonalization are discarded (default 1e-10) *)
}

type stats = {
  shifts_used : int;  (** private shifts of this sweep *)
  subspace_dim : int;
      (** dimension of the private basis; 0 when round 0 on the pilot
          basis certified every point *)
  fallback_points : int;
      (** grid points that needed an exact solve of their own (a shift
          point's answer is its shift's solve and is not counted) *)
  worst_residual : float;
      (** largest certified residual among projected answers; 0 when
          no point was answered by projection *)
}

type ws
(** Preallocated sweep state bound to one compiled sparsity pattern and
    one (B, D) pair: the complex pencil fill buffer, the sparse-LU
    workspace (with its cached ordering) and solve and residual
    scratch. One workspace must only be used by one domain at a time. *)

val make_ws : pat:Linalg.Sp.pattern -> b:Linalg.Mat.t -> d:Linalg.Mat.t -> ws

val ws_matches :
  ws -> pat:Linalg.Sp.pattern -> b:Linalg.Mat.t -> d:Linalg.Mat.t -> bool
(** Validity predicate for pool-cached workspaces: the pattern must be
    physically equal and (B, D) contents equal. *)

type basis
(** A real orthonormal basis (orthonormal by construction) of one
    pattern's state space. Immutable: one basis may be read by any
    number of domains at once. *)

val pilot :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ws ->
  g:Linalg.Sp.t ->
  c:Linalg.Sp.t ->
  ss:Complex.t array ->
  basis
(** The greedy of {!sweep} on one pencil, without the exact pass, and
    its basis. Its answers are discarded. Empty for grids of ≤ 2
    points, without inputs, or when the ["krylov.stall"] probe fires
    (one invocation per pilot); a sweep given an empty basis skips
    round 0. With [obs], adds its shifts and reduced solves to
    [krylov.shifts] and [krylov.projected_points]. *)

val sweep :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ?basis:basis ->
  ws ->
  g:Linalg.Sp.t ->
  c:Linalg.Sp.t ->
  ss:Complex.t array ->
  Linalg.Cmat.t array * stats
(** Sweep the grid; [g]/[c] must carry the workspace pattern
    (physical equality — exactly what one {!Mna.sparse_ctx} produces).
    Returns the [n_outputs × n_inputs] transfer matrix per grid point,
    in grid order, plus convergence statistics.

    With [basis] (from {!pilot} on the same pattern; raises
    [Invalid_argument] on another size), round 0 evaluates every point
    on it first; without, the sweep starts its private greedy at the
    grid's end points. Each answer depends only on this pencil, the
    grid and [basis], never on the workspace's history.

    Grids of ≤ 2 points are solved exactly (a subspace cannot amortize
    there). Returned values are not NaN-checked: the TFT dataset's
    quarantine pass covers them. With [obs], each shift or exact
    factorization emits a ["krylov.pencil"] rcond event and the sweep
    adds to the counters [krylov.shifts] (private shifts),
    [krylov.fallback_points], [krylov.projected_points] (reduced
    solves, one per point per round) and [krylov.pilot_certified]
    (points final after round 0), and records the private basis size
    in the [krylov.subspace_dim] histogram, all worker-safe (Metrics
    and the event log only). With [cancel], every shift solve and grid
    point probes the token (site ["krylov.sweep"]). Hosts the
    ["krylov.stall"] fault probe (one invocation per sweep, and one
    per {!pilot}): a firing declares the subspace stalled and degrades
    the whole sweep to exact per-point solves — results stay correct,
    only the speedup is lost. *)
