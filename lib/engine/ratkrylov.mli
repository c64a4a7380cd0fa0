(** Rational-Krylov frequency sweeps over a sparse MNA pencil.

    Computes the transfer trajectory [H(s) = Dᵀ(G + s·C)⁻¹B] over a
    frequency grid by factoring the sparse pencil at a few greedily
    chosen *shifts*, orthonormalizing the shift solutions into a real
    subspace basis (each complex solve at [σ = jω] contributes its real
    and imaginary parts, spanning the conjugate pair [±jω]), and
    answering the remaining grid points from the Galerkin-projected
    dense pencil of subspace dimension [k ≪ n].

    Every projected answer is certified: the reduced solution is
    expanded back to full space and its true relative residual measured
    with sparse matvecs. Points above [tol] attract further shifts; any
    still failing after [max_shifts] are solved exactly per point, so
    the sweep never trades accuracy for speed — at worst it degrades to
    the plain per-point sparse sweep. *)

type opts = {
  max_shifts : int;  (** shift budget, ≥ 2 used (default 12) *)
  tol : float;  (** relative-residual acceptance threshold (default 1e-12) *)
  drop_tol : float;
      (** basis candidates whose norm drops below [drop_tol × original]
          under orthogonalization are discarded (default 1e-10) *)
}

val default_opts : opts

type stats = {
  shifts_used : int;
  subspace_dim : int;
  fallback_points : int;  (** grid points that needed an exact solve *)
  worst_residual : float;
      (** largest certified residual among projected (non-fallback)
          points; 0 when every point fell back *)
}

type ws
(** Preallocated sweep state bound to one compiled sparsity pattern and
    one (B, D) pair: the complex pencil fill buffer, the sparse-LU
    workspace (with its cached ordering) and solve scratch. One
    workspace must only be used by one domain at a time. *)

val make_ws : pat:Linalg.Sp.pattern -> b:Linalg.Mat.t -> d:Linalg.Mat.t -> ws

val ws_matches :
  ws -> pat:Linalg.Sp.pattern -> b:Linalg.Mat.t -> d:Linalg.Mat.t -> bool
(** Validity predicate for pool-cached workspaces: the pattern must be
    physically equal and (B, D) contents equal. *)

val sweep :
  ?opts:opts ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ws ->
  g:Linalg.Sp.t ->
  c:Linalg.Sp.t ->
  ss:Complex.t array ->
  Linalg.Cmat.t array * stats
(** Sweep the grid; [g]/[c] must carry the workspace pattern
    (physical equality — exactly what one {!Mna.sparse_ctx} produces).
    Returns the [n_outputs × n_inputs] transfer matrix per grid point,
    in grid order, plus convergence statistics.

    Grids of ≤ 2 points are solved exactly (a subspace cannot amortize
    there). Returned values are not NaN-checked: the TFT dataset's
    quarantine pass covers them. With [obs], each shift or fallback
    factorization emits a ["krylov.pencil"] rcond event and the sweep
    records the [krylov.shifts] / [krylov.fallback_points] counters and
    the [krylov.subspace_dim] histogram, all worker-safe (Metrics and
    the event log only). With [cancel], every shift solve and grid
    point probes the token (site ["krylov.sweep"]). Hosts the
    ["krylov.stall"] fault probe (one invocation per sweep): a firing
    declares the subspace stalled and degrades the whole sweep to exact
    per-point solves — results stay correct, only the speedup is lost. *)
