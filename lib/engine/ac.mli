(** Small-signal AC analysis: the frequency response of the circuit
    linearized at a given operating point.

    [H(s) = Dᵀ (G + s·C)⁻¹ B] — the same pencil solve used per-snapshot
    by the TFT transform, exposed here for validation against the
    extracted models.

    A sweep with at least three nonzero grid points uses Laub's
    Hessenberg frequency response (IEEE TAC 1981): one real LU of [G],
    [A = G⁻¹C] and the reduction [A = Q·H·Qᵀ] (about 7n³ flops once),
    then an O(n²) shifted Hessenberg solve per grid point. Every such
    answer is certified by its true relative residual
    [‖(G + s·C)x − b‖/‖b‖ ≤ 1e-12] and then refined once against it; a
    point that fails, or a sweep whose [G] is singular or below the
    [Guard.rcond_min] floor of {!Linalg.Lu}, is answered by one complex
    LU of the pencil per point — the algorithm of shorter sweeps and of
    {!transfer_at}. The two agree to rounding, not bit for bit (7e-14
    relative per point on the buffer); a grid point [s = 0] answered
    from [G]'s LU equals the complex LU at [s = 0] exactly.

    The sweep shares a {!ws} workspace holding every buffer both
    algorithms need, so a whole K×L TFT trajectory allocates little
    beyond the small per-point transfer matrices. One workspace must
    only be used by one domain at a time. *)

type ws
(** Preallocated solve buffers bound to one (B, D) input/output pair. *)

val make_ws : b:Linalg.Mat.t -> d:Linalg.Mat.t -> ws
(** Allocate a workspace for systems of [B]'s row dimension. [b] and
    [d] are captured by reference and must not be mutated while the
    workspace is in use. The reduction's buffers are allocated by the
    first sweep that uses it. *)

val ws_matches : ws -> b:Linalg.Mat.t -> d:Linalg.Mat.t -> bool
(** Whether the workspace was built for an equal [(B, D)] pair (same
    shape and contents) — the validity predicate for reusing pool-cached
    workspaces across pipeline stages and circuits. *)

val certified : float -> bool
(** The sweep's acceptance test for a relative residual: [r <= 1e-12].
    A NaN residual fails it. *)

val transfer_sweep :
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ws ->
  g:Linalg.Mat.t ->
  c:Linalg.Mat.t ->
  ss:Complex.t array ->
  Linalg.Cmat.t array
(** The freshly allocated [n_outputs × n_inputs] transfer matrix at
    every complex frequency of [ss], which may include [s = 0] (the DC
    transfer [Dᵀ G⁻¹ B], taken from [G]'s LU when the reduction runs).
    Which algorithm answers a point depends only on [g], [c] and [ss]
    (see above). Returned values are not NaN-checked: the TFT dataset's
    quarantine pass covers them.

    With [obs], every nonzero point's solve time lands in the
    [ac.pencil_solve_ns] histogram, every point emits one ["ac.pencil"]
    rcond event (of [G]'s LU at [s = 0], else of the factorization that
    answered), and a reduced sweep adds the points the complex LU
    answered to the [ac.sweep_fallbacks] counter — all worker-safe;
    without [obs], no clock reads. With [cancel], every point probes the
    token (site ["ac.sweep"]). Hosts the ["ac.pencil_nan"] fault probe,
    which writes NaN into an answered solution after its certificate;
    the ["clu.pivot_zero"] probe of the Hessenberg elimination sends its
    point to the complex LU. *)

val transfer_at :
  g:Linalg.Mat.t ->
  c:Linalg.Mat.t ->
  b:Linalg.Mat.t ->
  d:Linalg.Mat.t ->
  s:Complex.t ->
  Linalg.Cmat.t
(** One-shot convenience at a single frequency: {!make_ws} + one
    complex LU of the pencil. *)

val sweep_siso :
  Mna.t -> at:Linalg.Vec.t -> freqs_hz:float array -> Complex.t array
(** Linearize at [at], sweep the given frequencies (Hz) with
    {!transfer_sweep} and return element (0,0): the single-input
    single-output response. *)
