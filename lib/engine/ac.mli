(** Small-signal AC analysis: the frequency response of the circuit
    linearized at a given operating point.

    [H(s) = Dᵀ (G + s·C)⁻¹ B] — the same pencil solve used per-snapshot
    by the TFT transform, exposed here for validation against the
    extracted models.

    The sweep entry points share a {!ws} workspace holding the pencil
    buffer, the LU workspace and the solve scratch, so evaluating a
    whole trajectory (K snapshots × L frequencies) allocates nothing
    beyond the small per-point transfer matrices. One workspace must
    only be used by one domain at a time. *)

type ws
(** Preallocated solve buffers bound to one (B, D) input/output pair. *)

val make_ws : b:Linalg.Mat.t -> d:Linalg.Mat.t -> ws
(** Allocate a workspace for systems of [B]'s row dimension. [b] and
    [d] are captured by reference and must not be mutated while the
    workspace is in use. *)

val ws_matches : ws -> b:Linalg.Mat.t -> d:Linalg.Mat.t -> bool
(** Whether the workspace was built for an equal [(B, D)] pair (same
    shape and contents) — the validity predicate for reusing pool-cached
    workspaces across pipeline stages and circuits. *)

val transfer_ws :
  ?guard:Guard.t ->
  ?obs:Obs.t ->
  ws ->
  g:Linalg.Mat.t ->
  c:Linalg.Mat.t ->
  s:Complex.t ->
  Linalg.Cmat.t
(** Pencil solve at one complex frequency, reusing the workspace.
    Returns the freshly allocated [n_outputs × n_inputs] transfer
    matrix. Without a [guard], bit-identical to {!transfer_at} on the
    same operands; with one, the factorization gets a
    reciprocal-condition floor and every solution column a NaN/Inf
    sentinel ([Guard.Violation] at site ["ac.transfer"]). With [obs],
    each factorization emits an ["ac.pencil"] rcond event (thread-safe,
    so pool workers may share one hub). Hosts the ["ac.pencil_nan"]
    fault probe. *)

val transfer_sweep :
  ?guard:Guard.t ->
  ?cancel:Cancel.t ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  ws ->
  g:Linalg.Mat.t ->
  c:Linalg.Mat.t ->
  ss:Complex.t array ->
  Linalg.Cmat.t array
(** [transfer_ws] over a grid of complex frequencies: one in-place
    pencil build + factorization per grid point. With [obs], each
    point's solve time lands in the [ac.pencil_solve_ns] histogram and
    each factorization emits an ["ac.pencil"] rcond event, both
    worker-safe; without, the sweep is the plain map, no clock reads.

    With [pool], the frequency grid is fanned out across domains using
    pool-cached workspace clones (chunk 0 reuses [ws]); results are
    bit-identical to the sequential sweep. An armed fault probe forces
    the sequential path so injections stay deterministic. Do not pass a
    pool from inside a worker of that same pool — it would just run
    sequentially anyway. With [cancel], every pencil solve probes the
    token (site ["ac.sweep"]), on the sequential and pooled paths
    alike. *)

val transfer_at :
  g:Linalg.Mat.t ->
  c:Linalg.Mat.t ->
  b:Linalg.Mat.t ->
  d:Linalg.Mat.t ->
  s:Complex.t ->
  Linalg.Cmat.t
(** One-shot convenience: {!make_ws} + {!transfer_ws} at a single
    frequency. *)

val sweep :
  ?pool:Exec.t ->
  Mna.t ->
  at:Linalg.Vec.t ->
  freqs_hz:float array ->
  Linalg.Cmat.t array
(** Linearize at [at] and sweep the given frequencies (Hz), optionally
    fanned across a warm pool. *)

val sweep_siso :
  ?pool:Exec.t ->
  Mna.t ->
  at:Linalg.Vec.t ->
  freqs_hz:float array ->
  Complex.t array
(** Convenience for single-input single-output setups: element (0,0). *)
