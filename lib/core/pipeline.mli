(** The end-to-end extraction pipeline of Fig. 1 / Algorithm 1:

    SPICE netlist → transient Jacobian sampling → TFT transform →
    Recursive Vector Fitting → analytical Hammerstein model.

    This is the library's front door; the individual stages live in
    [engine], [tft], [vf], [rvf] and [hammerstein]. *)

type training = {
  wave : Circuit.Netlist.wave;  (** the large-signal pump applied to the input *)
  t_stop : float;
  dt : float;
  snapshot_every : int;
}

type config = {
  training : training;
  freqs_hz : float array;  (** frequency grid for the TFT transform *)
  estimator_delays : float list;  (** extra state-estimator delays (eq. 4) *)
  rvf : Rvf.config;
  domains : int;
      (** parallelism of the TFT transform and the fitting stages: [1]
          (the default) stays sequential, [n > 1] fans out across an
          [Exec] pool of [n] domains with bit-identical results. *)
  backend : Engine.Mna.backend;
      (** linear-algebra backbone for the training transient and the
          TFT transform. [Dense] (the default) is bit-identical to
          before the knob existed. [Sparse] assembles into compiled CSC
          patterns, factors with {!Linalg.Splu}/{!Linalg.Spclu} and
          sweeps the frequency grid through {!Engine.Ratkrylov} — the
          large-circuit path. A singular sparse factorization or a
          guard breach on the sparse path falls back to the dense
          stage transparently (counter [pipeline.sparse_fallbacks],
          [Warning] event); the fit stages are backend-independent. *)
}

val default_config_for :
  ?points:int ->
  ?domains:int ->
  ?backend:Engine.Mna.backend ->
  f_min:float ->
  f_max:float ->
  training:training ->
  unit ->
  config
(** Log frequency grid with [points] samples (default 40) and the
    default RVF settings; sequential unless [domains > 1]; dense unless
    [backend] says otherwise. *)

type timing = {
  train_seconds : float;  (** transient + snapshot capture *)
  tft_seconds : float;  (** frequency-domain transform of the snapshots *)
  fit_seconds : float;  (** RVF (both stages) + integration + assembly *)
}
(** Stage durations in wall-clock seconds ({!Clock}), so parallel runs
    report real elapsed time rather than summed per-domain CPU time. *)

(** {2 Deadline supervision}

    Every entry point takes an optional {!Cancel.t} token, threaded down
    to the innermost loops (Newton iterations, transient steps, pencil
    solves, VF relocation sweeps, pool chunk boundaries). Requesting
    cancellation makes the run raise [Cancel.Cancelled] at the next
    probe; the [try_]* variants catch it and return [None] with an
    [Error] event (stage [pipeline.cancelled]) in the report.

    Per-stage wall-clock budgets turn a hung stage into a typed
    [Cancel.Deadline_exceeded {site; stage; budget_seconds; elapsed_seconds}]
    instead of an indefinite stall. Budgets are only live against a
    token; passing [?budgets] without [?cancel] arms a private token
    automatically. *)

type budgets = {
  train : float option;  (** seconds for the training transient *)
  tft : float option;  (** seconds for the TFT transform *)
  fit : float option;  (** seconds for the whole fitting stage (all rungs) *)
  rung : float option;  (** seconds for each individual ladder rung *)
}
(** Per-stage wall-clock budgets in seconds; [None] leaves a stage
    unbounded. A rung budget trips with stage ["pipeline.fit:<rung>"],
    so the report's [Error] event names the rung that overran. *)

val no_budgets : budgets
(** All stages unbounded. *)

type retry = {
  attempts : int;  (** total attempts per ladder rung (1 = no retry) *)
  backoff_seconds : float;  (** wait before the first retry *)
  backoff_multiplier : float;  (** growth factor per further retry *)
}
(** Bounded retry-with-backoff for the escalation ladder: a transient
    recoverable failure retries the {e failing rung} from the already
    materialized train/TFT stages (and, with a checkpoint store armed,
    from the on-disk artifacts) rather than restarting the run from
    zero. Counter [pipeline.rung_retries] counts within-rung retries;
    [pipeline.fit_retries] keeps its historical meaning of exhausted
    rungs. The backoff wait is cooperative: an armed deadline or a
    cancellation request reaps a run sleeping between attempts. *)

val no_retry : retry
(** One attempt per rung — exactly the historical ladder behaviour. *)

type outcome = {
  model : Hammerstein.Hmodel.t;
  rvf : Rvf.result;
  dataset : Tft.Dataset.t;
  mna : Engine.Mna.t;
  training_run : Engine.Tran.result;
  timing : timing;
}

val extract_simo :
  ?guard:Guard.t ->
  ?cancel:Cancel.t ->
  ?budgets:budgets ->
  ?checkpoint_dir:string ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  config:config ->
  netlist:Circuit.Netlist.t ->
  input:string ->
  outputs:Engine.Mna.output list ->
  unit ->
  outcome list
(** Runs the whole flow for a single-input multi-output channel set and
    returns one outcome per requested output. The [input] source's wave
    is replaced by [config.training.wave] during training. "The
    extension towards MIMO systems is very straightforward": the
    training transient, snapshot capture and TFT transform are shared
    across outputs (every outcome carries the same dataset and training
    run); only the fitting stages run per output, in order.

    With [checkpoint_dir], each completed stage is persisted as a
    schema-versioned, fingerprint-addressed {!Checkpoint} artifact
    (stages ["train"], ["tft"] and one ["fit-o<j>"] per output j):
    re-running the same extraction resumes from the last settled
    artifact and produces a bit-identical model (floats round-trip via
    [%.17g]). The fingerprint hashes the netlist, training
    wave/schedule, frequency grid, estimator delays, RVF config and
    channel selection — but not [domains], so a run checkpointed at one
    parallelism resumes at any other. Stale artifacts (fingerprint or
    schema mismatch) are silently recomputed; torn/malformed ones are
    rejected with a [Warning] and recomputed. Checkpoint interactions
    emit [checkpoint] {!Obs} events (actions
    ["store"]/["load"]/["stale"]/["invalid"]). A checkpoint-disabled
    run and a clean checkpointed run are bit-identical.

    When [config.domains > 1] a single warm {!Exec} pool is created for
    the whole run and reused by every fan-out stage (TFT pencil solves,
    VF relocation blocks, residue fits) — workers are spawned once, not
    per stage. Passing [?pool] instead lends a caller-owned pool (e.g.
    across repeated extractions); it overrides [config.domains] for
    pool selection and is never shut down here.

    [obs] is the only telemetry argument: the hub's {!Diag} collector
    records spans for the three pipeline stages ([pipeline.train],
    [pipeline.tft], [pipeline.fit]) and the counters of the transient
    engine and the RVF stages; its {!Trace} collector records the same
    stages as hierarchical spans — down to per-transient-step,
    per-chunk and per-VF-iteration spans, across every pool domain;
    its {!Metrics} registry accumulates the quantitative counters and
    timing histograms of every layer; and its event stream collects
    the algorithmic convergence record: [stage] boundary events,
    per-VF-iteration pole positions and sigma residuals, rcond samples
    from every LU/complex-LU/QR factorization, and quarantine events.
    Telemetry never changes the numerics: the extracted model is
    bit-for-bit the same with or without a hub.

    With [guard], the {!Guard} layer threads through every stage:
    reciprocal-condition floors on LU factorizations, NaN/Inf sentinels
    on solver outputs and fitted models, transient step-halving
    recovery, snapshot quarantine in the TFT transform and VF
    pole-runaway checks. A clean guarded run returns a bit-identical
    model; a detected-but-unrepairable condition raises
    [Guard.Violation] (or a typed [Singular]) that {!try_extract_simo}
    treats as recoverable.

    Raises [Invalid_argument] when [outputs] is empty. *)

val extract :
  ?guard:Guard.t ->
  ?cancel:Cancel.t ->
  ?budgets:budgets ->
  ?checkpoint_dir:string ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  config:config ->
  netlist:Circuit.Netlist.t ->
  input:string ->
  output:Engine.Mna.output ->
  unit ->
  outcome
(** The one-output case of {!extract_simo}: a SISO channel, whose fit
    checkpoint is stage ["fit-o0"]. *)

val buffer_config : ?snapshots:int -> ?domains:int -> unit -> config
(** The Section-IV experiment configuration for {!Circuits.Buffer}:
    one period of the low-frequency high-amplitude training sine,
    ~[snapshots] (default 100) TFT samples, 1 Hz – 10 GHz grid. *)

val extract_buffer : ?obs:Obs.t -> ?config:config -> unit -> outcome
(** The paper's example end-to-end: {!extract} on {!Circuits.Buffer}
    with its input source and output node, under [config] (default
    {!buffer_config}). *)

(** {2 Graceful degradation}

    The raising entry points above propagate the first numerical failure
    ([Invalid_argument], [Failure], {!Engine.Dc.No_convergence},
    {!Linalg.Lu.Singular}, {!Linalg.Clu.Singular},
    {!Linalg.Splu.Singular}, {!Linalg.Spclu.Singular},
    {!Guard.Violation}).
    The [try_]* variants below never raise on those: they climb an
    escalation ladder of progressively more permissive RVF
    configurations and, when every rung fails, return [None] together
    with a {!Diag.report} whose events name the failing stage and every
    retried rung. *)

val escalation_ladder : Rvf.config -> (string * Rvf.config) list
(** The retry ladder used by {!try_extract}, most-preferred first:
    ["base"] (the untouched config — when it succeeds the result is
    bit-for-bit the raising path's), ["more-start-poles"] (start the
    pole escalation higher), ["switched-weighting"] (flip the
    frequency-stage weighting between uniform and inverse-square-root),
    ["relaxed-min-imag"] (divide [min_imag_fraction] by 4) and
    ["combined"] (all of the above). *)

val recoverable : exn -> bool
(** Whether an exception belongs to the recoverable failure set above.
    Cancellation, deadlines and [Checkpoint.Killed] do not. *)

val describe_exn : exn -> string
(** Human-readable rendering of the recoverable failure set above (typed
    payloads included); falls back to [Printexc.to_string]. Used for the
    [Error] events of the [try_]* variants and the CLI's structured
    error object. *)

val try_extract_simo :
  ?guard:Guard.t ->
  ?cancel:Cancel.t ->
  ?budgets:budgets ->
  ?checkpoint_dir:string ->
  ?retry:retry ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  config:config ->
  netlist:Circuit.Netlist.t ->
  input:string ->
  outputs:Engine.Mna.output list ->
  unit ->
  outcome option list * Diag.report
(** Non-raising {!extract_simo}: the same stage sequence, one
    [outcome option] per requested output (the ladder runs
    independently per output) and a single shared report. A training or
    TFT failure yields all-[None]; an empty [outputs] yields [[]] and
    an [Error] event.

    The report is always populated: spans and counters for the stages
    that ran, a [Warning] event per failed ladder rung (counter
    [pipeline.fit_retries]), a note [pipeline.ladder_rung] naming the
    rung that produced the (last) model, and an [Error] event naming
    the failing stage when an outcome is [None]. A model produced by
    any rung above ["base"] carries a degraded-extraction [Warning].
    With [obs], the report is drawn from the hub's own diag collector
    (so the bundled [diag.json] and the report coincide), every ladder
    rung emits an [escalation] event (outcome
    ["ok"]/["failed"]/["retry"]/["deadline"] with the failure detail)
    and recoverable stage failures emit [violation] events; the trace
    and metrics of the stages that ran before a failure are kept, so a
    failed extraction still shows where the time went.

    Cancellation and deadlines are {e not} recoverable: a tripped
    budget aborts the ladder (no retry, no further rungs), records an
    [Error] event whose stage carries the rung label
    (["pipeline.fit:<rung>"]) plus an [obs] [deadline] event, and
    yields all-[None]. [Checkpoint.Killed] (the chaos harness's
    simulated crash) propagates to the caller. With [checkpoint_dir]
    armed, a rung retry resumes from the on-disk train/TFT artifacts,
    and a settled fit artifact short-circuits the ladder entirely on
    resume. *)

val try_extract :
  ?guard:Guard.t ->
  ?cancel:Cancel.t ->
  ?budgets:budgets ->
  ?checkpoint_dir:string ->
  ?retry:retry ->
  ?obs:Obs.t ->
  ?pool:Exec.t ->
  config:config ->
  netlist:Circuit.Netlist.t ->
  input:string ->
  output:Engine.Mna.output ->
  unit ->
  outcome option * Diag.report
(** The one-output case of {!try_extract_simo}: non-raising {!extract}. *)
