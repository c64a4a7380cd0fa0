(** A reusable pool of OCaml 5 domains for data-parallel sweeps.

    The pool fans independent index ranges out across domains with
    {e fixed, deterministic chunk boundaries}: element [i] of the result
    is always produced by evaluating [f] on input [i] alone, workers
    write disjoint slots of a shared result array, and no reduction or
    reordering happens — so for a pure [f] the output is bit-identical
    to the sequential path regardless of the domain count.

    Pools are designed to be {e warm and persistent}: create one per
    pipeline run (or per process), reuse it across stages, and shut it
    down once at the end — never spawn per call. Per-chunk scratch
    buffers can be parked in the pool between calls via {!slot} so hot
    kernels stay allocation-free across stages.

    Workspace variants ([parallel_init_ws]/[parallel_map_ws]) evaluate
    the workspace maker once per chunk (one chunk per domain) so hot
    kernels can run allocation-free; a workspace must only carry
    buffers that each call fully overwrites, never state that affects
    results across elements. *)

type t
(** A pool of worker domains. A [parallel_*] call issued while another
    is in flight on the same pool (including nested calls made from
    inside a worker) runs sequentially in its caller instead of
    deadlocking, so libraries can accept a shared pool without
    coordinating ownership. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] makes a pool with a total parallelism of
    [domains] (the calling domain participates, so [domains - 1] worker
    domains are spawned). Defaults to
    [Domain.recommended_domain_count ()]; values [<= 1] spawn nothing
    and make every [parallel_*] call run sequentially in the caller. *)

val domains : t -> int
(** Total parallelism of the pool (workers + the calling domain). *)

val shutdown : t -> unit
(** Join all worker domains and drop all pool-owned workspace slots.
    The pool must not be used afterwards. Idempotent. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exceptions. *)

(** {2 Pool-owned workspace slots}

    A warm pool outlives individual stages, so per-chunk scratch
    buffers (LU/QR workspaces, AC sweep pencils) can be parked in the
    pool and picked up again by the next call with the same shape. *)

type 'a key
(** Identifies one family of workspaces (typically one per call site). *)

val new_key : unit -> 'a key
(** A fresh slot key. Create once at module level, not per call. *)

val slot : t -> 'a key -> chunk:int -> valid:('a -> bool) -> make:(unit -> 'a) -> 'a
(** [slot pool key ~chunk ~valid ~make] returns the workspace cached
    under [(key, chunk)] when present and [valid] accepts it, otherwise
    stores and returns [make ()]. [valid] guards shape changes (e.g. a
    pool reused for a different circuit). Safe to call concurrently from
    worker domains as long as each uses its own [chunk] index. *)

val parallel_init :
  ?pool:t ->
  ?cancel:Cancel.t ->
  ?trace:Trace.buf ->
  ?metrics:Metrics.t ->
  ?label:string ->
  int ->
  (int -> 'a) ->
  'a array
(** [parallel_init ?pool n f] is [Array.init n f] with the index range
    chunked across the pool. [f] must be pure (or at least safe to call
    concurrently from several domains). Without [pool], or with a
    1-domain pool, it runs sequentially in the caller. The range is
    split into [min domains n] contiguous chunks. The first exception
    raised by any chunk is re-raised in the caller after all chunks
    finish.

    With [?trace], each chunk records a [<label>.chunk] span (default
    label ["exec"]) on the track of the domain that ran it, parented
    under the caller's innermost open span; with [?metrics], per-chunk
    wait and run times land in the [<label>.chunk_wait_ns] /
    [<label>.chunk_run_ns] histograms. Load balance is judged per
    executing {e domain}: busy time summed per domain feeds
    [<label>.domain_run_ns] / [<label>.domain_wait_ns] and the max/mean
    ratio in [<label>.imbalance], mirrored into the merged
    [exec.pool.imbalance] gauge. Instrumentation never changes chunk
    boundaries or results, and the plain path performs no clock
    reads.

    With [?cancel], every chunk checks the token at its start (probe
    site [<label>.chunk]) so a cancelled or deadline-expired run stops
    at the next chunk boundary; the check follows the token's own
    cost discipline (absent token: free; no armed deadline: one atomic
    load; armed: one clock read). Chunks also host the
    ["exec.chunk_hang"] fault site. *)

val parallel_map :
  ?pool:t ->
  ?cancel:Cancel.t ->
  ?trace:Trace.buf ->
  ?metrics:Metrics.t ->
  ?label:string ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [parallel_map ?pool f arr] is [Array.map f arr], chunked likewise. *)

val parallel_init_ws :
  ?pool:t ->
  ?cancel:Cancel.t ->
  ?trace:Trace.buf ->
  ?metrics:Metrics.t ->
  ?label:string ->
  ws:(int -> 'w) ->
  int ->
  ('w -> int -> 'a) ->
  'a array
(** Like {!parallel_init} but [ws chunk] is evaluated once per chunk and
    passed to every [f] call of that chunk, so scratch buffers are
    reused across the chunk instead of reallocated per element. The
    chunk index is stable for fixed [(n, domains)] and can be used with
    {!slot} to reuse buffers across calls. *)

val parallel_map_ws :
  ?pool:t ->
  ?cancel:Cancel.t ->
  ?trace:Trace.buf ->
  ?metrics:Metrics.t ->
  ?label:string ->
  ws:(int -> 'w) ->
  ('w -> 'a -> 'b) ->
  'a array ->
  'b array
(** Workspace variant of {!parallel_map}. *)
