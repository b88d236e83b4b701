(** Deterministic domain-parallel execution layer for measurement campaigns.

    Built on OCaml 5 [Domain] only (no external dependencies) and
    deliberately work-stealing-free: the index range is split into [jobs]
    contiguous chunks {e before} any domain starts, each chunk is evaluated
    in ascending index order by one worker, and results are written back
    at their original offsets.  At most [Domain.recommended_domain_count ()]
    workers run at once (the calling domain is one of them); they pull
    chunk indices from a shared counter, so which worker takes which chunk
    is operational only.

    {b Determinism contract.}  If [f i] is a pure function of [i] — which
    the campaign layer guarantees by deriving every run's PRNG seed and
    platform instance from [(campaign_seed, run_index, attempt)] — then
    [init ~jobs n f] returns a bit-identical array for every [jobs] and
    every OS scheduling order.  [jobs = 1] is the sequential reference: it
    spawns no domains and calls [f] with strictly ascending indices, so even
    a stateful [f] behaves exactly as the pre-parallel code did. *)

(** [Domain.recommended_domain_count ()] — the default job count used
    throughout the campaign layer. *)
val default_jobs : unit -> int

(** [init ?trace ?jobs n f] — [Array.init n f] evaluated on a chunked domain
    pool ([jobs] defaults to {!default_jobs}).  If any [f i] raises, the
    exception of the lowest-indexed failing chunk is re-raised after all
    domains have been joined (deterministic error propagation).  Raises
    [Invalid_argument] on [n < 0] or [jobs < 1].

    With [trace] attached, the static sharding decision is recorded as
    {!Trace.Chunk} events (Debug level only — the layout is a pure function
    of [(jobs, n)], so it varies with the job count by construction). *)
val init : ?trace:Trace.t -> ?jobs:int -> int -> (int -> 'a) -> 'a array

(** [init_checkpointed ?trace ?jobs ?lo ~chunk_size ~lookup ~persist n f] —
    {!init} with chunk-granular checkpoint barriers for the measurement
    store ({!Store}).

    The index space is cut into fixed [chunk_size] checkpoint chunks —
    independent of [jobs], so the chunk sequence is a pure function of [n].
    For each chunk in ascending order: [lookup ~lo ~len] may serve it from
    a cache (its [f] calls are skipped entirely); otherwise the chunk is
    computed on the domain pool and handed to [persist ~lo] at the chunk
    barrier, on the calling domain.  Under the purity contract of {!init}
    the result is bit-identical to [init n f] at every [jobs] count and for
    every cached/computed split.  If [f] raises inside a chunk, every
    earlier chunk has already been persisted and the exception escapes as
    {!init} raises it, so the store holds a clean prefix.

    [lo] (default [0]) starts the walk at that index instead of 0, walking
    only the span [lo, n) — the shard-worker mode of the distributed
    campaign layer.  Chunk boundaries remain the global multiples of
    [chunk_size] regardless of [lo], so a shard aligned on a chunk boundary
    produces exactly the chunks of the corresponding full-walk positions,
    and the returned array holds just the [n - lo] span values.

    Raises [Invalid_argument] on [n < 0], [chunk_size < 1], [lo] outside
    [[0, n]], or a cached chunk whose length does not match the layout. *)
val init_checkpointed :
  ?trace:Trace.t ->
  ?jobs:int ->
  ?lo:int ->
  chunk_size:int ->
  lookup:(lo:int -> len:int -> 'a array option) ->
  persist:(lo:int -> 'a array -> unit) ->
  int ->
  (int -> 'a) ->
  'a array
