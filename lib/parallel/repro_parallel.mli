(** Deterministic domain-parallel execution — the dependency-free core of
    the campaign layer's domain pool.

    Built on OCaml 5 [Domain] only and deliberately work-stealing-free: the
    index range is split into [jobs] contiguous chunks {e before} any domain
    starts, each chunk is evaluated in ascending index order on its own
    domain, and results are written back at their original offsets.

    This module lives below the statistics and EVT layers so that analysis
    loops (bootstrap replicates, convergence studies) can fan out over the
    same pool the measurement campaigns use; the observability-aware wrapper
    in [lib/core] ([Repro_mbpta.Parallel]) adds trace emission on top.

    {b Determinism contract.}  If [f i] is a pure function of [i], then
    [init ~jobs n f] returns a bit-identical array for every [jobs] and
    every OS scheduling order.  [jobs = 1] is the sequential reference: it
    spawns no domains and calls [f] with strictly ascending indices, so even
    a stateful [f] behaves exactly as sequential code would. *)

(** [Domain.recommended_domain_count ()] — the default job count. *)
val default_jobs : unit -> int

(** [chunks ~jobs n] — the static sharding: at most [jobs] contiguous
    [(offset, length)] chunks covering [0 .. n-1] exactly once, all
    non-empty, lengths differing by at most one. *)
val chunks : jobs:int -> int -> (int * int) list

(** [init ?on_chunk ?jobs n f] — [Array.init n f] evaluated on a chunked
    domain pool ([jobs] defaults to {!default_jobs}).  If any [f i] raises,
    the exception of the lowest-indexed failing chunk is re-raised after all
    domains have been joined (deterministic error propagation).  Raises
    [Invalid_argument] on [n < 0] or [jobs < 1].

    [on_chunk] is called once per chunk, on the calling domain, before any
    evaluation starts — the hook the core layer uses to record the sharding
    decision as trace events. *)
val init :
  ?on_chunk:(chunk_index:int -> lo:int -> len:int -> unit) ->
  ?jobs:int ->
  int ->
  (int -> 'a) ->
  'a array

(** The pinned batch-size grid for cost-calibrated dispatch: how many
    checkpoint chunks a scheduler may hand out per fan-out.  Coarse powers
    of two so a noisy calibration measurement almost always rounds to the
    same value.  The store chunk layout itself never depends on this. *)
val dispatch_grid : int list

(** [batch_of_cost ~chunk_ns ~target_ns] — the smallest grid batch size
    whose estimated duration [batch * chunk_ns] reaches [target_ns], or
    the grid maximum if none does.  Pure (Int64 arithmetic only), so a
    given measurement always picks the same batch.  Raises
    [Invalid_argument] if [target_ns < 1]; [chunk_ns] is clamped to at
    least 1ns. *)
val batch_of_cost : chunk_ns:int64 -> target_ns:int64 -> int
