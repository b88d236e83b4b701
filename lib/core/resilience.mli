(** Resilient campaign supervision for fault-prone platforms.

    On a radiation-exposed target a measurement run can do worse than return
    a number: it can exceed its watchdog budget (a register upset sent it
    into a loop), trap (an upset produced a wild address), or complete with
    a corrupted result.  This supervisor makes the measurement protocol
    survive all of that: every run's outcome is {e classified}, transient
    failures are retried under a bounded deterministic reseed policy, runs
    that keep failing are quarantined, and the campaign proceeds — with an
    exact account of what was dropped and why — as long as a configurable
    fraction of runs survives.

    The module is workload-agnostic, like {!Protocol}: the harness supplies
    [measure ~run_index ~attempt], owning seeding and fault injection; the
    [attempt] number lets it derive a fresh (but deterministic) platform and
    fault seed for each retry while keeping the run's input scenario
    fixed. *)

(** Classified result of one measurement attempt: the store's own type, so
    the attempt trail a run is measured to is the trail the store persists
    and the report lists. *)
type outcome = Store.outcome =
  | Completed of float  (** execution time, cycles *)
  | Timeout of string
      (** watchdog budget exceeded or executor runaway — the run diverged *)
  | Crashed of string  (** the run trapped (e.g. wild access) *)
  | Corrupted of string  (** the run completed but its output failed validation *)

type policy = {
  max_retries : int;  (** extra attempts allowed per run after the first *)
  min_survival : float;
      (** fraction of runs (in [[0, 1]]) that must yield a measurement for
          the campaign to proceed *)
}

(** [{ max_retries = 2; min_survival = 0.9 }] *)
val default_policy : policy

(** Per-run audit trail, attempt [i] at position [i]; only runs with at
    least one failed attempt are retained (clean runs would make the log
    3,000 entries of noise). *)
type record = { run_index : int; attempts : Store.trail; survived : bool }

type report = {
  sample : float array;  (** surviving measurements, in run order *)
  records : record list;  (** faulted runs, by run index *)
  total_runs : int;
  survivors : int;
  retried_runs : int;  (** runs that needed at least one retry *)
  dropped_runs : int;  (** runs quarantined after exhausting retries *)
  total_retries : int;
}

type error =
  | Too_few_survivors of { survivors : int; required : int; total : int }
  | Invalid_policy of string

(** [supervise ?jobs ?trace ~policy ~runs ~measure] drives the whole
    campaign.  Rejects [runs < 1], [max_retries < 0] and [min_survival]
    outside [[0, 1]] with [Invalid_policy] (a real guard, not an [assert]).

    With [trace] attached, every run is recorded as a {!Trace.Run} event
    and every failed attempt as a {!Trace.Fault} event, emitted from the
    sequential accounting phase so the trace is in canonical run order
    (and therefore bit-identical) at any job count.

    Runs execute on a chunked domain pool ({!Parallel}; [jobs] defaults to
    [Domain.recommended_domain_count ()]).  Provided [measure] obeys the
    determinism contract — its outcome is a pure function of
    [(run_index, attempt)], which {!Repro_tvca.Experiment}'s seed derivation
    guarantees — the report is {e bit-identical} for every [jobs] value;
    [jobs:1] spawns no domains and is the sequential reference.

    With [store] attached — an open {!Store.session} (opened with
    [resilient:true] and the same run count) plus the phase name to file
    chunks under — whole attempt trails are checkpointed at every chunk
    barrier and previously recorded trails are replayed instead of
    re-measured.  Because the accounting phase runs over the trails either
    way, a resumed or fully cached campaign reproduces the report (sample,
    records, retry counts) bit-identically. *)
val supervise :
  ?jobs:int ->
  ?trace:Trace.t ->
  ?store:Store.session * string ->
  policy:policy ->
  runs:int ->
  measure:(run_index:int -> attempt:int -> outcome) ->
  unit ->
  (report, error) Stdlib.result

(** [trail ~policy ~measure run_index] — one run measured to completion or
    quarantine (local retries up to [policy.max_retries]), attempt 0
    first.  This is exactly what {!supervise}'s measurement phase measures
    and checkpoints; shard workers use it to collect trails without the
    accounting phase, which the coordinator's final campaign replays over
    the merged record. *)
val trail :
  policy:policy ->
  measure:(run_index:int -> attempt:int -> outcome) ->
  int ->
  Store.trail

val pp_outcome : Format.formatter -> outcome -> unit
val pp_error : Format.formatter -> error -> unit

(** Fault/retry summary: headline counters plus a per-run table of every
    faulted run (attempt-by-attempt outcomes and final status). *)
val pp_report : Format.formatter -> report -> unit
