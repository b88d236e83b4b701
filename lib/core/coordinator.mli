(** Fault-tolerant coordination of sharded campaign workers.

    At 10^6-run scale a campaign must be cut across processes (and
    eventually hosts), and the campaign infrastructure itself has to
    tolerate worker failure: crashes, stalls, torn shard stores and
    corrupt records are the steady state, not edge cases.  This module
    supplies the structural half of that layer:

    - {!shard_spans} — the pure shard layout: the run space cut into
      contiguous, checkpoint-chunk-aligned spans, one per shard, using the
      same {!Repro_parallel.chunks} split the domain pool uses.  Because
      spans land on global chunk boundaries, every chunk a shard worker
      writes is byte-identical to the chunk a single-process campaign
      writes at the same offset — {!Store.merge} is pure concatenation and
      the merged record is bit-identical at any shard count;
    - {!supervise} — one supervision loop per shard under a {!policy}:
      deadline timeout, capped deterministic exponential backoff between
      attempts, graceful degradation (an unrecoverable shard is reported,
      not fatal — its span becomes a coverage gap that the final campaign
      recomputes in-process);
    - {!run_worker} — the process runner: spawn, poll, SIGKILL past the
      deadline.

    Determinism: retry accounting is counter-based (attempt indices), the
    backoff delay is a pure function of the attempt index, and shard
    reports are assembled in shard order after all loops join — so a given
    failure pattern yields the same transcript, and {e no} failure pattern
    can change a merged measurement byte (only coverage and wall-clock). *)

type policy = {
  shards : int;  (** worker count N of [--shard k/N] *)
  deadline : float option;  (** per-attempt elapsed-time limit, seconds (monotonic) *)
  max_retries : int;  (** extra attempts per shard after the first *)
  backoff : float;  (** base delay before retry k is [backoff * 2^k] s *)
  backoff_cap : float;  (** ceiling on the delay *)
  poll_interval : float;  (** worker poll period, seconds *)
}

val default_policy : shards:int -> policy
(** [{ deadline = None; max_retries = 2; backoff = 0.5; backoff_cap = 8.;
      poll_interval = 0.05 }] *)

val shard_spans : shards:int -> chunk_size:int -> runs:int -> (int * int) list
(** The pure shard layout: at most [shards] contiguous [(lo, hi)] spans
    covering [0, runs) exactly once, each starting on a multiple of
    [chunk_size] and ending on one (or at [runs]).  Fewer than [shards]
    spans when the campaign has fewer checkpoint chunks than shards.
    A pure function of its arguments — workers and coordinator compute it
    independently and agree.  Raises [Invalid_argument] on a negative run
    count, [shards < 1] or [chunk_size < 1]. *)

type worker_failure =
  | Crashed of string  (** nonzero exit, signal, or spawn failure *)
  | Stalled of float  (** deadline (seconds) exceeded; worker was killed *)

type failed_attempt = { attempt : int; failure : worker_failure }

type shard_report = {
  shard : int;  (** 1-based, as in [--shard k/N] *)
  span : int * int;
  attempts : int;
  failures : failed_attempt list;
  completed : bool;
}

type report = {
  total_runs : int;
  shard_reports : shard_report list;  (** in shard order *)
  retries : int;
  unrecoverable : int;  (** shards that exhausted their attempts *)
}

val backoff_delay : policy:policy -> attempt:int -> float
(** [min backoff_cap (backoff * 2^attempt)] — exposed for tests. *)

val supervise :
  ?trace:Trace.t ->
  policy:policy ->
  chunk_size:int ->
  runs:int ->
  run_shard:
    (shard:int -> span:int * int -> attempt:int -> (unit, worker_failure) result) ->
  unit ->
  report
(** Drive every shard of [shard_spans ~shards:policy.shards] to completion
    or exhaustion.  [run_shard] performs one attempt — typically
    {!run_worker} over a rebuilt [mbpta_cli analyze --shard k/N] command
    line, but tests drive it in-process.  A failed attempt sleeps
    [backoff_delay] and retries, up to [policy.max_retries] extra attempts;
    a shard that exhausts them is reported unrecoverable, never raised.
    Supervision loops run concurrently (one domain per shard — they block
    in process polls, not compute).

    With [trace] attached, bumps [campaign.worker_retries] /
    [campaign.shards_failed] and emits one {!Trace.Note} per failed
    attempt, in shard order. *)

val run_worker :
  ?log:string ->
  ?now:(unit -> float) ->
  deadline:float option ->
  poll_interval:float ->
  argv:string array ->
  unit ->
  (unit, worker_failure) result
(** Spawn [argv] (stdout/stderr appended to [log], or discarded), poll
    every [poll_interval] seconds, and SIGKILL it past [deadline].  The
    kill needs no grace period: workers flush a valid record prefix at
    every chunk barrier, so a kill costs at most the in-flight chunk and
    the retry resumes from the shard record.

    Deadlines are measured on the monotonic clock, so wall-clock steps
    (NTP) can neither spare a stalled worker nor kill a healthy one.
    [now] substitutes the clock (seconds; test hook for simulating
    steps). *)

val pp_failure : Format.formatter -> worker_failure -> unit
val pp_report : Format.formatter -> report -> unit
