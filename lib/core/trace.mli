(** Structured observability for measurement campaigns.

    The evidential chain of the paper — 3,000-run campaign, i.i.d. checks,
    EVT pWCET fit — runs end-to-end; this module makes it inspectable
    without changing a bit of it.  A trace is an append-only JSONL file of
    typed events (campaign lifecycle, per-run samples, retry/fault
    activity, domain-pool chunk scheduling, i.i.d. verdicts, EVT fit
    diagnostics) plus a registry of monotonic counters rolled up across
    runs (cache/TLB/bus/DRAM activity from {!Repro_platform.Metrics},
    aggregated by the harness).

    {b Determinism contract.}  Tracing is observational only: with a trace
    attached, campaign results are bit-identical to an untraced campaign,
    and — at the default {!Runs} level — the trace {e file} itself is
    bit-identical at every [--jobs] count.  That holds because every event
    is emitted from the coordinating domain {e after} the parallel phase
    completed, in canonical (run-index) order over PR 2's deterministic
    static sharding; the buffered events are additionally sorted on flush
    as a safety net.  The {!Debug} level adds events that legitimately
    depend on the execution configuration (chunk scheduling, elapsed
    phase durations) and therefore varies across job counts — by design.

    When no trace is attached ([?trace] left out), every hook is a single
    [match] on [None]: zero allocation, zero I/O, bit-identical results. *)

(** Verbosity levels, ordered.  {!Summary}: campaign/phase lifecycle,
    i.i.d. and fit diagnostics, counters.  {!Runs} (default): adds one
    event per run plus retry/fault events.  {!Debug}: adds domain-pool
    chunk scheduling and monotonic phase durations — the only events
    whose content is {e not} invariant across [--jobs]. *)
type level = Summary | Runs | Debug


(** Minimal JSON used by the trace schema and the measurement store
    ({!Store}): exactly the value subset the writers emit.  Floats are
    printed with [%.17g] (plus a forced decimal point), so a written float
    parses back to the same bits — the property the store's bit-identical
    resume contract rests on. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  (** The deepest nesting {!of_string} accepts: [max_depth] arrays or
      objects, one inside the other. *)
  val max_depth : int

  (** Parse one JSON document; [Error] carries the offset of the defect.
      A document nested deeper than {!max_depth} fails with
      ["nesting deeper than 64 at offset K"] as soon as the parser meets
      the container that is one level too deep. *)
  val of_string : string -> (t, string) result

  val member : string -> t -> t option
  val to_int : t -> int option
  val to_float : t -> float option
  val to_str : t -> string option
  val to_bool : t -> bool option
end

(** Trace event schema, version [trace/v1] (see DESIGN.md section 9).
    Every event serializes to one JSON object per line; [of_line] inverts
    [to_line] (numeric fields round-trip exactly). *)
type event =
  | Meta of { schema : string; level : string }
      (** first line of every trace file *)
  | Config of (string * string) list
      (** harness-provided key/value context: seed, tail model, ... *)
  | Campaign_start of { runs : int; resilient : bool }
  | Campaign_end of { ok : bool; failure : string option }
  | Phase_start of { phase : string }
  | Phase_end of { phase : string; wall_ns : int option }
      (** elapsed monotonic ns, never negative; only at {!Debug}
          (elapsed time is not deterministic) *)
  | Run of {
      phase : string;
      run_index : int;
      attempts : int;  (** 1 on the fault-free path *)
      outcome : string;  (** final outcome: completed/timeout/crashed/corrupted *)
      latency : float option;  (** measured cycles; [None] when quarantined *)
    }
  | Fault of { phase : string; run_index : int; attempt : int; kind : string; detail : string }
      (** one per non-completed attempt (SEU-induced timeout/crash/corruption) *)
  | Chunk of { phase : string; chunk_index : int; lo : int; len : int }
      (** static sharding decision of the domain pool ({!Debug} only) *)
  | Iid_result of {
      lb_stat : float;
      lb_p : float;
      ks_stat : float;
      ks_p : float;
      accepted : bool;
    }
  | Convergence of { converged : bool; runs_used : int }
  | Evt_fit of {
      tail : string;
      block_size : int;
      params : (string * float) list;
      gof_ks_p : float;
      gof_ad_stat : float;
    }
  | Cache_hit of { phase : string; key : string; runs : int }
      (** a phase's whole sample was served from the measurement store *)
  | Cache_miss of { phase : string; key : string }
      (** no cached chunks for this phase; a full measurement pass runs *)
  | Resume of { phase : string; key : string; cached_runs : int; total_runs : int }
      (** an interrupted campaign continues from its last complete chunk *)
  | Counter of { name : string; value : int }
      (** rolled-up counter totals, one per registered name, appended on
          flush in name order *)
  | Note of string

(** Aggregated counters registry: named monotonic totals, safe to bump
    from any domain (additions commute, so totals are deterministic at any
    job count). *)
module Counters : sig
  type t

  (** [create ?parent ()] — a fresh registry.  With [?parent], every
      addition also propagates up the (acyclic, fixed-at-creation) parent
      chain: a long-lived process scopes one registry per request for
      isolated totals while the parent keeps the process-total view. *)
  val create : ?parent:t -> unit -> t

  val add : t -> string -> int -> unit
  val incr : t -> string -> unit

  (** Totals sorted by name. *)
  val snapshot : t -> (string * int) list
end

type t

(** [ensure_dir dir] — create [dir] and any missing parents ([mkdir -p]).
    Raises [Sys_error] naming the component that could not be created. *)
val ensure_dir : string -> unit

(** [create ?level ~path ()] opens a trace that will be written to [path]
    (appending if the file exists) on {!close}/{!flush}.  [level] defaults
    to {!Runs}.  The parent directory is created if missing and the file is
    touched immediately, so an unwritable destination fails fast (with
    [Sys_error]) instead of after the campaign ran. *)
val create : ?level:level -> path:string -> unit -> t

(** [create_mem ?level ?counters ?on_event ()] opens an in-memory trace:
    no file is touched, {!flush}/{!close} are no-ops, and the buffered
    events are retrieved with {!drain}.  [level] defaults to {!Summary}.
    [counters] substitutes an external registry (typically one created
    with [Counters.create ~parent] to roll per-request totals into a
    process-wide view); [on_event] is invoked synchronously for every
    admitted event — the daemon uses it to stream phase events to
    subscribed clients while the campaign runs.  [clock] substitutes the
    monotonic nanosecond source used for phase durations (test hook for
    simulating clock steps; defaults to the process monotonic clock). *)
val create_mem :
  ?level:level ->
  ?counters:Counters.t ->
  ?on_event:(event -> unit) ->
  ?clock:(unit -> int64) ->
  unit ->
  t

val counters : t -> Counters.t

(** [enabled t lvl] — would an event of level [lvl] be recorded? *)
val enabled : t -> level -> bool

(** [emit t event] buffers [event] if the trace level admits it.  Callers
    on the coordinating domain only; worker domains communicate through
    {!Counters}. *)
val emit : t -> event -> unit

(** [phase_start t name] / [phase_end t name] bracket a pipeline phase;
    [phase_end] stamps the elapsed monotonic duration at {!Debug} level
    (immune to NTP steps; clamped to be non-negative). *)
val phase_start : t -> string -> unit

val phase_end : t -> string -> unit

(** Phase recorded by the innermost open {!phase_start} (["" ] outside any
    phase) — used by layers that emit events without knowing which phase
    the campaign put them in ({!Parallel}, {!Resilience}). *)
val current_phase : t -> string

(** [emit_sample t ~phase xs] — one {!Run} event per observation of a
    fault-free collected sample, in run order. *)
val emit_sample : t -> phase:string -> float array -> unit

(** Build an {!Iid_result} event from an i.i.d. battery verdict. *)
val iid_event : Iid.result -> event

(** [flush t] sorts the buffered events canonically (emission sequence —
    already canonical, see the determinism contract above), appends one
    {!Counter} event per registered counter, and writes everything to the
    file.  [close] is [flush]; traces hold no file descriptor between
    flushes. *)
val flush : t -> unit

val close : t -> unit

(** [drain t] — take the buffered events (canonically sorted) out of an
    in-memory trace, leaving the buffer empty.  Works on file-backed
    traces too, in which case the drained events will not be flushed. *)
val drain : t -> event list

(** {2 Serialization} *)

(** [to_line e] — the JSONL line for [e] (no trailing newline). *)
val to_line : event -> string

(** The JSON value behind {!to_line} — for embedding events inside a
    larger document (the serve protocol nests them in response lines). *)
val json_of_event : event -> Json.t

val event_of_json : Json.t -> (event, string) result

(** [of_line s] parses one JSONL line back into an event. *)
val of_line : string -> (event, string) result

(** [read_file path] parses a whole trace file, failing on the first
    malformed line. *)
val read_file : string -> (event list, string) result

(** {2 Digest}

    [summarize events] renders the human-readable digest behind
    [mbpta_cli trace summary]: per-phase run counts, simulated-cycle
    totals and wall time (when traced at {!Debug}), fault/retry
    histograms, i.i.d. and fit verdicts, counter totals. *)
val summarize : event list -> string
