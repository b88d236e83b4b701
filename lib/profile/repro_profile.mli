(** Stage-resolved micro-profiler for the campaign pipeline.

    Attributes wall time and minor-heap words to the stages a run passes
    through — codegen, decode, scenario, reload, reseed, flush, execute,
    trace, store, analysis — so a perf regression names the stage that
    caused it instead of hiding in a campaign-level total.

    Design constraints, in order:

    - {b near-zero cost when off}: the common path is one atomic load and a
      direct call, no clock read, no allocation;
    - {b domain-safe}: accumulators are per-stage [Atomic.t] counters, so
      worker domains race only on commutative fetch-and-add — the same
      discipline as [Trace.Counters], without a mutex on the hot path;
    - {b monotonic}: timestamps come from the platform monotonic clock
      (bechamel's [clock_gettime(CLOCK_MONOTONIC)] stub), immune to wall
      clock steps;
    - {b dependency-free within the repo}: sits below every repro library
      so both the ISA/TVCA layer and the campaign layer can attribute time
      to it.

    The profiler is process-global: enabling it in a campaign driver
    profiles every stage annotation in the process.  [snapshot] totals are
    sums over all domains. *)

type stage =
  | Codegen  (** TVCA program generation from scenario config *)
  | Decode  (** compiling a program into the pre-decoded executable form *)
  | Scenario  (** a run's input: scenario seed and [Mission.generate] *)
  | Reload  (** zeroing the memory image and loading the scenario into it *)
  | Reseed  (** platform seed derivation and [Core_sim.reseed] *)
  | Flush  (** [Core_sim.reset_run] + runner reset: cache/TLB/DRAM flush *)
  | Execute  (** the simulator inner loop ([Runner.run]) *)
  | Trace  (** trace event construction and flushing *)
  | Store  (** sample-store lookup, append and checkpoint barriers *)
  | Analysis  (** the MBPTA statistical pipeline *)

(** All stages, in the fixed presentation order used by reports. *)
val stages : stage list

(** Stable lowercase name, part of every counter key ({!counter_name}). *)
val stage_name : stage -> string

(** ["profile."], the prefix of every counter key that carries a stage
    total.  [trace summary] renders the counters that start with it as the
    stage table. *)
val counter_prefix : string

(** [counter_name stage suffix] is the trace counter key
    ["profile.<stage_name stage><suffix>"] ([suffix] is ["_ns"],
    ["_minor_words"] or ["_calls"]). *)
val counter_name : stage -> string -> string

(** Enable or disable globally.  Disabled is the default and costs one
    atomic load per annotation. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Monotonic timestamp in nanoseconds. *)
val now_ns : unit -> int64

(** [time stage f] runs [f ()], attributing its wall time and the minor-heap
    words the calling domain allocated meanwhile ([Gc.minor_words]) to
    [stage] when the profiler is enabled.  Exceptions are re-raised after
    attribution.  Nested annotations double-count by design (a parent stage
    includes its children); the pipeline annotates disjoint stages, so
    report totals stay additive. *)
val time : stage -> (unit -> 'a) -> 'a

type entry = { stage : stage; ns : int64; minor_words : int; calls : int }

(** Totals since the last [reset], in {!stages} order, including zero
    entries — so a report can show which stages never ran. *)
val snapshot : unit -> entry list

(** Zero every accumulator (does not change the enabled flag). *)
val reset : unit -> unit

(** Render a snapshot as an aligned text table: one line per stage with
    total ms, call count, and per call ns and minor-heap words, sorted by
    descending total; stages with zero calls are summarized on a trailing
    line.  Returns [""] for an all-zero snapshot. *)
val render : entry list -> string
