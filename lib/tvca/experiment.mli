(** Measurement harness: executes TVCA runs on a configured platform,
    following the paper's protocol — for every run the caches are flushed,
    the platform gets a fresh randomization seed, and a fresh input scenario
    is generated (runs are then independent by construction, which is what
    the i.i.d. tests verify downstream).

    A fixed [base_seed] makes a whole measurement campaign reproducible:
    run [i]'s scenario and platform seeds are pure functions of
    [(base_seed, i)]. *)

type t

(** [create ?frames ?variant ?contenders ~config ~base_seed ()] prepares the
    program (built once — the binary does not change across runs) and its
    layout. *)
val create :
  ?frames:int ->
  ?gains:Controller.gains ->
  ?variant:Codegen.variant ->
  ?contenders:float list ->
  config:Repro_platform.Config.t ->
  base_seed:int64 ->
  unit ->
  t

val config : t -> Repro_platform.Config.t
val program : t -> Repro_isa.Program.t

(** {2 Per-run seed derivation}

    Every measurement's randomness derives from exactly three seed
    families, each a {e pure function} of [(base_seed, run_index, attempt)]
    — no shared mutable generator is ever threaded across runs.  That
    purity is the determinism contract the parallel campaign layer
    ({!Repro_mbpta.Parallel}, [Campaign.run ?jobs]) rests on: runs may
    execute in any order on any domain and the produced samples are
    bit-identical to the sequential campaign's.

    - {!scenario_seed} drives the run's input generation; it does {e not}
      depend on [attempt] — a retry repeats the same measurement scenario;
    - {!platform_seed} drives cache/TLB randomization; re-derived per
      attempt so a retry runs under fresh (but deterministic)
      randomization;
    - {!fault_seed} drives SEU injection; a salted family, so seeds (and
      hence all timing) are bit-identical to the fault-free pipeline when
      injection is off. *)

val scenario_seed : t -> run_index:int -> int64
val platform_seed : t -> run_index:int -> attempt:int -> int64
val fault_seed : t -> run_index:int -> attempt:int -> int64

(** Schedule-randomization stream ({!run_schedule}); a fourth salted
    family, so shuffle campaigns leave all other seeds untouched. *)
val schedule_seed : t -> run_index:int -> int64

(** [run t ~run_index] — one measured run; returns the full metrics.

    Every per-run entry point of this module ({!run}, {!measure},
    {!run_schedule}, {!measure_fixed_scenario}, {!run_faulty},
    {!path_signature}, {!check_functional}) executes on the batched hot
    path: a per-(domain, experiment) scratch (one simulator instance, one
    memory image, one pre-decoded runner) is reused across consecutive
    runs, with the full per-run protocol — fresh derived seeds, platform
    reseed, flush, zeroed and reloaded memory — replayed for every run, so
    a result depends only on its arguments, never on the runs before it.

    The scratch also owns one set of {!Mission.buffers}: a run generates its
    input scenario into them, so that mission is valid only until the
    scratch's next run.  A run asking for the scenario the buffers already
    hold (a {!run_faulty} retry, a {!measure_fixed_scenario} run on the
    same pinned input) skips generation. *)
val run : t -> run_index:int -> Repro_platform.Metrics.t

(** [measure t ~run_index] — execution time (cycles) only. *)
val measure : t -> run_index:int -> float

(** {2 Randomized-schedule runs}

    One RTOS simulation of the TVCA task set under a {!Rtos.policy},
    randomized from {!schedule_seed} — a pure function of
    [(base_seed, run_index)], so shuffle campaigns are bit-identical at
    any [--jobs]. *)

type schedule_run = {
  worst_response : float;
      (** worst completed-activation response time (cycles) across all
          tasks — the campaign's measurement unit *)
  signature : string;  (** {!Rtos.schedule_signature} of the realized schedule *)
  preemptions : int;
  skipped_releases : int;  (** overruns summed over tasks *)
}

val run_schedule :
  t ->
  ?context_switch:int ->
  policy:Rtos.policy ->
  period:int ->
  max_jitter:int ->
  horizon:int ->
  run_index:int ->
  unit ->
  schedule_run

(** {2 Fixed-input runs (timing-leak detection)}

    [measure_fixed_scenario t ~scenario_index ~run_index] measures run
    [run_index] with its input scenario pinned to [scenario_index]
    (platform randomization still follows [run_index]).  Comparing a
    fixed-input campaign against a varying-input one (dudect-style) is the
    [mbpta leak] protocol: on a deterministic platform the input shows
    through as a timing difference; a time-randomized platform masks it. *)
val measure_fixed_scenario : t -> scenario_index:int -> run_index:int -> float

(** {2 Hot-path instrumentation} *)

(** [(hits, misses)] of the process-wide decode cache: codegen is a pure
    function of (variant, gains, frames), so experiments sharing a scenario
    config share one generated + pre-decoded program. *)
val decode_cache_stats : unit -> int * int

(** The decode cache is bounded: at most [decode_cache_capacity ()]
    entries (default 32), evicting the least-recently-used entry on
    overflow — a long-lived process serving an unbounded stream of
    distinct configs must not pin every decoded program forever.
    Eviction only drops the cache's reference; live experiments hold
    their own and are unaffected.  [set_decode_cache_capacity] shrinks
    the cache immediately when lowering the cap; raises
    [Invalid_argument] on a cap < 1. *)
val decode_cache_capacity : unit -> int

val set_decode_cache_capacity : int -> unit

(** Current entry count (always [<= decode_cache_capacity ()]). *)
val decode_cache_size : unit -> int

(** [(scratches_created, batched_reuses)] — how many per-(domain,
    experiment) simulator scratches were built vs how many runs reused one;
    a healthy batched campaign shows reuses ≫ creations. *)
val batch_stats : unit -> int * int

(** {2 Fault-injected runs}

    The paper's platform flies in space, where single-event upsets are the
    dominant hazard.  [run_faulty] repeats a run under a seed-deterministic
    SEU injector ({!Repro_platform.Fault}) and a cycle-budget watchdog, and
    classifies the result.  All per-run fault randomness derives from
    [(base_seed, run_index, attempt)]: same inputs, same fault sites, same
    outcome.  With [seu_rate = 0.] and no watchdog the measured cycles are
    bit-identical to {!run}. *)

type fault_config = {
  seu_rate : float;  (** expected upsets per million retired instructions *)
  watchdog_budget : int option;  (** cycle budget; [None] = no watchdog *)
  output_tolerance : float;
      (** max absolute command error before a run counts as corrupted *)
}

(** Validating constructor (rejects negative rates and non-positive
    budgets); defaults: no upsets, no watchdog, tolerance [1e-9]. *)
val fault_config :
  ?seu_rate:float -> ?watchdog_budget:int -> ?output_tolerance:float -> unit -> fault_config

type fault_outcome =
  | Completed of { metrics : Repro_platform.Metrics.t; faults : Repro_platform.Fault.record list }
  | Watchdog of { cycles : int; budget : int; faults : Repro_platform.Fault.record list }
  | Runaway of { program : string; faults : Repro_platform.Fault.record list }
  | Crashed of { detail : string; faults : Repro_platform.Fault.record list }
  | Corrupted of { worst_error : float; faults : Repro_platform.Fault.record list }

(** [run_faulty t ~fault ?attempt ~run_index ()] — attempt [attempt]
    (default 0) of run [run_index].  The run's input scenario is fixed
    across attempts; platform and fault seeds are re-derived per attempt, so
    a retry is the same measurement under fresh randomization.  Never
    raises on fault-induced misbehavior — divergence, traps and corrupted
    output all come back classified. *)
val run_faulty :
  t -> fault:fault_config -> ?attempt:int -> run_index:int -> unit -> fault_outcome

val fault_records : fault_outcome -> Repro_platform.Fault.record list
val pp_fault_outcome : Format.formatter -> fault_outcome -> unit

(** [collect t ~runs] — the measurement series for a campaign. *)
val collect : t -> runs:int -> float array

(** [path_signature t ~run_index] — hash of the execution path this run's
    inputs induce (layout/platform independent). *)
val path_signature : t -> run_index:int -> int

(** [check_functional t ~run_index] — executes the generated code and
    compares its commands against the golden controller's; returns the
    maximum absolute difference (0. means bit-identical, [infinity] that a
    command is NaN). *)
val check_functional : t -> run_index:int -> float

(** [with_layout t layout] — same experiment, different link layout (for the
    layout-sensitivity ablation). *)
val with_layout : t -> Repro_isa.Layout.t -> t

val layout : t -> Repro_isa.Layout.t
