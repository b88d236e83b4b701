(** Preemptive fixed-priority scheduling of the TVCA task set on one core.

    The paper's application "implements a fixed priority scheduler with 3
    periodic tasks".  This module simulates that scheduler at instruction
    granularity: each task is an entry point into the (shared-memory)
    generated program; releases are periodic; at every instruction boundary
    the highest-priority released, unfinished job runs, so a release
    preempts lower-priority work mid-job.  The platform clock is the
    {!Repro_platform.Core_sim} cycle count, so preemption interacts
    honestly with caches — a preempting task evicts the preempted one's
    lines, and the victim pays the reload (cache-related preemption delay).

    The per-activation response times this produces are exactly the
    measurement protocol for task-level probabilistic timing analysis and
    can be cross-checked against {!Repro_mbpta.Schedulability}'s analytical
    response-time bounds. *)

type task_spec = {
  name : string;
  entry : string;  (** label in the shared program, e.g. ["task_sensor"] *)
  priority : int;  (** smaller = more urgent *)
  period : int;  (** release period, cycles *)
  offset : int;  (** first release, cycles *)
}

type task_result = {
  spec : task_spec;
  response_times : float array;  (** per completed activation, cycles *)
  activations : int;  (** completed activations *)
  skipped_releases : int;
      (** releases that arrived while the previous job of the same task was
          still pending (counted as overruns and dropped) *)
}

type t = {
  per_task : task_result list;
  total_cycles : int;
  preemptions : int;  (** times a running job was displaced by a release *)
  idle_cycles : int;
}

(** [run ?context_switch ?frames ~core ~program ~layout ~memory ~tasks
    ~horizon ()] — simulates until the platform clock passes [horizon]
    cycles (jobs in flight at the horizon are abandoned).  Each activation
    [k] of a task starts at its [entry] with register [r10] preset to
    [k mod frames] (the frame index the generated code expects; [frames]
    defaults to [Mission.default_frames] and must match the frame count the
    program was generated for).  [context_switch] cycles (default 40) are
    charged whenever the running job changes.  Every task runs on its own
    {!Repro_isa.Executor.Decoded.Runner}, timed through
    {!Repro_platform.Core_sim.sink}.  Raises [Invalid_argument] on
    duplicate priorities (the fixed-priority order must be total), a
    non-positive period, a negative offset or an unknown entry label. *)
val run :
  ?context_switch:int ->
  ?frames:int ->
  core:Repro_platform.Core_sim.t ->
  program:Repro_isa.Program.t ->
  layout:Repro_isa.Layout.t ->
  memory:Repro_isa.Memory.t ->
  tasks:task_spec list ->
  horizon:int ->
  unit ->
  t

(** [run_linked ?context_switch ?frames ~core ~program ~runner ~tasks
    ~horizon ()] — {!run} on a runner already linked against the program's
    memory image, e.g. a campaign's reused one: the tasks run on
    {!Repro_isa.Executor.Decoded.Runner.sibling}s of [runner], so nothing
    is decoded or relinked. *)
val run_linked :
  ?context_switch:int ->
  ?frames:int ->
  core:Repro_platform.Core_sim.t ->
  program:Repro_isa.Program.t ->
  runner:Repro_isa.Executor.Decoded.Runner.t ->
  tasks:task_spec list ->
  horizon:int ->
  unit ->
  t

(** The paper's task set over the generated TVCA program: sensor
    acquisition (highest priority), actuator control X, actuator control Y,
    all at [period] with staggered offsets [0; jitter; 2 jitter]. *)
val tvca_tasks : period:int -> ?release_jitter:int -> unit -> task_spec list

(** {2 Schedule randomization}

    TaskShuffler++-style randomization of the fixed-priority schedule: a
    predictable schedule lets an attacker phase-align with a victim task,
    so each policy perturbs the schedule from a derived seed while keeping
    it deterministic per [(seed)] — campaigns stay bit-identical at any
    [--jobs]. *)

type policy =
  | Fixed_priority  (** baseline: the task set unchanged *)
  | Priority_shuffle
      (** uniform priority permutation within each equal-period class
          (the deadline-safe freedom under rate-monotonic order) *)
  | Offset_jitter  (** uniform release delay in [[0, max_jitter]] per task *)

val all_policies : policy list

(** Stable CLI/report names: ["fixed"], ["shuffle"], ["jitter"]. *)
val policy_name : policy -> string

val policy_of_string : string -> (policy, string) result

(** [apply_policy policy ~seed ~max_jitter tasks] — a {e pure} function of
    its arguments: same seed, same schedule, whatever core it runs on.
    Priorities are only permuted within equal-period classes (implicit
    deadlines stay met); jittered offsets only grow, so they remain
    non-negative.  Raises [Invalid_argument] if [max_jitter < 0]. *)
val apply_policy : policy -> seed:int64 -> max_jitter:int -> task_spec list -> task_spec list

(** Canonical one-line encoding of a concrete schedule
    (["name:prio:offset;..."]), the unit of the entropy/vulnerability
    metrics below. *)
val schedule_signature : task_spec list -> string

(** Schedule-diversity metrics over one campaign's realized schedules. *)
type randomization = {
  schedules : int;  (** campaign runs observed *)
  distinct : int;  (** distinct schedule signatures *)
  entropy_bits : float;  (** Shannon entropy of the schedule distribution *)
  vulnerability : float;
      (** probability of the modal schedule — an attacker's best-guess
          success rate; 1.0 = fully predictable, lower is better *)
}

(** Raises [Invalid_argument] on an empty list.  Deterministic: the
    frequency fold is over signature-sorted bins. *)
val randomization_of_signatures : string list -> randomization

val pp : Format.formatter -> t -> unit
