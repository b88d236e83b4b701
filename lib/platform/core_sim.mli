(** One LEON3-class core: the 7-stage in-order pipeline timing model wired
    to its IL1/DL1, ITLB/DTLB, FPU, and the shared bus + DRAM controller.

    The model is cycle-approximate: the pipelined base cost is one cycle per
    retired instruction, and every stall source the paper names adds its
    latency on top — IL1/DL1 misses (bus + DRAM), TLB walks, FDIV/FSQRT
    iterations, taken-branch flushes, write-through store cost.  What makes
    a platform DET or RAND is entirely the configuration, not this code. *)

type t

exception Budget_exceeded of { cycles : int; budget : int }
(** raised by {!run_decoded_faulty} when the watchdog cycle budget is
    exceeded — the bounded-interference analogue of a flight computer's
    watchdog timer firing on a diverged task *)

(** [create ?contenders ~config ~seed ()] — [seed] drives all platform
    randomization for this instance (placement, replacement, bus
    interference sampling).

    The reference architecture is a 4-core LEON3 with a shared bus to the
    DRAM controller; the analyzed application runs on this core and the
    other three cores are co-runners.  The paper's evaluation runs TVCA alone
    (no [contenders], the default); the multicore ablation A4 turns the
    co-runners on.  A co-runner is modelled by its bus pressure — the
    probability, in [[0, 1]], that it occupies a bus slot when this core
    requests it — rather than by cycle-accurate co-simulation, so
    [contenders] lists one pressure per active co-runner (an idle core
    contributes nothing and is simply left out).  Round-robin arbitration
    then bounds the per-transaction interference, which is the property
    MBPTA needs.  {!Bus.create} rejects a pressure outside [[0, 1]]. *)
val create : ?contenders:float list -> config:Config.t -> seed:int64 -> unit -> t

val config : t -> Config.t

(** Flush caches, TLBs and DRAM row buffers and draw fresh placement salts:
    the paper's per-run "flush caches, reset, reload, new seed" protocol. *)
val reset_run : t -> unit

(** [reseed t ~seed] rebinds every PRNG stream of a reused simulator
    instance exactly as [create ~seed] would have derived them (same split
    order, same per-component draws): [reseed] + {!reset_run} on a reused
    instance is bit-identical to a fresh [create] + [reset_run].  This is
    what lets a batch of runs amortize simulator construction. *)
val reseed : t -> seed:int64 -> unit

(** [sink t] — the pipeline timing model as the runner's sink, built once
    by {!create}: the platform's fixed latencies, [t]'s clock and fetch
    hints, and the closures for a fetch from a new IL1 line, a data access
    and FDIV/FSQRT.  The runner updates the clock after every instruction,
    so {!cycles} is exact between any two steps.  Exposed so schedulers can
    interleave several runners on one core
    ({!Repro_isa.Executor.Decoded.Runner.step}). *)
val sink : t -> Repro_isa.Executor.sink

(** Add idle cycles (e.g. a scheduler's timer tick overhead). *)
val advance : t -> int -> unit

val cycles : t -> int

(** [run_program t ~program ~layout ~memory] — decode the program, link a
    runner against [memory], and {!run_decoded} it: [reset_run], execute to
    completion, return this run's metrics.  Campaigns that run one program
    many times decode once and call {!run_decoded} directly. *)
val run_program :
  t ->
  program:Repro_isa.Program.t ->
  layout:Repro_isa.Layout.t ->
  memory:Repro_isa.Memory.t ->
  Metrics.t

(** {2 Pre-decoded execution}

    The batched hot path: the caller decodes the program once
    ({!Repro_isa.Executor.Decoded}), links a runner against a reusable
    memory image, and per run calls {!reseed} (fresh platform seed) then
    one of these.  {!reseed} + these on a reused simulator give the same
    bits as a fresh simulator would. *)

(** [run_decoded t ~runner] — [reset_run], reset the runner, execute to
    completion through {!sink}, return the run's metrics.  The caller must
    have reset and reloaded the runner's memory image (e.g.
    {!Repro_isa.Memory.clear} + scenario load). *)
val run_decoded : t -> runner:Repro_isa.Executor.Decoded.Runner.t -> Metrics.t

(** [run_decoded_faulty t ?injector ?watchdog_budget ~runner ()] — like
    {!run_decoded}, but after every instruction (a) the SEU [injector], when
    given, can strike cache tags, TLB entries and runner registers, and
    (b) the [watchdog_budget] (in cycles) is enforced, raising
    {!Budget_exceeded} the moment it is crossed.  With no injector and no
    budget the metrics are identical to {!run_decoded}'s.  May also
    propagate {!Repro_isa.Executor.Runaway} or [Invalid_argument]
    (out-of-bounds access) when an injected register upset derails the
    program — the resilience supervisor upstream classifies these. *)
val run_decoded_faulty :
  t ->
  ?injector:Fault.t ->
  ?watchdog_budget:int ->
  runner:Repro_isa.Executor.Decoded.Runner.t ->
  unit ->
  Metrics.t

(** Metrics accumulated since the last [reset_run] (for callers driving
    {!sink} directly). *)
val snapshot : t -> instructions:int -> fp_long_ops:int -> taken_branches:int -> Metrics.t
