(** Functional execution of a program: interprets the instruction semantics,
    updating registers and {!Memory}, and reports what each executed
    instruction asks of the micro-architecture to a timing {!sink}
    (normally the platform timing model).

    Execution is fully deterministic given (program, layout, memory
    contents); all timing is the sink's business.

    There is one engine, {!Decoded.Runner}: {!run} and {!path_signature}
    are conveniences over it, {!Decoded.Runner.run} executes to
    completion, and {!Decoded.Runner.step} executes one instruction, which
    is what a preemptive scheduler needs to interleave several tasks on one
    core. *)

exception Stack_overflow_ of string

exception Runaway of string
(** raised when [max_instructions] is exceeded — almost always an
    unintended infinite loop in a generated program *)

type stats = {
  retired : int;
  loads : int;
  stores : int;
  fp_long_ops : int;  (** FDIV + FSQRT count *)
  branches : int;
  taken_branches : int;
}

(** {2 Pre-decoded execution}

    A program is decoded once ({!Decoded.decode} — label targets, data
    bases and fetch addresses all resolved to flat arrays), linked against
    a live memory image once per {!Decoded.Runner}, and streams timing
    through a {!sink} of per-work-class hooks with no per-instruction
    allocation.

    The call sequence seen by the platform model is, per instruction:
    architectural effects, then fetch, then at most one work event.  Cycle
    counts, stats and PRNG draw order follow from it; the committed fixture
    [test/fixtures/engine_golden.txt] pins them bit for bit. *)

(** Per-work-class timing hooks; see {!Decoded}.  [on_fetch] is called once
    per executed instruction with its fetch address; work classes with zero
    platform latency (integer ALU, nop, not-taken branches) get no further
    call. *)
type sink = {
  on_fetch : int -> unit;
  on_int_mul : unit -> unit;
  on_read : int -> unit;  (** data read, byte address *)
  on_write : int -> unit;  (** data write, byte address *)
  on_fp_short : Instr.fpu_op -> unit;
  on_fp_long : Instr.fpu_op -> float -> float -> unit;  (** op, operands *)
  on_taken : unit -> unit;  (** taken-branch redirect *)
}

(** The sink of an untimed run: every hook ignores its event. *)
val no_timing : sink

module Decoded : sig
  type t
  (** A program compiled for execution: pure function of (program, layout),
      memory-independent — shareable across domains, memory images and
      runs, and cacheable per scenario config. *)

  val decode : program:Program.t -> layout:Layout.t -> t
  val name : t -> string

  (** A decoded program linked against one live memory image.  Reusable
      across runs via {!Runner.reset} (the caller zeroes and reloads the
      memory between runs). *)
  module Runner : sig
    type decoded := t
    type t

    val create : ?max_instructions:int -> decoded:decoded -> memory:Memory.t -> unit -> t

    (** [sibling t] — a fresh runner at the entry, linked to the same memory
        image as [t] without relinking: it shares [t]'s program and memory
        but has its own registers, call stack and counters.  A scheduler
        gives every task one. *)
    val sibling : t -> t

    (** Restore registers, call stack, pc and counters to the initial
        state; the memory image is the caller's to reset. *)
    val reset : t -> unit

    (** [run t ~sink] executes to completion ([Halt], or [Ret] with an
        empty call stack).  Raises {!Runaway} once [max_instructions]
        (default [10_000_000]) have retired, {!Stack_overflow_} past 256
        nested calls, and [Invalid_argument] on an out-of-bounds data
        access. *)
    val run : t -> sink:sink -> stats

    (** [run_supervised t ~sink ~post] additionally calls [post ()] after
        every retired instruction — the hook point for watchdog budgets and
        SEU injection. *)
    val run_supervised : t -> sink:sink -> post:(unit -> unit) -> stats

    (** [step t ~sink] executes one instruction, raising as {!run} does; a
        no-op once the runner has {!finished}. *)
    val step : t -> sink:sink -> unit

    val finished : t -> bool

    (** [restart t ~pc ~regs] resets [t] as {!reset} does, then sets the pc
        to [pc] (e.g. a task's entry label, via {!Program.label_index}) and
        presets the integer registers [regs] (e.g. a task's activation
        index).  Raises [Invalid_argument] on an out-of-range pc or
        register. *)
    val restart : t -> pc:int -> regs:(int * int) list -> unit

    (** [path_signature t] executes to completion without timing and returns
        a hash of the taken/not-taken branch sequence; see
        {!val:path_signature}. *)
    val path_signature : t -> int

    val stats : t -> stats

    (** {2 SEU injection hooks}

        [corrupt_int_register t ~reg ~bit] flips one of the low 32 bits of
        an integer register (the model's registers are architecturally
        32-bit); [corrupt_float_register] flips one bit of the IEEE-754
        image of a float register (which can produce inf/NaN, as on real
        hardware).  Driven by the platform fault injector between
        instructions; a corrupted register may change the execution path,
        trap (out-of-bounds access), diverge ({!Runaway}), or silently
        corrupt the program's output. *)

    val corrupt_int_register : t -> reg:int -> bit:int -> unit
    val corrupt_float_register : t -> reg:int -> bit:int -> unit
  end
end

(** [run ?max_instructions ~program ~layout ~memory ()] decodes the program
    and executes it from its entry to completion without timing, as
    {!Decoded.Runner.run} does. *)
val run :
  ?max_instructions:int ->
  program:Program.t ->
  layout:Layout.t ->
  memory:Memory.t ->
  unit ->
  stats

(** [path_signature ~program ~layout ~memory ()] executes without timing
    and returns a hash of the taken/not-taken branch sequence: two runs with
    the same signature followed the same execution path.  Used by the
    per-path analysis of the MBPTA protocol. *)
val path_signature :
  ?max_instructions:int ->
  program:Program.t ->
  layout:Layout.t ->
  memory:Memory.t ->
  unit ->
  int
