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
    into a {!sink} with no per-instruction allocation.

    The order seen by the platform model is, per instruction:
    architectural effects, then the fetch, then at most one work event or
    fixed cost.  Cycle counts, stats and PRNG draw order follow from it;
    the committed fixture [test/fixtures/engine_golden.txt] pins them bit
    for bit. *)

(** The platform's timing model as the runner sees it: a clock, the costs
    that are the same every time for a given instruction and config, and
    closures for the events whose cost depends on platform state.

    Per instruction the runner first fetches.  A fetch whose address, shifted
    right by [line_shift], equals [fetch_line] adds [same_line] to [cycles]
    and one to [pending_line_hits]; any other fetch calls [on_fetch] with
    its address, which may set [fetch_line] to arm that fold for the next
    fetch (a sink that never sets it sees every fetch).  Then FADD/FSUB/
    FMUL/FABS/FMOV add [fp_short], MUL adds [int_mul], a taken branch, jump,
    call or return adds [branch_taken], a load calls [on_read], a store
    [on_write] and FDIV/FSQRT [on_fp_long].  Integer ALU, conversions, nop
    and not-taken branches add nothing past the fetch.  So [cycles] is
    exact after every instruction, including one that raises.

    The runner writes [cycles], [fetch_line] and [pending_line_hits]; the
    sink's owner reads them and may change them between instructions, e.g.
    to add idle cycles or to apply the pending hits. *)
type sink = {
  on_fetch : int -> unit;  (** fetch from a line other than [fetch_line], byte address *)
  on_read : int -> unit;  (** data read, byte address *)
  on_write : int -> unit;  (** data write, byte address *)
  on_fp_long : Instr.fpu_op -> float array -> int -> int -> unit;
      (** FDIV/FSQRT: the float registers and the two operands' indices
          (FSQRT passes its one operand twice), called before the result
          is written *)
  fp_short : int;  (** cycles of an FADD/FMUL-class operation *)
  int_mul : int;  (** cycles of an integer multiply *)
  branch_taken : int;  (** cycles of a taken-branch redirect *)
  same_line : int;  (** cycles of a fetch from [fetch_line] *)
  line_shift : int;  (** [addr lsr line_shift] is the line of byte [addr] *)
  mutable cycles : int;  (** the clock *)
  mutable fetch_line : int;  (** the line a fetch folds on; -1 for none *)
  mutable pending_line_hits : int;  (** folded fetches not yet applied by the owner *)
}

(** [no_timing ()] — a fresh sink for an untimed run: every cost is 0,
    every closure ignores its event, and no fetch folds. *)
val no_timing : unit -> sink

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
