(** FPU latency model.

    FADD/FMUL-class operations have a fixed pipeline latency (jitterless).
    FDIV and FSQRT are iterative (SRT-style) and their latency depends on
    the operand values — the jitter source the paper removes at analysis
    time by forcing both operations to their worst-case fixed latency
    ([Worst_case_fixed] mode).

    In [Value_dependent] mode the latency is a deterministic function of the
    operand bit patterns: a base cost plus an early-termination credit
    derived from the dividend/divisor mantissas (zero low-order mantissa
    bits let an SRT divider finish early), plus fast paths for special
    values (division by powers of two, sqrt of 0/1). *)

type t

val create : mode:Config.fpu_mode -> latencies:Config.latencies -> t

(** [latency t op regs ~x ~y] — latency in cycles of one operation whose
    operands are [regs.(x)] and [regs.(y)] ([y] ignored for FSQRT, both
    for FADD/FMUL).  The operands stay in the register file, so no float
    is boxed on the way. *)
val latency : t -> Repro_isa.Instr.fpu_op -> float array -> x:int -> y:int -> int

(** The fixed analysis-time latencies. *)
val worst_case_fdiv : int

val worst_case_fsqrt : int
