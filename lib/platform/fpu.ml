module Instr = Repro_isa.Instr

type t = { mode : Config.fpu_mode; fp_short : int }

let worst_case_fdiv = 25
let worst_case_fsqrt = 29

let create ~mode ~latencies = { mode; fp_short = latencies.Config.fp_short }

(* The operands arrive as a register file and indices, and every function
   here that takes a float is inlined: an out-of-line call boxes its float
   arguments, and the runner's FDIV/FSQRT path should allocate nothing. *)
let[@inline] mantissa_bits v =
  Int64.to_int (Int64.logand (Int64.bits_of_float v) 0xFFFFFFFFFFFFFL)

(* Trailing zero count of the 52-bit mantissa, capped; more trailing zeros
   means an SRT iteration can terminate earlier. *)
let trailing_zeros m =
  if m = 0 then 52
  else begin
    let rec go m acc = if m land 1 = 1 then acc else go (m lsr 1) (acc + 1) in
    go m 0
  end

let[@inline] fdiv_latency x y =
  let fy = Float.abs y in
  if fy = 0. || Float.is_nan y || Float.is_nan x then worst_case_fdiv
  else if mantissa_bits y = 0 then 8 (* divisor is a power of two: shift path *)
  else begin
    let credit = Stdlib.min 8 (trailing_zeros (mantissa_bits y) / 4) in
    let extra = (mantissa_bits x lxor mantissa_bits y) land 3 in
    17 + (4 - (credit / 2)) + extra
  end

let[@inline] fsqrt_latency x =
  if x < 0. || Float.is_nan x then worst_case_fsqrt
  else if x = 0. || x = 1. then 6 (* trivial results short-circuit *)
  else begin
    let credit = Stdlib.min 6 (trailing_zeros (mantissa_bits x) / 5) in
    let extra = mantissa_bits x land 3 in
    20 + (5 - credit) + extra
  end

let latency t op regs ~x ~y =
  match (op, t.mode) with
  | (Instr.Fadd_op | Instr.Fmul_op), _ -> t.fp_short
  | Instr.Fdiv_op, Config.Worst_case_fixed -> worst_case_fdiv
  | Instr.Fsqrt_op, Config.Worst_case_fixed -> worst_case_fsqrt
  | Instr.Fdiv_op, Config.Value_dependent -> fdiv_latency regs.(x) regs.(y)
  | Instr.Fsqrt_op, Config.Value_dependent -> fsqrt_latency regs.(x)
