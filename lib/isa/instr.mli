(** The miniature LEON-class instruction set executed by the platform model.

    A RISC register machine: 16 integer registers (addressing, loop control),
    16 floating-point registers (the control computations), a word-addressed
    float data memory accessed through named symbols, and compare-and-branch
    control flow.  Floating-point divide and square root are the two
    value-dependent-latency operations called out by the paper's FPU
    discussion. *)

(** Number of integer and floating-point registers. *)
val register_count : int

(** Data addresses are symbolic until link time: [base] names a data symbol
    (resolved by {!Layout}), [index_reg] an optional integer register whose
    value is added as an element index, [offset] a constant element index. *)
type addressing = { base : string; index_reg : int option; offset : int }

type t =
  | Li of int * int  (** rd <- constant *)
  | Add of int * int * int  (** rd <- rs1 + rs2 *)
  | Addi of int * int * int  (** rd <- rs1 + constant *)
  | Sub of int * int * int
  | Mul of int * int * int
  | Fli of int * float  (** fd <- constant *)
  | Fld of int * addressing  (** fd <- mem[addr] *)
  | Fst of int * addressing  (** mem[addr] <- fs *)
  | Fadd of int * int * int
  | Fsub of int * int * int
  | Fmul of int * int * int
  | Fdiv of int * int * int
  | Fsqrt of int * int
  | Fabs of int * int
  | Fmov of int * int
  | Fcvt of int * int  (** rd (int) <- truncation of fs *)
  | Icvt of int * int  (** fd <- float of rs *)
  | Blt of int * int * string  (** branch if rs1 < rs2 (integer) *)
  | Bge of int * int * string
  | Beq of int * int * string
  | Bne of int * int * string
  | Fblt of int * int * string  (** branch if fs1 < fs2 *)
  | Fbge of int * int * string
  | Jmp of string
  | Call of string
  | Ret
  | Nop
  | Halt

(** Floating-point operation classes as seen by the FPU timing model. *)
type fpu_op = Fadd_op | Fmul_op | Fdiv_op | Fsqrt_op

val pp : Format.formatter -> t -> unit
