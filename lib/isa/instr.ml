let register_count = 16

type addressing = { base : string; index_reg : int option; offset : int }

type t =
  | Li of int * int
  | Add of int * int * int
  | Addi of int * int * int
  | Sub of int * int * int
  | Mul of int * int * int
  | Fli of int * float
  | Fld of int * addressing
  | Fst of int * addressing
  | Fadd of int * int * int
  | Fsub of int * int * int
  | Fmul of int * int * int
  | Fdiv of int * int * int
  | Fsqrt of int * int
  | Fabs of int * int
  | Fmov of int * int
  | Fcvt of int * int
  | Icvt of int * int
  | Blt of int * int * string
  | Bge of int * int * string
  | Beq of int * int * string
  | Bne of int * int * string
  | Fblt of int * int * string
  | Fbge of int * int * string
  | Jmp of string
  | Call of string
  | Ret
  | Nop
  | Halt

type fpu_op = Fadd_op | Fmul_op | Fdiv_op | Fsqrt_op

let pp_addr ppf a =
  match a.index_reg with
  | None -> Format.fprintf ppf "%s[%d]" a.base a.offset
  | Some r -> Format.fprintf ppf "%s[r%d+%d]" a.base r a.offset

let pp ppf = function
  | Li (rd, v) -> Format.fprintf ppf "li r%d, %d" rd v
  | Add (rd, r1, r2) -> Format.fprintf ppf "add r%d, r%d, r%d" rd r1 r2
  | Addi (rd, r1, v) -> Format.fprintf ppf "addi r%d, r%d, %d" rd r1 v
  | Sub (rd, r1, r2) -> Format.fprintf ppf "sub r%d, r%d, r%d" rd r1 r2
  | Mul (rd, r1, r2) -> Format.fprintf ppf "mul r%d, r%d, r%d" rd r1 r2
  | Fli (fd, v) -> Format.fprintf ppf "fli f%d, %g" fd v
  | Fld (fd, a) -> Format.fprintf ppf "fld f%d, %a" fd pp_addr a
  | Fst (fs, a) -> Format.fprintf ppf "fst f%d, %a" fs pp_addr a
  | Fadd (fd, f1, f2) -> Format.fprintf ppf "fadd f%d, f%d, f%d" fd f1 f2
  | Fsub (fd, f1, f2) -> Format.fprintf ppf "fsub f%d, f%d, f%d" fd f1 f2
  | Fmul (fd, f1, f2) -> Format.fprintf ppf "fmul f%d, f%d, f%d" fd f1 f2
  | Fdiv (fd, f1, f2) -> Format.fprintf ppf "fdiv f%d, f%d, f%d" fd f1 f2
  | Fsqrt (fd, f1) -> Format.fprintf ppf "fsqrt f%d, f%d" fd f1
  | Fabs (fd, f1) -> Format.fprintf ppf "fabs f%d, f%d" fd f1
  | Fmov (fd, f1) -> Format.fprintf ppf "fmov f%d, f%d" fd f1
  | Fcvt (rd, f1) -> Format.fprintf ppf "fcvt r%d, f%d" rd f1
  | Icvt (fd, r1) -> Format.fprintf ppf "icvt f%d, r%d" fd r1
  | Blt (r1, r2, l) -> Format.fprintf ppf "blt r%d, r%d, %s" r1 r2 l
  | Bge (r1, r2, l) -> Format.fprintf ppf "bge r%d, r%d, %s" r1 r2 l
  | Beq (r1, r2, l) -> Format.fprintf ppf "beq r%d, r%d, %s" r1 r2 l
  | Bne (r1, r2, l) -> Format.fprintf ppf "bne r%d, r%d, %s" r1 r2 l
  | Fblt (f1, f2, l) -> Format.fprintf ppf "fblt f%d, f%d, %s" f1 f2 l
  | Fbge (f1, f2, l) -> Format.fprintf ppf "fbge f%d, f%d, %s" f1 f2 l
  | Jmp l -> Format.fprintf ppf "jmp %s" l
  | Call l -> Format.fprintf ppf "call %s" l
  | Ret -> Format.fprintf ppf "ret"
  | Nop -> Format.fprintf ppf "nop"
  | Halt -> Format.fprintf ppf "halt"
