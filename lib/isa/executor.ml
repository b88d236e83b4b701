exception Stack_overflow_ of string
exception Runaway of string

type stats = {
  retired : int;
  loads : int;
  stores : int;
  fp_long_ops : int;
  branches : int;
  taken_branches : int;
}

let max_call_depth = 256

(* Pre-resolved addressing: the live backing array plus the symbol's byte
   base, so the hot loop does no hash lookups.  index_reg = -1 encodes "no
   index register". *)
type raddr = { values : float array; byte_base : int; index_reg : int; offset : int }

type rop =
  | RLi of int * int
  | RAdd of int * int * int
  | RAddi of int * int * int
  | RSub of int * int * int
  | RMul of int * int * int
  | RFli of int * float
  | RFld of int * raddr
  | RFst of int * raddr
  | RFadd of int * int * int
  | RFsub of int * int * int
  | RFmul of int * int * int
  | RFdiv of int * int * int
  | RFsqrt of int * int
  | RFabs of int * int
  | RFmov of int * int
  | RFcvt of int * int
  | RIcvt of int * int
  | RBlt of int * int * int
  | RBge of int * int * int
  | RBeq of int * int * int
  | RBne of int * int * int
  | RFblt of int * int * int
  | RFbge of int * int * int
  | RJmp of int
  | RCall of int
  | RRet
  | RNop
  | RHalt

let resolve ~program ~layout ~memory =
  let target l = Program.label_index program l in
  let addr (a : Instr.addressing) =
    {
      values = Memory.raw memory a.Instr.base;
      byte_base = Layout.data_address layout ~symbol:a.Instr.base ~element:0;
      index_reg = (match a.Instr.index_reg with Some r -> r | None -> -1);
      offset = a.Instr.offset;
    }
  in
  Array.map
    (fun instr ->
      match instr with
      | Instr.Li (rd, v) -> RLi (rd, v)
      | Instr.Add (a, b, c) -> RAdd (a, b, c)
      | Instr.Addi (a, b, v) -> RAddi (a, b, v)
      | Instr.Sub (a, b, c) -> RSub (a, b, c)
      | Instr.Mul (a, b, c) -> RMul (a, b, c)
      | Instr.Fli (fd, v) -> RFli (fd, v)
      | Instr.Fld (fd, a) -> RFld (fd, addr a)
      | Instr.Fst (fs, a) -> RFst (fs, addr a)
      | Instr.Fadd (a, b, c) -> RFadd (a, b, c)
      | Instr.Fsub (a, b, c) -> RFsub (a, b, c)
      | Instr.Fmul (a, b, c) -> RFmul (a, b, c)
      | Instr.Fdiv (a, b, c) -> RFdiv (a, b, c)
      | Instr.Fsqrt (a, b) -> RFsqrt (a, b)
      | Instr.Fabs (a, b) -> RFabs (a, b)
      | Instr.Fmov (a, b) -> RFmov (a, b)
      | Instr.Fcvt (a, b) -> RFcvt (a, b)
      | Instr.Icvt (a, b) -> RIcvt (a, b)
      | Instr.Blt (a, b, l) -> RBlt (a, b, target l)
      | Instr.Bge (a, b, l) -> RBge (a, b, target l)
      | Instr.Beq (a, b, l) -> RBeq (a, b, target l)
      | Instr.Bne (a, b, l) -> RBne (a, b, target l)
      | Instr.Fblt (a, b, l) -> RFblt (a, b, target l)
      | Instr.Fbge (a, b, l) -> RFbge (a, b, target l)
      | Instr.Jmp l -> RJmp (target l)
      | Instr.Call l -> RCall (target l)
      | Instr.Ret -> RRet
      | Instr.Nop -> RNop
      | Instr.Halt -> RHalt)
    (Program.code program)

let element_index (a : raddr) regs =
  let idx = if a.index_reg >= 0 then regs.(a.index_reg) + a.offset else a.offset in
  if idx < 0 || idx >= Array.length a.values then
    invalid_arg
      (Printf.sprintf "Executor: data access out of bounds (index %d, size %d)" idx
         (Array.length a.values));
  idx

(* Timing consumer of the runner.  Nothing is allocated per executed
   instruction.  The costs that are the same every time for a given
   instruction and config live in the sink as ints, and the runner adds
   them to the sink's clock itself: the base cycle and L1 hit of a fetch
   on the previous fetch's IL1 line, FADD/FMUL-class latency, integer
   multiply and the taken-branch flush.  Only a fetch from another line,
   a data access and FDIV/FSQRT call a closure. *)
type sink = {
  on_fetch : int -> unit;
  on_read : int -> unit;
  on_write : int -> unit;
  on_fp_long : Instr.fpu_op -> float array -> int -> int -> unit;
  fp_short : int;
  int_mul : int;
  branch_taken : int;
  same_line : int;
  line_shift : int;
  mutable cycles : int;
  mutable fetch_line : int;
  mutable pending_line_hits : int;
}

let no_timing () =
  {
    on_fetch = ignore;
    on_read = ignore;
    on_write = ignore;
    on_fp_long = (fun _ _ _ _ -> ());
    fp_short = 0;
    int_mul = 0;
    branch_taken = 0;
    same_line = 0;
    line_shift = 0;
    cycles = 0;
    fetch_line = -1;
    pending_line_hits = 0;
  }

(* The fetch of every instruction: on the previous fetch's line it is the
   fixed [same_line] cost and one more pending hit, elsewhere the sink's
   [on_fetch], which decides whether to arm [fetch_line]. *)
let[@inline] fetch (sink : sink) addr =
  if addr lsr sink.line_shift = sink.fetch_line then begin
    sink.cycles <- sink.cycles + sink.same_line;
    sink.pending_line_hits <- sink.pending_line_hits + 1
  end
  else sink.on_fetch addr

let[@inline] add_cycles (sink : sink) n = sink.cycles <- sink.cycles + n

module Decoded = struct
  (* The memory-independent half of the decode: everything [resolve] can
     compute from (program, layout) alone — label targets, data byte bases,
     per-pc fetch addresses — so one decode is shareable across every
     memory image, domain and run of a scenario.  Binding the live backing
     arrays (the only memory-dependent part) happens once per {!Runner}. *)
  type t = {
    program : Program.t;
    layout : Layout.t;
    fetch_addrs : int array;
    entry_pc : int;
    name : string;
  }

  let decode ~program ~layout =
    let n = Array.length (Program.code program) in
    {
      program;
      layout;
      fetch_addrs = Array.init n (fun pc -> Layout.code_address layout pc);
      entry_pc = Program.label_index program (Program.entry program);
      name = Program.name program;
    }

  let name t = t.name

  module Runner = struct
    type t = {
      code : rop array;
      fetch_addrs : int array;
      entry_pc : int;
      name : string;
      max_instructions : int;
      regs : int array;
      fregs : float array;
      call_stack : int array;
      mutable sp : int;
      mutable pc : int;
      mutable running : bool;
      mutable retired : int;
      mutable loads : int;
      mutable stores : int;
      mutable fp_long : int;
      mutable branches : int;
      mutable taken : int;
    }

    let create ?(max_instructions = 10_000_000) ~decoded ~memory () =
      {
        code = resolve ~program:decoded.program ~layout:decoded.layout ~memory;
        fetch_addrs = decoded.fetch_addrs;
        entry_pc = decoded.entry_pc;
        name = decoded.name;
        max_instructions;
        regs = Array.make Instr.register_count 0;
        fregs = Array.make Instr.register_count 0.;
        call_stack = Array.make max_call_depth 0;
        sp = 0;
        pc = decoded.entry_pc;
        running = true;
        retired = 0;
        loads = 0;
        stores = 0;
        fp_long = 0;
        branches = 0;
        taken = 0;
      }

    (* Restore the architectural state [create] built, so one linked runner
       serves every run of a batch.  The [code] array needs no relink: it
       binds the memory's backing arrays, which are reused (and zeroed by
       the caller) across runs. *)
    let reset t =
      Array.fill t.regs 0 (Array.length t.regs) 0;
      Array.fill t.fregs 0 (Array.length t.fregs) 0.;
      t.sp <- 0;
      t.pc <- t.entry_pc;
      t.running <- true;
      t.retired <- 0;
      t.loads <- 0;
      t.stores <- 0;
      t.fp_long <- 0;
      t.branches <- 0;
      t.taken <- 0

    (* A runner over the same linked code and memory image with its own
       architectural state: how a scheduler gives each task its own
       registers, pc and call stack without relinking the program. *)
    let sibling t =
      let s =
        {
          t with
          regs = Array.make Instr.register_count 0;
          fregs = Array.make Instr.register_count 0.;
          call_stack = Array.make max_call_depth 0;
        }
      in
      reset s;
      s

    let corrupt_int_register t ~reg ~bit =
      if reg < 0 || reg >= Instr.register_count then
        invalid_arg "Runner.corrupt_int_register: register out of range";
      t.regs.(reg) <- t.regs.(reg) lxor (1 lsl (bit land 31))

    let corrupt_float_register t ~reg ~bit =
      if reg < 0 || reg >= Instr.register_count then
        invalid_arg "Runner.corrupt_float_register: register out of range";
      let bits = Int64.bits_of_float t.fregs.(reg) in
      t.fregs.(reg) <-
        Int64.float_of_bits (Int64.logxor bits (Int64.shift_left 1L (bit land 63)))

    let stats t =
      {
        retired = t.retired;
        loads = t.loads;
        stores = t.stores;
        fp_long_ops = t.fp_long;
        branches = t.branches;
        taken_branches = t.taken;
      }

    (* One instruction: architectural effects first (including any
       out-of-bounds raise), then the fetch, then at most one work event or
       fixed cost.  A run that crashes mid-instruction has therefore made
       exactly the platform accesses (and PRNG draws) of the instructions
       before it, and its clock holds exactly their cycles; the committed
       engine fixture pins this order.  FDIV and FSQRT, which cannot
       raise, write their result last: the FPU model reads the operands
       from the register file, before the result can overwrite one. *)
    let[@inline] exec_one t (sink : sink) =
      let pc = t.pc in
      let op = t.code.(pc) in
      let addr = t.fetch_addrs.(pc) in
      t.retired <- t.retired + 1;
      let next = pc + 1 in
      let regs = t.regs and fregs = t.fregs in
      match op with
      | RLi (rd, v) ->
          regs.(rd) <- v;
          t.pc <- next;
          fetch sink addr
      | RAdd (rd, r1, r2) ->
          regs.(rd) <- regs.(r1) + regs.(r2);
          t.pc <- next;
          fetch sink addr
      | RAddi (rd, r1, v) ->
          regs.(rd) <- regs.(r1) + v;
          t.pc <- next;
          fetch sink addr
      | RSub (rd, r1, r2) ->
          regs.(rd) <- regs.(r1) - regs.(r2);
          t.pc <- next;
          fetch sink addr
      | RMul (rd, r1, r2) ->
          regs.(rd) <- regs.(r1) * regs.(r2);
          t.pc <- next;
          fetch sink addr;
          add_cycles sink sink.int_mul
      | RFli (fd, v) ->
          fregs.(fd) <- v;
          t.pc <- next;
          fetch sink addr
      | RFld (fd, a) ->
          let idx = element_index a regs in
          fregs.(fd) <- a.values.(idx);
          t.loads <- t.loads + 1;
          t.pc <- next;
          fetch sink addr;
          sink.on_read (a.byte_base + (idx * Layout.element_bytes))
      | RFst (fs, a) ->
          let idx = element_index a regs in
          a.values.(idx) <- fregs.(fs);
          t.stores <- t.stores + 1;
          t.pc <- next;
          fetch sink addr;
          sink.on_write (a.byte_base + (idx * Layout.element_bytes))
      | RFadd (fd, f1, f2) ->
          fregs.(fd) <- fregs.(f1) +. fregs.(f2);
          t.pc <- next;
          fetch sink addr;
          add_cycles sink sink.fp_short
      | RFsub (fd, f1, f2) ->
          fregs.(fd) <- fregs.(f1) -. fregs.(f2);
          t.pc <- next;
          fetch sink addr;
          add_cycles sink sink.fp_short
      | RFmul (fd, f1, f2) ->
          fregs.(fd) <- fregs.(f1) *. fregs.(f2);
          t.pc <- next;
          fetch sink addr;
          add_cycles sink sink.fp_short
      | RFdiv (fd, f1, f2) ->
          t.fp_long <- t.fp_long + 1;
          t.pc <- next;
          fetch sink addr;
          sink.on_fp_long Instr.Fdiv_op fregs f1 f2;
          fregs.(fd) <- fregs.(f1) /. fregs.(f2)
      | RFsqrt (fd, f1) ->
          t.fp_long <- t.fp_long + 1;
          t.pc <- next;
          fetch sink addr;
          sink.on_fp_long Instr.Fsqrt_op fregs f1 f1;
          fregs.(fd) <- sqrt fregs.(f1)
      | RFabs (fd, f1) ->
          fregs.(fd) <- Float.abs fregs.(f1);
          t.pc <- next;
          fetch sink addr;
          add_cycles sink sink.fp_short
      | RFmov (fd, f1) ->
          fregs.(fd) <- fregs.(f1);
          t.pc <- next;
          fetch sink addr;
          add_cycles sink sink.fp_short
      | RFcvt (rd, f1) ->
          regs.(rd) <- int_of_float fregs.(f1);
          t.pc <- next;
          fetch sink addr
      | RIcvt (fd, r1) ->
          fregs.(fd) <- float_of_int regs.(r1);
          t.pc <- next;
          fetch sink addr
      | RBlt (r1, r2, l) ->
          t.branches <- t.branches + 1;
          let cond = regs.(r1) < regs.(r2) in
          if cond then begin
            t.taken <- t.taken + 1;
            t.pc <- l;
            fetch sink addr;
            add_cycles sink sink.branch_taken
          end
          else begin
            t.pc <- next;
            fetch sink addr
          end
      | RBge (r1, r2, l) ->
          t.branches <- t.branches + 1;
          let cond = regs.(r1) >= regs.(r2) in
          if cond then begin
            t.taken <- t.taken + 1;
            t.pc <- l;
            fetch sink addr;
            add_cycles sink sink.branch_taken
          end
          else begin
            t.pc <- next;
            fetch sink addr
          end
      | RBeq (r1, r2, l) ->
          t.branches <- t.branches + 1;
          let cond = regs.(r1) = regs.(r2) in
          if cond then begin
            t.taken <- t.taken + 1;
            t.pc <- l;
            fetch sink addr;
            add_cycles sink sink.branch_taken
          end
          else begin
            t.pc <- next;
            fetch sink addr
          end
      | RBne (r1, r2, l) ->
          t.branches <- t.branches + 1;
          let cond = regs.(r1) <> regs.(r2) in
          if cond then begin
            t.taken <- t.taken + 1;
            t.pc <- l;
            fetch sink addr;
            add_cycles sink sink.branch_taken
          end
          else begin
            t.pc <- next;
            fetch sink addr
          end
      | RFblt (f1, f2, l) ->
          t.branches <- t.branches + 1;
          let cond = fregs.(f1) < fregs.(f2) in
          if cond then begin
            t.taken <- t.taken + 1;
            t.pc <- l;
            fetch sink addr;
            add_cycles sink sink.branch_taken
          end
          else begin
            t.pc <- next;
            fetch sink addr
          end
      | RFbge (f1, f2, l) ->
          t.branches <- t.branches + 1;
          let cond = fregs.(f1) >= fregs.(f2) in
          if cond then begin
            t.taken <- t.taken + 1;
            t.pc <- l;
            fetch sink addr;
            add_cycles sink sink.branch_taken
          end
          else begin
            t.pc <- next;
            fetch sink addr
          end
      | RJmp l ->
          t.branches <- t.branches + 1;
          t.taken <- t.taken + 1;
          t.pc <- l;
          fetch sink addr;
          add_cycles sink sink.branch_taken
      | RCall l ->
          if t.sp >= max_call_depth then raise (Stack_overflow_ t.name);
          t.call_stack.(t.sp) <- next;
          t.sp <- t.sp + 1;
          t.branches <- t.branches + 1;
          t.taken <- t.taken + 1;
          t.pc <- l;
          fetch sink addr;
          add_cycles sink sink.branch_taken
      | RRet ->
          t.branches <- t.branches + 1;
          t.taken <- t.taken + 1;
          (if t.sp = 0 then t.running <- false
           else begin
             t.sp <- t.sp - 1;
             t.pc <- t.call_stack.(t.sp)
           end);
          fetch sink addr;
          add_cycles sink sink.branch_taken
      | RNop ->
          t.pc <- next;
          fetch sink addr
      | RHalt ->
          t.running <- false;
          fetch sink addr

    (* The Runaway bound moves out of the inner loop: execute in blocks of
       at most [block] instructions, re-checking the remaining budget only
       at block boundaries.  The raise fires at exactly the instruction
       {!step}'s per-instruction check fires on (budget exhausted while
       still running). *)
    let block = 4096

    let run t ~sink =
      while t.running do
        let budget = t.max_instructions - t.retired in
        if budget <= 0 then raise (Runaway t.name);
        let n = ref (if budget < block then budget else block) in
        while t.running && !n > 0 do
          exec_one t sink;
          decr n
        done
      done;
      stats t

    (* Supervised variant for fault-injected runs: [post] fires after every
       retired instruction (watchdog, SEU injection). *)
    let run_supervised t ~sink ~post =
      while t.running do
        let budget = t.max_instructions - t.retired in
        if budget <= 0 then raise (Runaway t.name);
        let n = ref (if budget < block then budget else block) in
        while t.running && !n > 0 do
          exec_one t sink;
          post ();
          decr n
        done
      done;
      stats t

    let finished t = not t.running

    let step t ~sink =
      if t.running then begin
        if t.retired >= t.max_instructions then raise (Runaway t.name);
        exec_one t sink
      end

    (* Re-arm a runner at [pc] with fresh architectural state: how a
       scheduler releases a new job of a task on the task's own runner. *)
    let restart t ~pc ~regs =
      if pc < 0 || pc >= Array.length t.code then
        invalid_arg "Runner.restart: pc out of range";
      reset t;
      t.pc <- pc;
      List.iter
        (fun (r, v) ->
          if r < 0 || r >= Instr.register_count then
            invalid_arg "Runner.restart: register out of range";
          t.regs.(r) <- v)
        regs

    (* FNV-style fold of the taken/not-taken sequence: the sink never sees
       a not-taken branch, so step without timing and read the branch
       counters around each instruction. *)
    let path_signature t =
      let sink = no_timing () in
      let h = ref 0 in
      while t.running do
        let branches = t.branches and taken = t.taken in
        step t ~sink;
        if t.branches <> branches then
          h := ((!h * 16777619) lxor if t.taken <> taken then 1 else 2) land max_int
      done;
      !h
  end
end

let runner ?max_instructions ~program ~layout ~memory () =
  Decoded.Runner.create ?max_instructions ~decoded:(Decoded.decode ~program ~layout) ~memory ()

let run ?max_instructions ~program ~layout ~memory () =
  Decoded.Runner.run (runner ?max_instructions ~program ~layout ~memory ()) ~sink:(no_timing ())

let path_signature ?max_instructions ~program ~layout ~memory () =
  Decoded.Runner.path_signature (runner ?max_instructions ~program ~layout ~memory ())
