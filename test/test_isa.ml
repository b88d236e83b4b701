(* Tests for repro_isa: program validation, layout placement, memory,
   builder loops, executor semantics (arithmetic, control flow, calls,
   loads/stores, timing events), stepping and restarting runners, path
   signatures and runaway protection. *)

module I = Repro_isa.Instr
module Program = Repro_isa.Program
module Layout = Repro_isa.Layout
module Memory = Repro_isa.Memory
module Builder = Repro_isa.Builder
module Executor = Repro_isa.Executor

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-12)
let qtest = QCheck_alcotest.to_alcotest

let run_quiet ?max_instructions program memory =
  let layout = Layout.sequential program in
  Executor.run ?max_instructions ~program ~layout ~memory ()

(* ------------------------------------------------------------------ *)
(* Program validation *)

let simple_program code =
  Program.create ~name:"t" ~code:(Array.of_list code) ~labels:[ ("main", 0) ]
    ~data:[ { Program.symbol = "d"; elements = 8 } ]
    ~entry:"main"

let test_program_valid () =
  let p = simple_program [ I.Li (0, 1); I.Halt ] in
  checki "length" 2 (Program.length p);
  checki "label" 0 (Program.label_index p "main")

let test_program_rejects_bad_label () =
  checkb "undefined branch target" true
    (try
       ignore (simple_program [ I.Jmp "nowhere"; I.Halt ]);
       false
     with Invalid_argument _ -> true)

let test_program_rejects_bad_register () =
  checkb "register out of range" true
    (try
       ignore (simple_program [ I.Li (16, 1); I.Halt ]);
       false
     with Invalid_argument _ -> true)

let test_program_rejects_bad_symbol () =
  checkb "undefined data symbol" true
    (try
       ignore (simple_program [ I.Fld (0, { I.base = "nope"; index_reg = None; offset = 0 }) ]);
       false
     with Invalid_argument _ -> true)

let test_program_rejects_duplicate_label () =
  checkb "duplicate label" true
    (try
       ignore
         (Program.create ~name:"t" ~code:[| I.Halt |] ~labels:[ ("a", 0); ("a", 0) ]
            ~data:[] ~entry:"a");
       false
     with Invalid_argument _ -> true)

let test_program_rejects_unknown_entry () =
  checkb "unknown entry" true
    (try
       ignore (Program.create ~name:"t" ~code:[| I.Halt |] ~labels:[] ~data:[] ~entry:"main");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Layout *)

let layout_program =
  Program.create ~name:"lay" ~code:[| I.Halt |] ~labels:[ ("main", 0) ]
    ~data:
      [
        { Program.symbol = "a"; elements = 4 };
        { Program.symbol = "b"; elements = 2 };
      ]
    ~entry:"main"

let test_layout_sequential () =
  let l = Layout.sequential ~code_base:0x1000 ~data_base:0x2000 layout_program in
  checki "code addr" 0x1000 (Layout.code_address l 0);
  checki "code addr 3" (0x1000 + 12) (Layout.code_address l 3);
  checki "a[0]" 0x2000 (Layout.data_address l ~symbol:"a" ~element:0);
  checki "a[3]" (0x2000 + 24) (Layout.data_address l ~symbol:"a" ~element:3);
  checki "b follows a" (0x2000 + 32) (Layout.data_address l ~symbol:"b" ~element:0)

let test_layout_bounds () =
  let l = Layout.sequential layout_program in
  checkb "oob" true
    (try
       ignore (Layout.data_address l ~symbol:"a" ~element:4);
       false
     with Invalid_argument _ -> true);
  checkb "unknown symbol" true
    (try
       ignore (Layout.data_address l ~symbol:"zz" ~element:0);
       false
     with Not_found -> true)

let test_layout_shifted () =
  let base = Layout.sequential layout_program in
  let moved = Layout.shifted ~offset:64 layout_program in
  checki "shift applied" 64
    (Layout.data_address moved ~symbol:"a" ~element:0
    - Layout.data_address base ~symbol:"a" ~element:0)

let test_layout_scrambled_deterministic () =
  let l1 = Layout.scrambled ~seed:5L layout_program in
  let l2 = Layout.scrambled ~seed:5L layout_program in
  let l3 = Layout.scrambled ~seed:6L layout_program in
  checki "same seed same layout"
    (Layout.data_address l1 ~symbol:"a" ~element:0)
    (Layout.data_address l2 ~symbol:"a" ~element:0);
  checkb "different seed may differ" true
    (Layout.data_address l1 ~symbol:"a" ~element:0
     <> Layout.data_address l3 ~symbol:"a" ~element:0
    || Layout.code_address l1 0 <> Layout.code_address l3 0)

let test_layout_scrambled_no_overlap =
  qtest
    (QCheck.Test.make ~name:"scrambled symbols never overlap" ~count:100 QCheck.int64
       (fun seed ->
         let l = Layout.scrambled ~seed layout_program in
         let range sym n =
           let lo = Layout.data_address l ~symbol:sym ~element:0 in
           (lo, lo + (n * Layout.element_bytes))
         in
         let a_lo, a_hi = range "a" 4 and b_lo, b_hi = range "b" 2 in
         a_hi <= b_lo || b_hi <= a_lo))

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_basics () =
  let m = Memory.create layout_program in
  checkf "zero init" 0. (Memory.get m "a" 0);
  Memory.set m "a" 2 3.5;
  checkf "set/get" 3.5 (Memory.get m "a" 2);
  Memory.load_array m "b" [| 1.; 2. |];
  checkf "load_array" 2. (Memory.get m "b" 1);
  let snapshot = Memory.read_array m "a" in
  snapshot.(0) <- 99.;
  checkf "read_array copies" 0. (Memory.get m "a" 0);
  let live = Memory.raw m "a" in
  live.(0) <- 7.;
  checkf "raw shares" 7. (Memory.get m "a" 0)

let test_memory_unknown_symbol () =
  let m = Memory.create layout_program in
  checkb "unknown" true
    (try
       ignore (Memory.get m "zzz" 0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Builder *)

let test_builder_counted_loop () =
  (* sum 0..9 into data cell d[0] via f0 *)
  let b = Builder.create ~name:"loop" in
  Builder.declare_data b ~symbol:"d" ~elements:1;
  Builder.label b "main";
  Builder.emit b (I.Fli (0, 0.));
  Builder.counted_loop b ~counter:4 ~from_:0 ~below:10 (fun () ->
      Builder.emit b (I.Icvt (1, 4));
      Builder.emit b (I.Fadd (0, 0, 1)));
  Builder.emit b (I.Fst (0, Builder.at "d"));
  Builder.emit b I.Halt;
  let p = Builder.build b ~entry:"main" in
  let m = Memory.create p in
  let stats = run_quiet p m in
  checkf "sum 0..9" 45. (Memory.get m "d" 0);
  checkb "ran a plausible count" true (stats.Executor.retired > 30)

let test_builder_fresh_labels_unique () =
  let b = Builder.create ~name:"fresh" in
  let l1 = Builder.fresh_label b "x" in
  let l2 = Builder.fresh_label b "x" in
  checkb "unique" true (l1 <> l2)

let test_builder_duplicate_label () =
  let b = Builder.create ~name:"dup" in
  Builder.label b "a";
  checkb "duplicate rejected" true
    (try
       Builder.label b "a";
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Executor semantics *)

let build_and_run ?(data = [ ("d", 16) ]) emit =
  let b = Builder.create ~name:"prog" in
  List.iter (fun (symbol, elements) -> Builder.declare_data b ~symbol ~elements) data;
  Builder.label b "main";
  emit b;
  Builder.emit b I.Halt;
  let p = Builder.build b ~entry:"main" in
  let m = Memory.create p in
  let stats = run_quiet p m in
  (p, m, stats)

let test_integer_arithmetic () =
  let _, m, _ =
    build_and_run (fun b ->
        Builder.emit b (I.Li (1, 7));
        Builder.emit b (I.Li (2, 5));
        Builder.emit b (I.Add (3, 1, 2));
        Builder.emit b (I.Sub (4, 1, 2));
        Builder.emit b (I.Mul (5, 1, 2));
        Builder.emit b (I.Addi (6, 1, -3));
        Builder.emit b (I.Icvt (0, 3));
        Builder.emit b (I.Fst (0, Builder.at ~offset:0 "d"));
        Builder.emit b (I.Icvt (0, 4));
        Builder.emit b (I.Fst (0, Builder.at ~offset:1 "d"));
        Builder.emit b (I.Icvt (0, 5));
        Builder.emit b (I.Fst (0, Builder.at ~offset:2 "d"));
        Builder.emit b (I.Icvt (0, 6));
        Builder.emit b (I.Fst (0, Builder.at ~offset:3 "d")))
  in
  checkf "add" 12. (Memory.get m "d" 0);
  checkf "sub" 2. (Memory.get m "d" 1);
  checkf "mul" 35. (Memory.get m "d" 2);
  checkf "addi" 4. (Memory.get m "d" 3)

let test_float_arithmetic () =
  let _, m, _ =
    build_and_run (fun b ->
        Builder.emit b (I.Fli (1, 9.));
        Builder.emit b (I.Fli (2, 4.));
        Builder.emit b (I.Fadd (3, 1, 2));
        Builder.emit b (I.Fst (3, Builder.at ~offset:0 "d"));
        Builder.emit b (I.Fsub (3, 1, 2));
        Builder.emit b (I.Fst (3, Builder.at ~offset:1 "d"));
        Builder.emit b (I.Fmul (3, 1, 2));
        Builder.emit b (I.Fst (3, Builder.at ~offset:2 "d"));
        Builder.emit b (I.Fdiv (3, 1, 2));
        Builder.emit b (I.Fst (3, Builder.at ~offset:3 "d"));
        Builder.emit b (I.Fsqrt (3, 1));
        Builder.emit b (I.Fst (3, Builder.at ~offset:4 "d"));
        Builder.emit b (I.Fli (4, -2.5));
        Builder.emit b (I.Fabs (3, 4));
        Builder.emit b (I.Fst (3, Builder.at ~offset:5 "d"));
        Builder.emit b (I.Fmov (3, 4));
        Builder.emit b (I.Fst (3, Builder.at ~offset:6 "d")))
  in
  checkf "fadd" 13. (Memory.get m "d" 0);
  checkf "fsub" 5. (Memory.get m "d" 1);
  checkf "fmul" 36. (Memory.get m "d" 2);
  checkf "fdiv" 2.25 (Memory.get m "d" 3);
  checkf "fsqrt" 3. (Memory.get m "d" 4);
  checkf "fabs" 2.5 (Memory.get m "d" 5);
  checkf "fmov" (-2.5) (Memory.get m "d" 6)

let test_conversions () =
  let _, m, _ =
    build_and_run (fun b ->
        Builder.emit b (I.Fli (0, 3.9));
        Builder.emit b (I.Fcvt (1, 0));
        (* truncation: 3 *)
        Builder.emit b (I.Icvt (2, 1));
        Builder.emit b (I.Fst (2, Builder.at "d")))
  in
  checkf "fcvt truncates" 3. (Memory.get m "d" 0)

let test_branches () =
  let _, m, _ =
    build_and_run (fun b ->
        (* d[0] = (3 < 5) ? 1 : 2 via blt *)
        Builder.emit b (I.Li (1, 3));
        Builder.emit b (I.Li (2, 5));
        Builder.emit b (I.Blt (1, 2, "taken"));
        Builder.emit b (I.Fli (0, 2.));
        Builder.emit b (I.Jmp "store");
        Builder.label b "taken";
        Builder.emit b (I.Fli (0, 1.));
        Builder.label b "store";
        Builder.emit b (I.Fst (0, Builder.at "d")))
  in
  checkf "blt taken" 1. (Memory.get m "d" 0)

let test_float_branches () =
  let _, m, _ =
    build_and_run (fun b ->
        Builder.emit b (I.Fli (1, 2.));
        Builder.emit b (I.Fli (2, 2.));
        (* fbge on equality must be taken *)
        Builder.emit b (I.Fbge (1, 2, "ge"));
        Builder.emit b (I.Fli (0, 0.));
        Builder.emit b (I.Jmp "store");
        Builder.label b "ge";
        Builder.emit b (I.Fli (0, 1.));
        Builder.label b "store";
        Builder.emit b (I.Fst (0, Builder.at "d")))
  in
  checkf "fbge equality" 1. (Memory.get m "d" 0)

let test_call_ret () =
  let _, m, _ =
    build_and_run (fun b ->
        Builder.emit b (I.Call "sub1");
        Builder.emit b (I.Call "sub1");
        Builder.emit b (I.Fst (0, Builder.at "d"));
        Builder.emit b (I.Jmp "end");
        Builder.label b "sub1";
        Builder.emit b (I.Fli (1, 1.));
        Builder.emit b (I.Fadd (0, 0, 1));
        Builder.emit b I.Ret;
        Builder.label b "end")
  in
  checkf "two calls" 2. (Memory.get m "d" 0)

let test_indexed_addressing () =
  let _, m, _ =
    build_and_run (fun b ->
        (* d[i] = i for i in 0..7 *)
        Builder.counted_loop b ~counter:4 ~from_:0 ~below:8 (fun () ->
            Builder.emit b (I.Icvt (0, 4));
            Builder.emit b (I.Fst (0, Builder.at ~index_reg:4 "d"))))
  in
  for i = 0 to 7 do
    checkf (Printf.sprintf "d[%d]" i) (float_of_int i) (Memory.get m "d" i)
  done

let test_out_of_bounds_access () =
  checkb "oob raises" true
    (try
       ignore
         (build_and_run (fun b ->
              Builder.emit b (I.Li (4, 100));
              Builder.emit b (I.Fld (0, Builder.at ~index_reg:4 "d"))));
       false
     with Invalid_argument _ -> true)

let test_runaway_guard () =
  checkb "infinite loop stopped" true
    (try
       let b = Builder.create ~name:"spin" in
       Builder.label b "main";
       Builder.emit b (I.Jmp "main");
       let p = Builder.build b ~entry:"main" in
       ignore (run_quiet ~max_instructions:1000 p (Memory.create p));
       false
     with Executor.Runaway _ -> true)

let test_stack_overflow_guard () =
  checkb "unbounded recursion stopped" true
    (try
       let b = Builder.create ~name:"rec" in
       Builder.label b "main";
       Builder.emit b (I.Call "main");
       let p = Builder.build b ~entry:"main" in
       ignore (run_quiet p (Memory.create p));
       false
     with Executor.Stack_overflow_ _ -> true)

let test_ret_at_top_level_halts () =
  let b = Builder.create ~name:"ret" in
  Builder.label b "main";
  Builder.emit b (I.Li (0, 1));
  Builder.emit b I.Ret;
  let p = Builder.build b ~entry:"main" in
  let stats = run_quiet p (Memory.create p) in
  checki "two instructions" 2 stats.Executor.retired

let test_stats_counters () =
  let _, _, stats =
    build_and_run (fun b ->
        Builder.emit b (I.Fld (0, Builder.at "d"));
        Builder.emit b (I.Fst (0, Builder.at ~offset:1 "d"));
        Builder.emit b (I.Fli (1, 2.));
        Builder.emit b (I.Fdiv (0, 0, 1));
        Builder.emit b (I.Fsqrt (0, 1));
        Builder.emit b (I.Li (2, 0));
        Builder.emit b (I.Li (3, 1));
        Builder.emit b (I.Blt (2, 3, "t"));
        Builder.label b "t")
  in
  checki "loads" 1 stats.Executor.loads;
  checki "stores" 1 stats.Executor.stores;
  checki "fp long" 2 stats.Executor.fp_long_ops;
  checkb "branches counted" true (stats.Executor.branches >= 1);
  checkb "taken counted" true (stats.Executor.taken_branches >= 1)

type event = Fetch of int | Read of int | Write of int | Other

let test_retire_stream_matches () =
  (* the timing sink sees one fetch per instruction, then the right work
     events in order *)
  let b = Builder.create ~name:"stream" in
  Builder.declare_data b ~symbol:"d" ~elements:2;
  Builder.label b "main";
  Builder.emit b (I.Li (0, 1));
  Builder.emit b (I.Fld (1, Builder.at "d"));
  Builder.emit b (I.Fst (1, Builder.at ~offset:1 "d"));
  Builder.emit b I.Halt;
  let p = Builder.build b ~entry:"main" in
  let layout = Layout.sequential p in
  let events = ref [] in
  let record e = events := e :: !events in
  (* [on_fetch] never arms [fetch_line], so no fetch folds *)
  let sink =
    {
      (Executor.no_timing ()) with
      Executor.on_fetch = (fun a -> record (Fetch a));
      on_read = (fun a -> record (Read a));
      on_write = (fun a -> record (Write a));
      on_fp_long = (fun _ _ _ _ -> record Other);
    }
  in
  let decoded = Executor.Decoded.decode ~program:p ~layout in
  let runner = Executor.Decoded.Runner.create ~decoded ~memory:(Memory.create p) () in
  ignore (Executor.Decoded.Runner.run runner ~sink);
  let fetch pc = Fetch (Layout.code_address layout pc) in
  match List.rev !events with
  | [ f0; f1; Read a; f2; Write b'; f3 ] ->
      checkb "one fetch per instruction, in order" true
        (f0 = fetch 0 && f1 = fetch 1 && f2 = fetch 2 && f3 = fetch 3);
      checki "read addr"
        (Layout.data_address layout ~symbol:"d" ~element:0)
        a;
      checki "write addr" (Layout.data_address layout ~symbol:"d" ~element:1) b'
  | _ -> Alcotest.fail "unexpected event stream"

let test_same_line_fetches_fold () =
  (* a sink that arms [fetch_line] on every [on_fetch]: a straight-line
     program over two 32-byte IL1 lines calls [on_fetch] once per line, and
     the runner adds every other fetch and every fixed cost to the clock *)
  let b = Builder.create ~name:"fold" in
  Builder.label b "main";
  Builder.emit b (I.Li (0, 3));
  Builder.emit b (I.Li (1, 4));
  Builder.emit b (I.Mul (2, 0, 1));
  Builder.emit b (I.Fli (0, 1.5));
  Builder.emit b (I.Fadd (1, 0, 0));
  Builder.emit b (I.Fmul (2, 1, 0));
  Builder.emit b (I.Jmp "next");
  Builder.label b "next";
  Builder.emit b (I.Fsub (3, 2, 1));
  Builder.emit b (I.Fabs (4, 3));
  Builder.emit b (I.Fmov (5, 4));
  Builder.emit b (I.Add (3, 2, 2));
  Builder.emit b (I.Blt (3, 0, "main"));
  Builder.emit b (I.Mul (4, 3, 3));
  Builder.emit b I.Nop;
  Builder.emit b I.Halt;
  let p = Builder.build b ~entry:"main" in
  let layout = Layout.sequential p in
  let n = Program.length p in
  let line pc = Layout.code_address layout pc lsr 5 in
  checki "the program spans two lines" 2 (line (n - 1) - line 0 + 1);
  let fetched = ref [] in
  let rec sink =
    {
      Executor.on_fetch =
        (fun a ->
          fetched := a :: !fetched;
          sink.Executor.fetch_line <- a lsr 5);
      on_read = ignore;
      on_write = ignore;
      on_fp_long = (fun _ _ _ _ -> ());
      fp_short = 3;
      int_mul = 5;
      branch_taken = 7;
      same_line = 2;
      line_shift = 5;
      cycles = 0;
      fetch_line = -1;
      pending_line_hits = 0;
    }
  in
  let runner =
    Executor.Decoded.Runner.create ~decoded:(Executor.Decoded.decode ~program:p ~layout)
      ~memory:(Memory.create p) ()
  in
  let stats = Executor.Decoded.Runner.run runner ~sink in
  checki "every instruction retired" n stats.Executor.retired;
  checkb "one on_fetch per line, at its first instruction" true
    (List.rev !fetched
    = List.filter_map
        (fun pc ->
          if pc = 0 || line pc <> line (pc - 1) then Some (Layout.code_address layout pc)
          else None)
        (List.init n Fun.id));
  checki "the other fetches are pending" (n - 2) sink.Executor.pending_line_hits;
  (* 2 MUL, 5 FADD/FMUL class, 1 taken jump (the BLT falls through) *)
  checki "clock = folded fetches + fixed costs"
    ((2 * (n - 2)) + (2 * 5) + (5 * 3) + 7)
    sink.Executor.cycles

let test_layout_independence_of_semantics =
  (* results do not depend on the layout, only timing would *)
  qtest
    (QCheck.Test.make ~name:"semantics layout-independent" ~count:50 QCheck.int64
       (fun seed ->
         let b = Builder.create ~name:"sem" in
         Builder.declare_data b ~symbol:"d" ~elements:4;
         Builder.label b "main";
         Builder.emit b (I.Fli (0, 2.));
         Builder.emit b (I.Fli (1, 3.));
         Builder.emit b (I.Fmul (2, 0, 1));
         Builder.emit b (I.Fst (2, Builder.at "d"));
         Builder.emit b I.Halt;
         let p = Builder.build b ~entry:"main" in
         let run layout =
           let m = Memory.create p in
           ignore (Executor.run ~program:p ~layout ~memory:m ());
           Memory.get m "d" 0
         in
         run (Layout.sequential p) = run (Layout.scrambled ~seed p)))

let test_path_signature_distinguishes () =
  let program_with_branch () =
    let b = Builder.create ~name:"sig" in
    Builder.declare_data b ~symbol:"d" ~elements:1;
    Builder.label b "main";
    Builder.emit b (I.Fld (0, Builder.at "d"));
    Builder.emit b (I.Fli (1, 0.5));
    Builder.emit b (I.Fblt (0, 1, "low"));
    Builder.emit b (I.Fli (2, 2.));
    Builder.emit b (I.Jmp "end");
    Builder.label b "low";
    Builder.emit b (I.Fli (2, 1.));
    Builder.label b "end";
    Builder.emit b I.Halt;
    Builder.build b ~entry:"main"
  in
  let p = program_with_branch () in
  let layout = Layout.sequential p in
  let signature v =
    let m = Memory.create p in
    Memory.set m "d" 0 v;
    Executor.path_signature ~program:p ~layout ~memory:m ()
  in
  checkb "different inputs different paths" true (signature 0.1 <> signature 0.9);
  checki "same input same path" (signature 0.1) (signature 0.1)

let test_runner_restart_and_siblings () =
  (* two jobs of one task interleaved one instruction at a time: siblings
     share the linked memory image but not registers, and [restart] enters
     at the task's label with r10 preset *)
  let module Runner = Executor.Decoded.Runner in
  let b = Builder.create ~name:"tasks" in
  Builder.declare_data b ~symbol:"d" ~elements:3;
  Builder.label b "main";
  Builder.emit b I.Halt;
  Builder.label b "task";
  Builder.emit b (I.Icvt (0, 10));
  Builder.emit b (I.Fst (0, Builder.at ~index_reg:10 "d"));
  Builder.emit b I.Halt;
  let p = Builder.build b ~entry:"main" in
  let memory = Memory.create p in
  let linked =
    Runner.create ~decoded:(Executor.Decoded.decode ~program:p ~layout:(Layout.sequential p))
      ~memory ()
  in
  let pc = Program.label_index p "task" in
  let job r10 =
    let r = Runner.sibling linked in
    Runner.restart r ~pc ~regs:[ (10, r10) ];
    r
  in
  let j1 = job 1 and j2 = job 2 in
  while not (Runner.finished j1 && Runner.finished j2) do
    Runner.step j1 ~sink:(Executor.no_timing ());
    Runner.step j2 ~sink:(Executor.no_timing ())
  done;
  checkf "job 1 stored its r10" 1. (Memory.get memory "d" 1);
  checkf "job 2 stored its r10" 2. (Memory.get memory "d" 2);
  checki "each job retired its own 3 instructions" 3 (Runner.stats j1).Executor.retired;
  Runner.step j1 ~sink:(Executor.no_timing ());
  checki "step after finishing is a no-op" 3 (Runner.stats j1).Executor.retired;
  checkb "the template runner never ran" false (Runner.finished linked);
  List.iter
    (fun (what, pc, regs) ->
      checkb what true
        (try
           Runner.restart linked ~pc ~regs;
           false
         with Invalid_argument _ -> true))
    [
      ("restart rejects a pc past the code", Program.length p, []);
      ("restart rejects a negative pc", -1, []);
      ("restart rejects an out-of-range register", pc, [ (I.register_count, 0) ]);
    ]

(* ------------------------------------------------------------------ *)
(* Differential testing: random straight-line programs are executed both
   by the Executor and by an independent reference evaluator written
   directly over the instruction list; results must agree bitwise. *)

type ref_state = {
  r : int array;
  f : float array;
  mem : (string, float array) Hashtbl.t;
}

let reference_eval program memory =
  let st =
    {
      r = Array.make I.register_count 0;
      f = Array.make I.register_count 0.;
      mem = Hashtbl.create 4;
    }
  in
  List.iter
    (fun d ->
      Hashtbl.replace st.mem d.Program.symbol
        (Memory.read_array memory d.Program.symbol))
    (Program.data program);
  let addr_index (a : I.addressing) =
    (match a.I.index_reg with Some reg -> st.r.(reg) | None -> 0) + a.I.offset
  in
  Array.iter
    (fun instr ->
      match instr with
      | I.Li (rd, v) -> st.r.(rd) <- v
      | I.Add (rd, a, b) -> st.r.(rd) <- st.r.(a) + st.r.(b)
      | I.Addi (rd, a, v) -> st.r.(rd) <- st.r.(a) + v
      | I.Sub (rd, a, b) -> st.r.(rd) <- st.r.(a) - st.r.(b)
      | I.Mul (rd, a, b) -> st.r.(rd) <- st.r.(a) * st.r.(b)
      | I.Fli (fd, v) -> st.f.(fd) <- v
      | I.Fld (fd, a) -> st.f.(fd) <- (Hashtbl.find st.mem a.I.base).(addr_index a)
      | I.Fst (fs, a) -> (Hashtbl.find st.mem a.I.base).(addr_index a) <- st.f.(fs)
      | I.Fadd (fd, a, b) -> st.f.(fd) <- st.f.(a) +. st.f.(b)
      | I.Fsub (fd, a, b) -> st.f.(fd) <- st.f.(a) -. st.f.(b)
      | I.Fmul (fd, a, b) -> st.f.(fd) <- st.f.(a) *. st.f.(b)
      | I.Fdiv (fd, a, b) -> st.f.(fd) <- st.f.(a) /. st.f.(b)
      | I.Fsqrt (fd, a) -> st.f.(fd) <- sqrt st.f.(a)
      | I.Fabs (fd, a) -> st.f.(fd) <- Float.abs st.f.(a)
      | I.Fmov (fd, a) -> st.f.(fd) <- st.f.(a)
      | I.Fcvt (rd, a) -> st.r.(rd) <- int_of_float st.f.(a)
      | I.Icvt (fd, a) -> st.f.(fd) <- float_of_int st.r.(a)
      | I.Blt _ | I.Bge _ | I.Beq _ | I.Bne _ | I.Fblt _ | I.Fbge _ | I.Jmp _
      | I.Call _ | I.Ret | I.Nop | I.Halt ->
          ())
    (Program.code program);
  st.mem

(* QCheck generator of straight-line instructions over 4 registers and one
   8-element data symbol. *)
let arbitrary_instruction =
  let open QCheck.Gen in
  let reg = int_range 0 3 in
  let idx = int_range 0 7 in
  let fval = map (fun i -> float_of_int i /. 4.) (int_range (-40) 40) in
  frequency
    [
      (2, map2 (fun r v -> I.Li (r, v)) reg (int_range (-100) 100));
      (2, map3 (fun a b c -> I.Add (a, b, c)) reg reg reg);
      (1, map3 (fun a b c -> I.Sub (a, b, c)) reg reg reg);
      (1, map3 (fun a b c -> I.Mul (a, b, c)) reg reg reg);
      (2, map2 (fun r v -> I.Fli (r, v)) reg fval);
      (2, map2 (fun r i -> I.Fld (r, { I.base = "data"; index_reg = None; offset = i })) reg idx);
      (2, map2 (fun r i -> I.Fst (r, { I.base = "data"; index_reg = None; offset = i })) reg idx);
      (2, map3 (fun a b c -> I.Fadd (a, b, c)) reg reg reg);
      (1, map3 (fun a b c -> I.Fsub (a, b, c)) reg reg reg);
      (1, map3 (fun a b c -> I.Fmul (a, b, c)) reg reg reg);
      (1, map2 (fun a b -> I.Fabs (a, b)) reg reg);
      (1, map2 (fun a b -> I.Fmov (a, b)) reg reg);
      (1, map2 (fun a b -> I.Icvt (a, b)) reg reg);
    ]

let test_differential_straight_line =
  qtest
    (QCheck.Test.make ~name:"executor agrees with reference evaluator" ~count:300
       QCheck.(
         make
           Gen.(list_size (int_range 1 60) arbitrary_instruction))
       (fun instructions ->
         let code = Array.of_list (instructions @ [ I.Halt ]) in
         let program =
           Program.create ~name:"diff" ~code ~labels:[ ("main", 0) ]
             ~data:[ { Program.symbol = "data"; elements = 8 } ]
             ~entry:"main"
         in
         let memory = Memory.create program in
         (* nonzero initial data so loads matter *)
         Memory.load_array memory "data" [| 1.; -2.; 3.5; 0.25; -7.; 8.; 0.; 42. |];
         let expected = reference_eval program memory in
         ignore
           (Executor.run ~program ~layout:(Layout.sequential program) ~memory ());
         let got = Memory.read_array memory "data" in
         let want = Hashtbl.find expected "data" in
         (* bitwise comparison (covers NaN) *)
         Array.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           got want))

let () =
  Alcotest.run "repro_isa"
    [
      ( "program",
        [
          Alcotest.test_case "valid" `Quick test_program_valid;
          Alcotest.test_case "rejects bad label" `Quick test_program_rejects_bad_label;
          Alcotest.test_case "rejects bad register" `Quick test_program_rejects_bad_register;
          Alcotest.test_case "rejects bad symbol" `Quick test_program_rejects_bad_symbol;
          Alcotest.test_case "rejects duplicate label" `Quick
            test_program_rejects_duplicate_label;
          Alcotest.test_case "rejects unknown entry" `Quick test_program_rejects_unknown_entry;
        ] );
      ( "layout",
        [
          Alcotest.test_case "sequential" `Quick test_layout_sequential;
          Alcotest.test_case "bounds" `Quick test_layout_bounds;
          Alcotest.test_case "shifted" `Quick test_layout_shifted;
          Alcotest.test_case "scrambled deterministic" `Quick
            test_layout_scrambled_deterministic;
          test_layout_scrambled_no_overlap;
        ] );
      ( "memory",
        [
          Alcotest.test_case "basics" `Quick test_memory_basics;
          Alcotest.test_case "unknown symbol" `Quick test_memory_unknown_symbol;
        ] );
      ( "builder",
        [
          Alcotest.test_case "counted loop" `Quick test_builder_counted_loop;
          Alcotest.test_case "fresh labels" `Quick test_builder_fresh_labels_unique;
          Alcotest.test_case "duplicate label" `Quick test_builder_duplicate_label;
        ] );
      ( "executor",
        [
          Alcotest.test_case "integer arithmetic" `Quick test_integer_arithmetic;
          Alcotest.test_case "float arithmetic" `Quick test_float_arithmetic;
          Alcotest.test_case "conversions" `Quick test_conversions;
          Alcotest.test_case "branches" `Quick test_branches;
          Alcotest.test_case "float branches" `Quick test_float_branches;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
          Alcotest.test_case "indexed addressing" `Quick test_indexed_addressing;
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds_access;
          Alcotest.test_case "runaway guard" `Quick test_runaway_guard;
          Alcotest.test_case "stack overflow guard" `Quick test_stack_overflow_guard;
          Alcotest.test_case "ret at top level" `Quick test_ret_at_top_level_halts;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "retire stream" `Quick test_retire_stream_matches;
          Alcotest.test_case "same-line fetches fold" `Quick test_same_line_fetches_fold;
          test_layout_independence_of_semantics;
          Alcotest.test_case "path signature" `Quick test_path_signature_distinguishes;
          Alcotest.test_case "runner restart and siblings" `Quick
            test_runner_restart_and_siblings;
          test_differential_straight_line;
        ] );
    ]
