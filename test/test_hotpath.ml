(* The one execution engine — pre-decoded runners, batched per-(domain,
   experiment) scratches, O(1) seed skipping — against a committed golden
   fixture.  The contract everywhere is bit identity: not statistically
   close, the same bits, on every kernel, both platform configs, with and
   without fault injection, and through whole campaigns (trace files and
   store records byte-identical) at any job count. *)

module P = Repro_platform
module T = Repro_tvca
module M = Repro_mbpta
module Isa = Repro_isa
module K = Repro_workloads.Kernels
module Prng = Repro_rng.Prng

let checkb what = Alcotest.(check bool) what
let checks what = Alcotest.(check string) what

let pp_metrics (m : P.Metrics.t) =
  Printf.sprintf
    "c=%d i=%d il1=%d/%d dl1=%d/%d itlb=%d dtlb=%d bus=%d dram=%d/%d fp=%d tb=%d f=%d"
    m.cycles m.instructions m.il1_hits m.il1_misses m.dl1_hits m.dl1_misses
    m.itlb_misses m.dtlb_misses m.bus_transactions m.dram_row_hits m.dram_row_misses
    m.fp_long_ops m.taken_branches m.faults_injected

let experiments () =
  ( T.Experiment.create ~frames:4 ~config:P.Config.deterministic ~base_seed:2017L (),
    T.Experiment.create ~frames:4 ~config:P.Config.mbpta_compliant ~base_seed:2017L () )

let pp_outcome = Format.asprintf "%a" T.Experiment.pp_fault_outcome

(* ------------------------------------------------------------------ *)
(* Whole campaigns: the batched measurement closures must leave
   byte-identical trace files and store records at jobs 1 and 4 (four
   domains interleave runs on their own scratches) *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let campaign_runs = 140

let campaign_artifacts ~jobs =
  let det, rand = experiments () in
  let measure exp i = T.Experiment.measure exp ~run_index:i in
  let input =
    {
      (M.Campaign.default_input ~measure_det:(measure det) ~measure_rand:(measure rand))
      with
      M.Campaign.runs = campaign_runs;
      M.Campaign.options =
        {
          M.Protocol.default_options with
          M.Protocol.check_convergence = false;
          M.Protocol.gate_on_iid = false;
        };
    }
  in
  let dir = Filename.temp_file "hotpath_store" "" in
  Sys.remove dir;
  let trace_path = Filename.temp_file "hotpath_trace" ".jsonl" in
  Sys.remove trace_path;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.remove trace_path with Sys_error _ -> ())
  @@ fun () ->
  let config = [ ("test", "hotpath"); ("runs", string_of_int campaign_runs) ] in
  let key = M.Store.key ~chunk_size:32 config in
  let session =
    match
      M.Store.open_session ~chunk_size:32 (M.Store.open_root ~dir) ~key ~config
        ~runs:campaign_runs ~resilient:false
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "open_session: %s" e
  in
  let trace = M.Trace.create ~path:trace_path () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        M.Trace.close trace;
        M.Store.close session)
      (fun () -> M.Campaign.run ~jobs ~trace ~store:session input)
  in
  let samples =
    match result with
    | Ok c -> (c.M.Campaign.det_sample, c.M.Campaign.rand_sample)
    | Error f -> Alcotest.failf "campaign failed: %a" M.Protocol.pp_failure f
  in
  (read_file trace_path, read_file (Filename.concat dir (key ^ ".jsonl")), samples)

let test_campaign_byte_identity () =
  let ref_trace, ref_record, ref_samples = campaign_artifacts ~jobs:1 in
  let trace, record, samples = campaign_artifacts ~jobs:4 in
  checkb "jobs=4: samples" true (samples = ref_samples);
  checks "jobs=4: trace file" ref_trace trace;
  checks "jobs=4: store record" ref_record record

(* ------------------------------------------------------------------ *)
(* The committed golden fixture: one transcript of everything the engine
   measures, recomputed through the public entry points and compared byte
   for byte with test/fixtures/engine_golden.txt.  Every float is printed
   with %h, so the comparison is bit-exact.  On a mismatch the recomputed
   transcript is written next to the test executable in the build tree;
   after a change that legitimately alters an output, regenerate the
   fixture by copying that file over the committed one. *)

let fixture_path = Filename.concat "fixtures" "engine_golden.txt"
let fixture_output = "engine_golden.txt"
let golden_seeds = [ 1L; 2L; 3L ]
let golden_fault = T.Experiment.fault_config ~seu_rate:120.0 ~watchdog_budget:140_000 ()

(* Platform variants the two reference configs cannot see: a 512 B 2-way
   IL1 (conventional and randomized) behind a 2-entry ITLB on 64 B pages,
   pages smaller than an IL1 line, a page size that is not a power of two
   (a code line straddles a page boundary), and three bus contenders. *)
let variant_platforms =
  let rand = P.Config.mbpta_compliant in
  let small_il1 placement replacement =
    {
      P.Config.geometry = { P.Config.size_bytes = 512; line_bytes = 32; ways = 2 };
      placement;
      replacement;
    }
  in
  let tiny_itlb ?(il1 = rand.P.Config.il1) page_bytes =
    { rand with P.Config.il1; itlb_entries = 2; page_bytes }
  in
  [
    ("il1-512-modulo-lru", tiny_itlb ~il1:(small_il1 P.Config.Modulo P.Config.Lru) 64, []);
    ( "il1-512-hash-rr",
      tiny_itlb ~il1:(small_il1 P.Config.Hash_random P.Config.Round_robin) 64,
      [] );
    ("page-16", tiny_itlb 16, []);
    ("page-3000", tiny_itlb 3000, []);
    ("contenders-3", rand, [ 0.25; 0.5; 0.75 ]);
  ]

(* A rate at which IL1 and ITLB upsets land between fetches of one line. *)
let dense_seu_rate = 2_000.0
let dense_watchdog = 400_000

(* Offset-jitter schedule configs (period, max jitter, horizon) and how
   many runs each digest line covers: enough that releases land on the
   cycle a running job reaches. *)
let schedule_configs =
  [ (50_000, 2_000, 200_000); (20_000, 5_000, 100_000); (9_000, 1_500, 60_000) ]
let schedule_digest_runs = 300

let golden_transcript () =
  let b = Buffer.create 16_384 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let platforms = [ ("DET", P.Config.deterministic); ("RAND", P.Config.mbpta_compliant) ] in
  line "# Core_sim.run_program: every kernel x DET/RAND x input seed";
  List.iter
    (fun (k : K.t) ->
      let layout = Isa.Layout.sequential k.K.program in
      List.iter
        (fun (pname, config) ->
          List.iter
            (fun seed ->
              let memory = Isa.Memory.create k.K.program in
              k.K.load_input memory (Prng.create seed);
              let core = P.Core_sim.create ~config ~seed:(Int64.add 1000L seed) () in
              let m = P.Core_sim.run_program core ~program:k.K.program ~layout ~memory in
              let ok = match k.K.check memory with Ok () -> "ok" | Error e -> e in
              line "kernel %s %s seed %Ld: %s %s" k.K.name pname seed (pp_metrics m) ok)
            golden_seeds)
        platforms)
    (K.all ());
  line "# Executor.path_signature: every kernel x input seed";
  List.iter
    (fun (k : K.t) ->
      List.iter
        (fun seed ->
          let memory = Isa.Memory.create k.K.program in
          k.K.load_input memory (Prng.create seed);
          line "path %s seed %Ld: %d" k.K.name seed
            (Isa.Executor.path_signature ~program:k.K.program
               ~layout:(Isa.Layout.sequential k.K.program)
               ~memory ()))
        golden_seeds)
    (K.all ());
  let det, rand = experiments () in
  let exps = [ ("DET", det); ("RAND", rand) ] in
  line "# Experiment.run (frames 4, base seed 2017)";
  List.iter
    (fun (pname, exp) ->
      for i = 0 to 7 do
        line "run %s %d: %s" pname i (pp_metrics (T.Experiment.run exp ~run_index:i))
      done)
    exps;
  line "# Experiment.run_faulty (RAND, SEU 120 per 10^6 instructions, watchdog 140000)";
  for i = 0 to 11 do
    for attempt = 0 to 1 do
      let o = T.Experiment.run_faulty rand ~fault:golden_fault ~attempt ~run_index:i () in
      let metrics =
        match o with
        | T.Experiment.Completed { metrics; _ } -> " " ^ pp_metrics metrics
        | _ -> ""
      in
      line "faulty %d attempt %d: %s%s" i attempt (pp_outcome o) metrics;
      List.iter
        (fun r -> line "  %s" (Format.asprintf "%a" P.Fault.pp_record r))
        (T.Experiment.fault_records o)
    done
  done;
  line "# Experiment.run_schedule (RAND, period 50000, jitter 2000, horizon 200000)";
  List.iter
    (fun policy ->
      for i = 0 to 3 do
        let r =
          T.Experiment.run_schedule rand ~policy ~period:50_000 ~max_jitter:2_000
            ~horizon:200_000 ~run_index:i ()
        in
        line "schedule %s %d: worst %h preemptions %d skipped %d [%s]"
          (T.Rtos.policy_name policy) i r.T.Experiment.worst_response r.T.Experiment.preemptions
          r.T.Experiment.skipped_releases r.T.Experiment.signature
      done)
    T.Rtos.all_policies;
  line "# Rtos.run transcript (RAND core seed 11, mission seed 5, period 9000, horizon 60000)";
  (let program = T.Experiment.program rand and layout = T.Experiment.layout rand in
   let memory = Isa.Memory.create program in
   T.Mission.load_memory (T.Mission.generate ~frames:4 ~seed:5L ()) memory;
   let core = P.Core_sim.create ~config:P.Config.mbpta_compliant ~seed:11L () in
   P.Core_sim.reset_run core;
   let tasks =
     T.Rtos.apply_policy T.Rtos.Offset_jitter ~seed:3L ~max_jitter:1_500
       (T.Rtos.tvca_tasks ~period:9_000 ())
   in
   let r =
     T.Rtos.run ~frames:4 ~core ~program ~layout ~memory ~tasks ~horizon:60_000 ()
   in
   line "rtos total %d preemptions %d idle %d" r.T.Rtos.total_cycles r.T.Rtos.preemptions
     r.T.Rtos.idle_cycles;
   List.iter
     (fun (tr : T.Rtos.task_result) ->
       line "task %s prio %d offset %d: activations %d skipped %d responses %s"
         tr.T.Rtos.spec.T.Rtos.name tr.T.Rtos.spec.T.Rtos.priority tr.T.Rtos.spec.T.Rtos.offset
         tr.T.Rtos.activations tr.T.Rtos.skipped_releases
         (String.concat " "
            (Array.to_list (Array.map (Printf.sprintf "%h") tr.T.Rtos.response_times))))
     r.T.Rtos.per_task);
  line "# Experiment.measure_fixed_scenario";
  List.iter
    (fun (pname, exp) ->
      for scenario_index = 0 to 1 do
        for i = 0 to 3 do
          line "fixed %s scenario %d run %d: %h" pname scenario_index i
            (T.Experiment.measure_fixed_scenario exp ~scenario_index ~run_index:i)
        done
      done)
    exps;
  line "# Experiment.check_functional";
  for i = 0 to 5 do
    line "experiment %d: functional %h" i (T.Experiment.check_functional rand ~run_index:i)
  done;
  line "# Core_sim.run_program on platform variants: every kernel x input seed";
  List.iter
    (fun (vname, config, contenders) ->
      List.iter
        (fun (k : K.t) ->
          let layout = Isa.Layout.sequential k.K.program in
          List.iter
            (fun seed ->
              let memory = Isa.Memory.create k.K.program in
              k.K.load_input memory (Prng.create seed);
              let core =
                P.Core_sim.create ~contenders ~config ~seed:(Int64.add 1000L seed) ()
              in
              let m = P.Core_sim.run_program core ~program:k.K.program ~layout ~memory in
              line "variant %s kernel %s seed %Ld: %s" vname k.K.name seed (pp_metrics m))
            golden_seeds)
        (K.all ()))
    variant_platforms;
  line "# Experiment.run on platform variants (frames 4, base seed 2017)";
  List.iter
    (fun (vname, config, contenders) ->
      let exp = T.Experiment.create ~frames:4 ~contenders ~config ~base_seed:2017L () in
      for i = 0 to 3 do
        line "variant %s run %d: %s" vname i (pp_metrics (T.Experiment.run exp ~run_index:i))
      done)
    variant_platforms;
  line
    "# Core_sim.run_decoded_faulty (TVCA frames 4) at SEU %.0f per 10^6 instructions, \
     watchdog %d: outcome, metrics when it ended, fault records"
    dense_seu_rate dense_watchdog;
  (let program = T.Experiment.program rand and layout = T.Experiment.layout rand in
   let decoded = Isa.Executor.Decoded.decode ~program ~layout in
   List.iter
     (fun (pname, config) ->
       for i = 0 to 7 do
         let seed = Int64.of_int (100 + i) in
         let memory = Isa.Memory.create program in
         T.Mission.load_memory (T.Mission.generate ~frames:4 ~seed ()) memory;
         let runner = Isa.Executor.Decoded.Runner.create ~decoded ~memory () in
         let core = P.Core_sim.create ~config ~seed () in
         let injector = P.Fault.create ~rate:dense_seu_rate ~seed in
         let outcome =
           match
             P.Core_sim.run_decoded_faulty core ~injector ~watchdog_budget:dense_watchdog
               ~runner ()
           with
           | _ -> "completed"
           | exception P.Core_sim.Budget_exceeded _ -> "watchdog"
           | exception Isa.Executor.Runaway _ -> "runaway"
           | exception Isa.Executor.Stack_overflow_ _ -> "stack overflow"
           | exception Invalid_argument detail -> "crashed: " ^ detail
         in
         let st = Isa.Executor.Decoded.Runner.stats runner in
         let m =
           P.Core_sim.snapshot core ~instructions:st.Isa.Executor.retired
             ~fp_long_ops:st.Isa.Executor.fp_long_ops
             ~taken_branches:st.Isa.Executor.taken_branches
         in
         let records =
           List.map (Format.asprintf "%a" P.Fault.pp_record) (P.Fault.records injector)
         in
         line "dense %s %d: %s; %s; %d records %s" pname i outcome (pp_metrics m)
           (List.length records)
           (Digest.to_hex (Digest.string (String.concat "\n" records)))
       done)
     (("RAND", P.Config.mbpta_compliant)
     :: List.filter_map
          (fun (vname, config, contenders) ->
            if contenders = [] then Some (vname, config) else None)
          variant_platforms));
  line "# Experiment.run_schedule digests (RAND, Offset_jitter, %d runs each)"
    schedule_digest_runs;
  List.iter
    (fun (period, max_jitter, horizon) ->
      let runs = Buffer.create 65_536 in
      for i = 0 to schedule_digest_runs - 1 do
        let r =
          T.Experiment.run_schedule rand ~policy:T.Rtos.Offset_jitter ~period ~max_jitter
            ~horizon ~run_index:i ()
        in
        Printf.bprintf runs "%h %d %d %s\n" r.T.Experiment.worst_response
          r.T.Experiment.preemptions r.T.Experiment.skipped_releases r.T.Experiment.signature
      done;
      line "schedules period %d jitter %d horizon %d: %s" period max_jitter horizon
        (Digest.to_hex (Digest.string (Buffer.contents runs))))
    schedule_configs;
  Buffer.contents b

let read_fixture () = try Some (read_file fixture_path) with Sys_error _ -> None

let test_golden_fixture () =
  let got = golden_transcript () in
  match read_fixture () with
  | Some want when String.equal want got -> ()
  | want ->
      let oc = open_out_bin fixture_output in
      output_string oc got;
      close_out oc;
      let first_diff =
        match want with
        | None -> "fixture missing"
        | Some want ->
            let rec go i = function
              | w :: ws, g :: gs -> if String.equal w g then go (i + 1) (ws, gs) else (i, w, g)
              | w :: _, [] -> (i, w, "<end>")
              | [], g :: _ -> (i, "<end>", g)
              | [], [] -> (i, "", "")
            in
            let i, w, g =
              go 1 (String.split_on_char '\n' want, String.split_on_char '\n' got)
            in
            Printf.sprintf "line %d: fixture %S, engine %S" i w g
      in
      Alcotest.failf
        "engine transcript differs from %s (%s); the recomputed transcript is in %s — copy \
         it over test/%s if the change is intended"
        fixture_path first_diff
        (Filename.concat (Sys.getcwd ()) fixture_output)
        fixture_path

(* ------------------------------------------------------------------ *)
(* Three drivers, one clock: a runner run to completion, run supervised
   with nothing to supervise, and stepped one instruction at a time through
   [Core_sim.sink] (the RTOS's path) leaves the same metrics, and the same
   clock when the program raises mid-run. *)

module Runner = Isa.Executor.Decoded.Runner

let stepped core runner =
  P.Core_sim.reset_run core;
  let sink = P.Core_sim.sink core in
  while not (Runner.finished runner) do
    Runner.step runner ~sink
  done;
  let st = Runner.stats runner in
  P.Core_sim.snapshot core ~instructions:st.Isa.Executor.retired
    ~fp_long_ops:st.Isa.Executor.fp_long_ops ~taken_branches:st.Isa.Executor.taken_branches

let drivers =
  [
    ("run_decoded", fun core runner -> P.Core_sim.run_decoded core ~runner);
    ("supervised", fun core runner -> P.Core_sim.run_decoded_faulty core ~runner ());
    ("stepped", stepped);
  ]

let driver_platforms =
  ("DET", P.Config.deterministic, [])
  :: ("RAND", P.Config.mbpta_compliant, [])
  :: variant_platforms

(* Each driver on a fresh core, memory image and runner of the same seeds:
   the core, and the run's metrics or the [Invalid_argument] it raised. *)
let drive ~config ~contenders ~seed ~program ~load driver =
  let memory = Isa.Memory.create program in
  load memory;
  let decoded = Isa.Executor.Decoded.decode ~program ~layout:(Isa.Layout.sequential program) in
  let runner = Runner.create ~decoded ~memory () in
  let core = P.Core_sim.create ~contenders ~config ~seed () in
  (core, match driver core runner with m -> Ok m | exception Invalid_argument e -> Error e)

let test_drivers_agree () =
  List.iter
    (fun (pname, config, contenders) ->
      List.iter
        (fun (k : K.t) ->
          List.iter
            (fun seed ->
              let run (dname, driver) =
                match
                  drive ~config ~contenders ~seed:(Int64.add 1000L seed) ~program:k.K.program
                    ~load:(fun m -> k.K.load_input m (Prng.create seed))
                    driver
                with
                | _, Ok m -> pp_metrics m
                | _, Error e -> Alcotest.failf "%s %s: %s raised %s" pname k.K.name dname e
              in
              let want = run (List.hd drivers) in
              List.iter
                (fun d ->
                  checks
                    (Printf.sprintf "%s %s seed %Ld: %s" pname k.K.name seed (fst d))
                    want (run d))
                (List.tl drivers))
            golden_seeds)
        (K.all ()))
    driver_platforms

(* A loop over [d] that reads one element past its end: every class of
   timed work happens before the out-of-bounds read raises. *)
let raising_program () =
  let module B = Isa.Builder in
  let module I = Isa.Instr in
  let b = B.create ~name:"raises" in
  B.declare_data b ~symbol:"d" ~elements:24;
  B.label b "main";
  B.emit b (I.Li (1, 0));
  B.emit b (I.Li (2, 1));
  B.label b "loop";
  B.emit b (I.Fld (0, B.at ~index_reg:1 "d"));
  B.emit b (I.Fadd (1, 1, 0));
  B.emit b (I.Fdiv (2, 1, 0));
  B.emit b (I.Fsqrt (3, 2));
  B.emit b (I.Fst (3, B.at ~index_reg:1 "d"));
  B.emit b (I.Mul (3, 1, 2));
  B.emit b (I.Add (1, 1, 2));
  B.emit b (I.Jmp "loop");
  B.build b ~entry:"main"

let test_drivers_raise_alike () =
  let program = raising_program () in
  let load m =
    for i = 0 to 23 do
      Isa.Memory.set m "d" i (float_of_int ((3 * i) + 1) /. 7.)
    done
  in
  List.iter
    (fun (pname, config, contenders) ->
      let clock (dname, driver) =
        match drive ~config ~contenders ~seed:7L ~program ~load driver with
        | core, Error _ -> P.Core_sim.cycles core
        | _, Ok _ -> Alcotest.failf "%s %s: the run did not raise" pname dname
      in
      let want = clock (List.hd drivers) in
      checkb (pname ^ ": the clock ran before the raise") true (want > 0);
      List.iter
        (fun d ->
          Alcotest.(check int) (Printf.sprintf "%s: %s clock at the raise" pname (fst d)) want
            (clock d))
        (List.tl drivers))
    driver_platforms

(* ------------------------------------------------------------------ *)
(* Instrumentation sanity: the decode cache and batch scratches are
   actually exercised by the above (a healthy hot path reuses both). *)

let test_hotpath_counters () =
  let hits, misses = T.Experiment.decode_cache_stats () in
  checkb "decode cache consulted" true (hits + misses > 0);
  checkb "decode cache hit at least once" true (hits > 0);
  let created, reused = T.Experiment.batch_stats () in
  checkb "scratches created" true (created > 0);
  checkb "runs reused a scratch" true (reused > created)

(* The decode cache is process-global in a long-lived daemon, so it must
   stay bounded: cycling more distinct configs than the cap may never
   grow it past the cap, eviction must be LRU, and the hit/miss counters
   must stay consistent through evictions. *)
let test_decode_cache_bounded () =
  let default_cap = T.Experiment.decode_cache_capacity () in
  Fun.protect ~finally:(fun () -> T.Experiment.set_decode_cache_capacity default_cap)
  @@ fun () ->
  let touch frames =
    let e =
      T.Experiment.create ~frames ~config:P.Config.deterministic ~base_seed:7L ()
    in
    ignore (T.Experiment.measure e ~run_index:0)
  in
  (match T.Experiment.set_decode_cache_capacity 0 with
  | () -> Alcotest.fail "a cap of 0 must be rejected"
  | exception Invalid_argument _ -> ());
  let cap = 4 in
  T.Experiment.set_decode_cache_capacity cap;
  checkb "lowering the cap shrinks immediately" true
    (T.Experiment.decode_cache_size () <= cap);
  (* cycle 3x the cap's worth of distinct configs (frames is part of the
     codegen key): size must never exceed the cap *)
  for frames = 21 to 20 + (3 * cap) do
    touch frames;
    checkb "size stays within the cap" true (T.Experiment.decode_cache_size () <= cap)
  done;
  Alcotest.(check int) "cache is full after the cycle" cap
    (T.Experiment.decode_cache_size ());
  (* LRU order: the newest [cap] configs are resident (hits), the ones
     cycled out first are gone (misses) *)
  let hits_of f =
    let h0, m0 = T.Experiment.decode_cache_stats () in
    touch f;
    let h1, m1 = T.Experiment.decode_cache_stats () in
    Alcotest.(check int) "each lookup is one hit or one miss" 1
      (h1 - h0 + (m1 - m0));
    h1 - h0 = 1
  in
  checkb "most recent config still cached" true (hits_of (20 + (3 * cap)));
  checkb "evicted config misses again" false (hits_of 21);
  (* recaching 21 evicted the then-oldest entry, never the cap *)
  Alcotest.(check int) "re-insertion respects the cap" cap
    (T.Experiment.decode_cache_size ())

(* ------------------------------------------------------------------ *)
(* Allocation: a run allocates a bounded number of minor-heap words,
   independent of its instruction count.  These are counts, not timings,
   and they repeat exactly from run to run.  Before the scans, the
   generators and the missions stopped allocating, a TVCA frames-8 run
   allocated ~199,000 words in [reseed] + [run_decoded] (~31,000 at
   frames 1) and ~277,000 in [Experiment.measure], and one [bits32] draw
   allocated 3 to 149 words depending on the generator. *)

let platforms = [ ("DET", P.Config.deterministic); ("RAND", P.Config.mbpta_compliant) ]

(* Minor words per call of [f i] for i = 1 .. runs, after one uncounted
   call [f 0] that builds whatever [f] caches. *)
let words_per_call ~runs f =
  f 0;
  let before = Gc.minor_words () in
  for i = 1 to runs do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

(* [Core_sim.reseed] + [run_decoded] alone, per run, on a memory image
   reloaded (uncounted) with one of four missions before every run. *)
let run_decoded_words ~frames config =
  let exp = T.Experiment.create ~frames ~config ~base_seed:2017L () in
  let program = T.Experiment.program exp in
  let decoded = Isa.Executor.Decoded.decode ~program ~layout:(T.Experiment.layout exp) in
  let memory = Isa.Memory.create program in
  let runner = Isa.Executor.Decoded.Runner.create ~decoded ~memory () in
  let core = P.Core_sim.create ~config ~seed:0L () in
  let missions =
    Array.init 4 (fun i -> T.Mission.generate ~frames ~seed:(Int64.of_int i) ())
  in
  let seeds = Array.init 41 (fun i -> Int64.of_int (1000 + i)) in
  let words = ref 0. in
  for i = 0 to 40 do
    Isa.Memory.clear memory;
    T.Mission.load_memory missions.(i land 3) memory;
    let before = Gc.minor_words () in
    P.Core_sim.reseed core ~seed:seeds.(i);
    ignore (P.Core_sim.run_decoded core ~runner : P.Metrics.t);
    if i > 0 then words := !words +. (Gc.minor_words () -. before)
  done;
  !words /. 40.

let run_decoded_bound = 1_000.

let test_run_decoded_words () =
  List.iter
    (fun (pname, config) ->
      let words = run_decoded_words ~frames:8 config in
      if words >= run_decoded_bound then
        Alcotest.failf
          "%s: reseed + run_decoded at frames 8 allocated %.0f words a run, want < %.0f" pname
          words run_decoded_bound)
    platforms

(* ~81,600 instructions a run at frames 8 against ~10,200 at frames 1: the
   same words, because nothing on the instruction path allocates, the
   operands FDIV/FSQRT hand to the FPU model included. *)
let test_run_decoded_flat () =
  List.iter
    (fun (pname, config) ->
      let w8 = run_decoded_words ~frames:8 config in
      let w1 = run_decoded_words ~frames:1 config in
      if w8 -. w1 >= 1. then
        Alcotest.failf
          "%s: frames 8 allocated %.0f words a run, frames 1 %.0f: grows by %.0f, want < 1"
          pname w8 w1 (w8 -. w1))
    platforms

(* The whole per-run protocol, scenario generation included. *)
let measure_bound = 15_000.

let test_measure_words () =
  List.iter
    (fun (pname, config) ->
      let exp = T.Experiment.create ~config ~base_seed:2017L () in
      let words =
        words_per_call ~runs:40 (fun i ->
            ignore (T.Experiment.measure exp ~run_index:i : float))
      in
      if words >= measure_bound then
        Alcotest.failf "%s: Experiment.measure allocated %.0f words a run, want < %.0f" pname
          words measure_bound)
    platforms

(* A pinned-input run finds its mission already in the scratch's buffers,
   so the only words left are the run's own. *)
let test_pinned_input_reuses_mission () =
  List.iter
    (fun (pname, config) ->
      let exp = T.Experiment.create ~config ~base_seed:2017L () in
      let words =
        words_per_call ~runs:40 (fun i ->
            ignore
              (T.Experiment.measure_fixed_scenario exp ~scenario_index:3 ~run_index:i : float))
      in
      if words >= run_decoded_bound then
        Alcotest.failf "%s: a pinned-input run allocated %.0f words, want < %.0f" pname words
          run_decoded_bound)
    platforms

let test_draws_allocate_nothing () =
  List.iter
    (fun algorithm ->
      let g = Prng.create ~algorithm 2017L in
      List.iter
        (fun (what, draw) ->
          let words = words_per_call ~runs:10_000 (fun _ -> ignore (draw g : int)) in
          if words <> 0. then
            Alcotest.failf "%s: %s allocated %.2f words a draw, want 0"
              (Prng.algorithm_name algorithm) what words)
        [ ("bits32", Prng.bits32); ("int_below 6", fun g -> Prng.int_below g 6) ])
    Prng.all_algorithms

let () =
  Alcotest.run "hotpath"
    [
      ( "golden",
        [ Alcotest.test_case "engine transcript = committed fixture" `Quick test_golden_fixture ]
      );
      ( "campaign",
        [
          Alcotest.test_case "trace+store byte identity, jobs 1 and 4" `Quick
            test_campaign_byte_identity;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "run = supervised = stepped, every kernel and platform" `Quick
            test_drivers_agree;
          Alcotest.test_case "a raise leaves one clock in all three" `Quick
            test_drivers_raise_alike;
        ] );
      ( "counters",
        [ Alcotest.test_case "decode cache + batch exercised" `Quick test_hotpath_counters ] );
      ( "allocation",
        [
          Alcotest.test_case "reseed + run_decoded < 1,000 words a run" `Quick
            test_run_decoded_words;
          Alcotest.test_case "run_decoded words flat in the program length" `Quick
            test_run_decoded_flat;
          Alcotest.test_case "Experiment.measure < 15,000 words a run" `Quick
            test_measure_words;
          Alcotest.test_case "pinned-input run reuses its mission" `Quick
            test_pinned_input_reuses_mission;
          Alcotest.test_case "bits32 and int_below draw without allocating" `Quick
            test_draws_allocate_nothing;
        ] );
      ( "lru",
        [
          Alcotest.test_case "decode cache bounded with LRU eviction" `Quick
            test_decode_cache_bounded;
        ] );
    ]
