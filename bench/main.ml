(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DESIGN.md experiment index E1-E4) plus the ablations A1-A4,
   runs the campaign-throughput / hot-path / analysis-throughput /
   distributed / shuffle-leak / store-I/O benchmarks (sections P1-P6; results
   optionally emitted as machine-readable JSON for the perf trajectory),
   then runs Bechamel micro-benchmarks of the pipeline's own cost.

   Usage:  dune exec bench/main.exe [-- --runs N] [-- --skip-micro]
                                    [-- --smoke] [-- --json PATH]
                                    [-- --trace PATH] [-- --profile]
   Default N is 3000 (the paper's run count).  [--smoke] runs only the
   P1-P6 perf sections at a reduced run count (the CI mode); [--json PATH]
   writes the P1-P6 results to PATH (e.g. BENCH_pr10.json); [--trace PATH]
   keeps the JSONL trace written by the P1 trace-overhead probe;
   [--profile] enables the stage-resolved micro-profiler and emits its
   table (and a JSON section) at the end. *)

module P = Repro_platform
module T = Repro_tvca
module M = Repro_mbpta
module E = Repro_evt
module S = Repro_stats
module Isa = Repro_isa
module D = S.Descriptive

(* Hidden child mode for the P6 merge-RSS probe: re-invoked as
   [main.exe --p6-merge SRC... DST], performs just the store merge and
   prints its own peak RSS — a fresh process, so VmHWM measures the merge
   (plus runtime baseline) rather than whatever the parent benchmark
   allocated earlier. *)
let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            close_in ic;
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> go ()
      in
      (try go () with Scanf.Scan_failure _ | Failure _ -> 0)

let () =
  match Array.to_list Sys.argv with
  | _ :: "--p6-merge" :: (_ :: _ :: _ as dirs) ->
      let rec split_last acc = function
        | [ dst ] -> (List.rev acc, dst)
        | d :: rest -> split_last (d :: acc) rest
        | [] -> assert false
      in
      let src_dirs, dst_dir = split_last [] dirs in
      let src = List.map (fun dir -> M.Store.open_root ~dir) src_dirs in
      let dst = M.Store.open_root ~dir:dst_dir in
      (match M.Store.merge ~src dst with
      | Ok _ -> ()
      | Error e ->
          prerr_endline ("p6-merge: " ^ e);
          exit 1);
      Printf.printf "vmhwm_kb %d\n" (vmhwm_kb ());
      exit 0
  | _ -> ()

let runs = ref 3000
let skip_micro = ref false
let smoke = ref false
let p6_only = ref false
let json_out = ref None
let trace_out = ref None
let profile = ref false

let () =
  let rec parse = function
    | [] -> ()
    | "--runs" :: n :: rest ->
        runs := int_of_string n;
        parse rest
    | "--skip-micro" :: rest ->
        skip_micro := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--p6-only" :: rest ->
        (* the CI store-io smoke mode: just the store-I/O section, which
           carries its own pass/fail gates *)
        p6_only := true;
        parse rest
    | "--json" :: path :: rest ->
        json_out := Some path;
        parse rest
    | "--trace" :: path :: rest ->
        trace_out := Some path;
        parse rest
    | "--profile" :: rest ->
        profile := true;
        parse rest
    | arg :: _ -> failwith ("unknown argument: " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv))

let () = if !profile then M.Profile.set_enabled true

let () = if !smoke then runs := Stdlib.min !runs 240

let section title =
  Format.printf "@.=====================================================================@.";
  Format.printf "%s@." title;
  Format.printf "=====================================================================@."

let base_seed = 2017L

(* ------------------------------------------------------------------ *)
(* Shared campaign: E1-E4 all read from this single measurement pass.  *)

let det_experiment = T.Experiment.create ~config:P.Config.deterministic ~base_seed ()
let rand_experiment = T.Experiment.create ~config:P.Config.mbpta_compliant ~base_seed ()

(* The default gates occasionally reject a healthy sample at reduced run
   counts (a 5%-level test false-alarms by design); in that case the
   harness reruns with the gates off so every table still prints, and says
   so.  The i.i.d. verdicts themselves are always reported in E1. *)
let campaign =
  lazy
    (let input =
       {
         (M.Campaign.default_input
            ~measure_det:(fun i -> T.Experiment.measure det_experiment ~run_index:i)
            ~measure_rand:(fun i -> T.Experiment.measure rand_experiment ~run_index:i))
         with
         M.Campaign.runs = !runs;
       }
     in
     let run_exn input =
       match M.Campaign.run input with
       | Ok c -> c
       | Error f ->
           Format.kasprintf failwith "campaign failed: %a" M.Protocol.pp_failure f
     in
     let first = run_exn input in
     match first.M.Campaign.analysis with
     | Ok _ -> first
     | Error f ->
         Format.printf
           "@.NOTE: the gated protocol rejected this sample (%a);@.      rerunning with \
            gates off so all sections print.@."
           M.Protocol.pp_failure f;
         run_exn
           {
             input with
             M.Campaign.options =
               {
                 input.M.Campaign.options with
                 M.Protocol.gate_on_iid = false;
                 M.Protocol.check_convergence = false;
               };
           })

let analysis_exn () =
  match (Lazy.force campaign).M.Campaign.analysis with
  | Ok a -> a
  | Error f -> Format.kasprintf failwith "campaign failed: %a" M.Protocol.pp_failure f

let comparison_exn () =
  match (Lazy.force campaign).M.Campaign.comparison with
  | Some c -> c
  | None -> failwith "campaign produced no comparison"

(* ------------------------------------------------------------------ *)

let e1_iid () =
  section
    "E1  i.i.d. verification on the RAND platform (paper: Ljung-Box 0.83, KS 0.45, \
     alpha 0.05)";
  let a = analysis_exn () in
  let iid = a.M.Protocol.iid in
  Format.printf "runs collected: %d (flush + reseed + fresh inputs per run)@."
    (Array.length a.M.Protocol.sample);
  Format.printf "independence    Ljung-Box     %a@." S.Ljung_box.pp_result
    iid.M.Iid.ljung_box;
  Format.printf "identical dist  two-sample KS %a@." S.Ks.pp_result
    iid.M.Iid.kolmogorov_smirnov;
  Format.printf "diagnostic      runs test     %a@." S.Runs_test.pp_result
    iid.M.Iid.runs_diagnostic;
  Format.printf "verdict: %s@."
    (if iid.M.Iid.accepted then "i.i.d. ACCEPTED - MBPTA enabled (matches the paper)"
     else "i.i.d. REJECTED")

let e2_pwcet_curve () =
  section "E2  Figure 2: pWCET estimates for TVCA (observed tail vs EVT projection)";
  let a = analysis_exn () in
  Format.printf "%a@." E.Pwcet.pp a.M.Protocol.curve;
  Format.printf "model fit on block maxima: %a@." S.Ks.pp_result a.M.Protocol.goodness_of_fit;
  Format.printf "prediction upper-bounds observed tail: %b@.@."
    (E.Pwcet.upper_bounds_observations a.M.Protocol.curve);
  print_string (M.Ascii_plot.exceedance_plot a.M.Protocol.curve);
  Format.printf "@.projection series (per-run exceedance probability, execution time):@.";
  List.iter
    (fun (v, p) -> Format.printf "  %.1e  %10.0f@." p v)
    (E.Pwcet.ccdf_series a.M.Protocol.curve ~decades_below:15);
  (* sampling uncertainty of the headline estimate *)
  let prng = Repro_rng.Prng.create 4321L in
  let ci =
    E.Bootstrap.pwcet_interval ~prng ~sample:a.M.Protocol.sample
      ~cutoff_probability:1e-9 ()
  in
  Format.printf "@.pWCET(1e-9) with bootstrap interval: %a@." E.Bootstrap.pp_interval ci

let e3_comparison () =
  section "E3  Figure 3: MBPTA vs industrial MBTA practice";
  let c = comparison_exn () in
  let cam = Lazy.force campaign in
  Format.printf "%-34s %12s@." "quantity" "cycles";
  Format.printf "%-34s %12.0f@." "average observed, DET" c.M.Report.det_summary.D.mean;
  Format.printf "%-34s %12.0f@." "average observed, RAND" c.M.Report.rand_summary.D.mean;
  Format.printf "%-34s %12.0f@." "max observed, DET (high watermark)"
    c.M.Report.mbta.M.Mbta.high_watermark;
  Format.printf "%-34s %12.0f@." "max observed, RAND" c.M.Report.rand_summary.D.maximum;
  List.iter
    (fun (f, b) ->
      Format.printf "%-34s %12.0f@." (Printf.sprintf "MBTA bound (HWM x %.2f)" f) b)
    (M.Mbta.sensitivity cam.M.Campaign.det_sample ~factors:[ 1.2; 1.35; 1.5 ]);
  Format.printf "@.pWCET ladder (vs the HWM x 1.50 MBTA bound):@.";
  List.iter
    (fun (p, v) ->
      Format.printf "%-34s %12.0f   %.2fx MBTA@."
        (Printf.sprintf "  pWCET at %.0e" p)
        v
        (v /. c.M.Report.mbta.M.Mbta.bound))
    c.M.Report.pwcet_at;
  Format.printf
    "@.shape check: pWCET estimates are within the same order of magnitude as the@.";
  Format.printf
    "observations and competitive with the engineering-factor bound, while@.";
  Format.printf "resting on explicit probabilistic evidence.@."

let e4_average_performance () =
  section "E4  Average performance: DET vs RAND (paper: no noticeable difference)";
  let c = comparison_exn () in
  Format.printf "DET : %a@." D.pp_summary c.M.Report.det_summary;
  Format.printf "RAND: %a@." D.pp_summary c.M.Report.rand_summary;
  Format.printf "randomization overhead on the average: %+.2f%%@."
    (100. *. c.M.Report.average_overhead)

(* ------------------------------------------------------------------ *)
(* Ablations *)

let a1_placement () =
  section "A1  Ablation: placement policy vs memory-layout sensitivity";
  let layouts = 6 and runs_per_layout = Stdlib.max 40 (!runs / 40) in
  Format.printf "%d scrambled link layouts, %d runs each@.@." layouts runs_per_layout;
  Format.printf "%-16s %-14s %12s %14s %10s@." "placement" "replacement" "mean"
    "layout-spread" "x noise";
  List.iter
    (fun (placement, replacement) ->
      let config =
        P.Config.with_replacement
          (P.Config.with_placement P.Config.deterministic placement)
          replacement
      in
      let e = T.Experiment.create ~config ~base_seed () in
      let program = T.Experiment.program e in
      let means = Array.make layouts 0. in
      let noise = Array.make layouts 0. in
      for l = 0 to layouts - 1 do
        let layout = Isa.Layout.scrambled ~seed:(Int64.of_int (3000 + l)) program in
        let e' = T.Experiment.with_layout e layout in
        let xs =
          Array.init runs_per_layout (fun i -> T.Experiment.measure e' ~run_index:i)
        in
        means.(l) <- D.mean xs;
        noise.(l) <- D.sample_std xs /. sqrt (float_of_int runs_per_layout)
      done;
      let spread = D.max means -. D.min means in
      Format.printf "%-16s %-14s %12.0f %14.0f %10.1f@."
        (P.Config.placement_name placement)
        (P.Config.replacement_name replacement)
        (D.mean means) spread
        (spread /. D.mean noise))
    [
      (P.Config.Modulo, P.Config.Lru);
      (P.Config.Modulo, P.Config.Random_replacement);
      (P.Config.Random_modulo, P.Config.Lru);
      (P.Config.Random_modulo, P.Config.Random_replacement);
      (P.Config.Hash_random, P.Config.Random_replacement);
    ]

let a2_fpu () =
  section "A2  Ablation: FPU latency mode on the randomized platform";
  let n = Stdlib.max 200 (!runs / 5) in
  let measure config =
    let e = T.Experiment.create ~config ~base_seed:4242L () in
    T.Experiment.collect e ~runs:n
  in
  let value_dep =
    measure (P.Config.with_fpu P.Config.mbpta_compliant P.Config.Value_dependent)
  in
  let fixed =
    measure (P.Config.with_fpu P.Config.mbpta_compliant P.Config.Worst_case_fixed)
  in
  Format.printf "value-dependent FDIV/FSQRT: %a@." D.pp_summary (D.summarize value_dep);
  Format.printf "worst-case fixed (paper):   %a@." D.pp_summary (D.summarize fixed);
  Format.printf "average cost of forcing the worst case: %+.2f%%@."
    (100. *. ((D.mean fixed /. D.mean value_dep) -. 1.));
  let dominated = ref true in
  Array.iteri (fun i f -> if f < value_dep.(i) then dominated := false) fixed;
  Format.printf "every fixed-mode run upper-bounds its value-dependent twin: %b@." !dominated

let a3_convergence () =
  section "A3  Ablation: convergence of the pWCET estimate with the number of runs";
  let a = analysis_exn () in
  match a.M.Protocol.convergence with
  | None -> Format.printf "(convergence check disabled)@."
  | Some c ->
      Format.printf "%a@.@." E.Convergence.pp_result c;
      print_string (M.Ascii_plot.convergence_plot c.E.Convergence.history)

let a4_multicore () =
  section "A4  Ablation: co-runner bus pressure on the 4-core SoC";
  let n = Stdlib.max 200 (!runs / 8) in
  Format.printf "%-10s %12s %12s %12s@." "pressure" "mean" "max" "pWCET(1e-9)";
  List.iter
    (fun pressure ->
      let contenders = [ pressure; pressure; pressure ] in
      let e =
        T.Experiment.create ~contenders ~config:P.Config.mbpta_compliant ~base_seed:99L ()
      in
      let xs = T.Experiment.collect e ~runs:n in
      let options =
        { M.Protocol.default_options with M.Protocol.check_convergence = false }
      in
      match M.Protocol.analyze ~options xs with
      | Ok a ->
          Format.printf "%-10.2f %12.0f %12.0f %12.0f@." pressure (D.mean xs) (D.max xs)
            (E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:1e-9)
      | Error f ->
          Format.printf "%-10.2f analysis failed: %a@." pressure M.Protocol.pp_failure f)
    [ 0.; 0.5; 1. ]

let a5_det_unsound () =
  section
    "A5  Ablation: why measurements on the DET platform cannot cover other layouts";
  (* Apply the MBPTA machinery to DET measurements taken at one link
     layout (inputs still vary, so the i.i.d. gates may well pass), then
     confront the resulting curve with the same program re-linked at other
     layouts: the curve has no way to know about them. *)
  let n = Stdlib.max 200 (!runs / 5) in
  let det = T.Experiment.create ~config:P.Config.deterministic ~base_seed:55L () in
  let xs = T.Experiment.collect det ~runs:n in
  let options =
    {
      M.Protocol.default_options with
      M.Protocol.gate_on_iid = false;
      M.Protocol.check_convergence = false;
    }
  in
  (match M.Protocol.analyze ~options xs with
  | Error f -> Format.printf "DET analysis failed: %a@." M.Protocol.pp_failure f
  | Ok a ->
      let budget = E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:1e-9 in
      Format.printf
        "curve fitted on DET, layout as shipped: pWCET(1e-9) = %.0f cycles@.@." budget;
      Format.printf "%-10s %14s %18s@." "layout" "mean" "runs over budget";
      let program = T.Experiment.program det in
      List.iter
        (fun l ->
          let layout = Isa.Layout.scrambled ~seed:(Int64.of_int (7000 + l)) program in
          let e' = T.Experiment.with_layout det layout in
          let ys = Array.init 100 (fun i -> T.Experiment.measure e' ~run_index:i) in
          let over = Array.fold_left (fun c y -> if y > budget then c + 1 else c) 0 ys in
          Format.printf "%-10d %14.0f %12d /100@." l (D.mean ys) over)
        [ 1; 2; 3; 4; 5; 6 ];
      (* The randomized platform's curve, in contrast, covers them. *)
      let rand = T.Experiment.create ~config:P.Config.mbpta_compliant ~base_seed:55L () in
      let zs = T.Experiment.collect rand ~runs:n in
      match M.Protocol.analyze ~options zs with
      | Error f -> Format.printf "RAND analysis failed: %a@." M.Protocol.pp_failure f
      | Ok ar ->
          let rbudget = E.Pwcet.estimate ar.M.Protocol.curve ~cutoff_probability:1e-9 in
          Format.printf
            "@.curve fitted on RAND: pWCET(1e-9) = %.0f cycles; re-linked layouts:@."
            rbudget;
          let rprogram = T.Experiment.program rand in
          List.iter
            (fun l ->
              let layout =
                Isa.Layout.scrambled ~seed:(Int64.of_int (7000 + l)) rprogram
              in
              let e' = T.Experiment.with_layout rand layout in
              let ys = Array.init 100 (fun i -> T.Experiment.measure e' ~run_index:i) in
              let over =
                Array.fold_left (fun c y -> if y > rbudget then c + 1 else c) 0 ys
              in
              Format.printf "%-10d %14.0f %12d /100@." l (D.mean ys) over)
            [ 1; 2; 3; 4; 5; 6 ];
          Format.printf
            "@.a high watermark taken at one layout says nothing about the others -@.";
          Format.printf
            "that is the uncertainty the engineering factor must paper over, and@.";
          Format.printf "what the time-randomized platform removes by construction.@.")

let a6_gate_calibration () =
  section
    "A6  Ablation: empirical size of the i.i.d. gates (nominal 5% per test)";
  let trials = Stdlib.max 10 (!runs / 150) in
  let n = Stdlib.max 200 (!runs / 10) in
  let lb_rejections = ref 0 and ks_rejections = ref 0 in
  for t = 1 to trials do
    let e =
      T.Experiment.create ~config:P.Config.mbpta_compliant
        ~base_seed:(Int64.of_int (80_000 + t)) ()
    in
    let xs = T.Experiment.collect e ~runs:n in
    let iid = M.Iid.check xs in
    if not iid.M.Iid.ljung_box.S.Ljung_box.independent then incr lb_rejections;
    if not iid.M.Iid.kolmogorov_smirnov.S.Ks.same_distribution then incr ks_rejections
  done;
  Format.printf "%d campaigns of %d runs each, fresh base seed per campaign@.@." trials n;
  Format.printf "Ljung-Box rejections:      %d/%d@." !lb_rejections trials;
  Format.printf "two-sample KS rejections:  %d/%d@." !ks_rejections trials;
  Format.printf
    "@.on a genuinely randomized platform the gates fire at roughly their nominal@.";
  Format.printf
    "rate - rejections are retried with more runs, not treated as platform bugs.@."

let a7_block_size () =
  section "A7  Ablation: pWCET sensitivity to the block-maxima block size";
  let xs = (Lazy.force campaign).M.Campaign.rand_sample in
  Format.printf "%-12s %10s %14s %14s@." "block size" "maxima" "pWCET(1e-9)" "pWCET(1e-15)";
  List.iter
    (fun block_size ->
      if Array.length xs / block_size >= 20 then begin
        let options =
          {
            M.Protocol.default_options with
            M.Protocol.block_size = Some block_size;
            M.Protocol.check_convergence = false;
            M.Protocol.gate_on_iid = false;
          }
        in
        match M.Protocol.analyze ~options xs with
        | Ok a ->
            Format.printf "%-12d %10d %14.0f %14.0f@." block_size
              (Array.length xs / block_size)
              (E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:1e-9)
              (E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:1e-15)
        | Error f ->
            Format.printf "%-12d analysis failed: %a@." block_size M.Protocol.pp_failure f
      end)
    [ 8; 16; 32; 64; 128 ];
  Format.printf
    "@.the estimate is stable across reasonable block sizes - the hallmark of a@.";
  Format.printf "max-stable (EVT-amenable) measurement distribution.@."

(* ------------------------------------------------------------------ *)
(* P1: campaign throughput on the domain pool + simulator hot-path
   latency.  These are the numbers BENCH_pr2.json records so the perf
   trajectory of the project starts here. *)

type throughput_row = {
  jobs : int;
  seconds : float;
  runs_per_sec : float;
  speedup : float;  (* vs jobs = 1 *)
}

type perf_results = {
  campaign_runs : int;
  domain_count : int;
  throughput : throughput_row list;
  per_run_us_det : float;
  per_run_us_rand : float;
  decode_cache_hits : int;
  decode_cache_misses : int;
  batch_scratches_created : int;
  batch_reuses : int;
  cache_access_ns_det : float;
  cache_access_ns_rand : float;
  tlb_access_ns : float;
  samples_identical_across_jobs : bool;
  trace_overhead_pct : float;  (* median over the measured pairs *)
  trace_overhead_spread_pct : float;  (* max - min over the pairs *)
  trace_overhead_pairs : int;
  trace_events : int;
  traced_samples_identical : bool;
}

let time_it f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Best-of-[reps] timing: the minimum is the standard robust estimator for
   a deterministic workload on a shared box — every source of interference
   (scheduler preemption, page-cache misses, GC from a previous section)
   only ever adds time. *)
let time_best ~reps f =
  let v, t0 = time_it f in
  let best = ref t0 in
  for _ = 2 to reps do
    let _, t = time_it f in
    if t < !best then best := t
  done;
  (v, !best)

(* Direct hot-path probe: hammer one structure with a strided read/write
   mix large enough to live beyond the cold-start transient. *)
let cache_access_ns ~placement ~replacement =
  let config = { P.Config.geometry = P.Config.leon3_geometry; placement; replacement } in
  let c = P.Cache.create ~config ~prng:(Repro_rng.Prng.create 7L) in
  let n = 2_000_000 in
  let (), dt =
    time_it (fun () ->
        for i = 0 to n - 1 do
          ignore (P.Cache.access c ~addr:(i * 37 land 0xFFFFF) ~write:(i land 7 = 0))
        done)
  in
  dt *. 1e9 /. float_of_int n

let tlb_access_ns () =
  let t =
    P.Tlb.create ~entries:64 ~page_bytes:4096 ~replacement:P.Config.Random_replacement
      ~prng:(Repro_rng.Prng.create 11L)
  in
  let n = 2_000_000 in
  let (), dt =
    time_it (fun () ->
        for i = 0 to n - 1 do
          ignore (P.Tlb.access t ~addr:(i * 4099 land 0xFFFFFF))
        done)
  in
  dt *. 1e9 /. float_of_int n

(* Cost of observability: full campaigns (gates off, sequential) with and
   without a Runs-level trace attached, measured as interleaved pairs so
   machine drift hits both sides equally, reported as the median overhead
   with the min-max spread.  A single pair's ratio is dominated by noise —
   BENCH_pr6 recorded a nonsensical -1.96% from one pair.  Also re-checks
   the tracing determinism contract: the traced campaign's samples must be
   bit-identical to the untraced ones. *)
let p1_trace_overhead ~n =
  let input =
    {
      (M.Campaign.default_input
         ~measure_det:(fun i -> T.Experiment.measure det_experiment ~run_index:i)
         ~measure_rand:(fun i -> T.Experiment.measure rand_experiment ~run_index:i))
      with
      M.Campaign.runs = n;
      M.Campaign.options =
        {
          M.Protocol.default_options with
          M.Protocol.gate_on_iid = false;
          M.Protocol.check_convergence = false;
        };
    }
  in
  let samples = function
    | Ok c -> Some (c.M.Campaign.det_sample, c.M.Campaign.rand_sample)
    | Error _ -> None
  in
  let pairs = if !smoke then 3 else 5 in
  let path =
    match !trace_out with
    | Some p -> p
    | None -> Filename.temp_file "bench_trace" ".jsonl"
  in
  let trace_events = ref 0 in
  let traced_samples_identical = ref true in
  let overheads =
    Array.init pairs (fun _ ->
        let plain, plain_dt = time_it (fun () -> M.Campaign.run ~jobs:1 input) in
        (try Sys.remove path with Sys_error _ -> ());
        let trace = M.Trace.create ~path () in
        let traced, traced_dt =
          time_it (fun () -> M.Campaign.run ~jobs:1 ~trace input)
        in
        M.Trace.close trace;
        (match M.Trace.read_file path with
        | Ok es -> trace_events := List.length es
        | Error _ -> ());
        if samples plain <> samples traced then traced_samples_identical := false;
        100. *. ((traced_dt /. plain_dt) -. 1.))
  in
  if !trace_out = None then (try Sys.remove path with Sys_error _ -> ());
  let sorted = Array.copy overheads in
  Array.sort Float.compare sorted;
  let median = sorted.(pairs / 2) in
  let spread = sorted.(pairs - 1) -. sorted.(0) in
  Format.printf
    "@.trace overhead (campaign of 2x%d runs, jobs=1, %d interleaved pairs): median \
     %+.2f%%, spread [%+.2f%%, %+.2f%%], %d events@."
    n pairs median sorted.(0)
    sorted.(pairs - 1)
    !trace_events;
  Format.printf "traced samples bit-identical to untraced: %b@." !traced_samples_identical;
  (median, spread, pairs, !trace_events, !traced_samples_identical)

let p1_parallel_perf () =
  section "P1  Campaign throughput (domain pool) and simulator hot-path latency";
  let n = Stdlib.max 60 (Stdlib.min !runs 600) in
  let measure_rand i = T.Experiment.measure rand_experiment ~run_index:i in
  let measure_det i = T.Experiment.measure det_experiment ~run_index:i in
  let domain_count = M.Parallel.default_jobs () in
  Format.printf "campaign of %d RAND runs per job count; %d core(s) recommended@.@." n
    domain_count;
  Format.printf "%8s %12s %14s %10s@." "jobs" "seconds" "runs/sec" "speedup";
  let reference = ref None in
  let throughput =
    List.map
      (fun jobs ->
        let sample, seconds = time_it (fun () -> M.Parallel.init ~jobs n measure_rand) in
        (match !reference with
        | None -> reference := Some sample
        | Some r ->
            if not (r = sample) then
              failwith "P1: samples differ across job counts — determinism broken");
        let runs_per_sec = float_of_int n /. seconds in
        { jobs; seconds; runs_per_sec; speedup = 0. })
      [ 1; 2; 4; 8 ]
  in
  let base = (List.hd throughput).runs_per_sec in
  let throughput =
    List.map (fun r -> { r with speedup = r.runs_per_sec /. base }) throughput
  in
  List.iter
    (fun r ->
      Format.printf "%8d %12.3f %14.1f %9.2fx@." r.jobs r.seconds r.runs_per_sec r.speedup)
    throughput;
  (* Per-run sequential cost, both platforms, on the batched pre-decoded
     hot path. *)
  let k = Stdlib.max 20 (n / 4) in
  (* Median of several repetitions: on a shared box a single k-run average
     jitters by ±20% (same remedy as the trace-overhead probe). *)
  let per_run_us measure =
    let reps = if !smoke then 3 else 5 in
    let samples =
      Array.init reps (fun _ ->
          let _, dt =
            time_it (fun () ->
                for i = 0 to k - 1 do
                  ignore (measure i)
                done)
          in
          dt *. 1e6 /. float_of_int k)
    in
    Array.sort compare samples;
    samples.(reps / 2)
  in
  let per_run_us_det = per_run_us measure_det in
  let per_run_us_rand = per_run_us measure_rand in
  Format.printf
    "@.per measured run (sequential):         DET %.1f us, RAND %.1f us@."
    per_run_us_det per_run_us_rand;
  let decode_cache_hits, decode_cache_misses = T.Experiment.decode_cache_stats () in
  let batch_scratches_created, batch_reuses = T.Experiment.batch_stats () in
  Format.printf
    "decode cache: %d hits / %d misses; batch scratches: %d created, %d runs reused one@."
    decode_cache_hits decode_cache_misses batch_scratches_created batch_reuses;
  (* Hot-path latency: one cache/TLB access. *)
  let cache_access_ns_det =
    cache_access_ns ~placement:P.Config.Modulo ~replacement:P.Config.Lru
  in
  let cache_access_ns_rand =
    cache_access_ns ~placement:P.Config.Random_modulo
      ~replacement:P.Config.Random_replacement
  in
  let tlb_ns = tlb_access_ns () in
  Format.printf
    "per access: cache DET(modulo+LRU) %.1f ns, cache RAND(rm+random) %.1f ns, TLB %.1f ns@."
    cache_access_ns_det cache_access_ns_rand tlb_ns;
  let ( trace_overhead_pct,
        trace_overhead_spread_pct,
        trace_overhead_pairs,
        trace_events,
        traced_samples_identical ) =
    p1_trace_overhead ~n:(Stdlib.max 50 (n / 4))
  in
  {
    campaign_runs = n;
    domain_count;
    throughput;
    per_run_us_det;
    per_run_us_rand;
    decode_cache_hits;
    decode_cache_misses;
    batch_scratches_created;
    batch_reuses;
    cache_access_ns_det;
    cache_access_ns_rand;
    tlb_access_ns = tlb_ns;
    samples_identical_across_jobs = true;
    trace_overhead_pct;
    trace_overhead_spread_pct;
    trace_overhead_pairs;
    trace_events;
    traced_samples_identical;
  }

(* ------------------------------------------------------------------ *)
(* P2: the content-addressed sample store — cold campaign vs warm
   re-analysis (every measurement a cache hit) vs interrupted + resumed.
   Records the cold/warm speedup and re-checks the determinism contract:
   warm and resumed samples must be bit-identical to the cold run, and a
   warm re-analysis must invoke the simulator zero times. *)

type store_results = {
  store_runs : int;
  store_chunk_size : int;
  cold_seconds : float;
  warm_seconds : float;
  resumed_seconds : float;
  warm_speedup : float;
  resumed_cached_runs : int;
  warm_zero_recompute : bool;
  warm_identical : bool;
  resumed_identical : bool;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let p2_store_perf () =
  section "P2  Sample store: cold campaign vs warm re-analysis vs interrupted+resume";
  let n = Stdlib.max 60 (Stdlib.min !runs 600) in
  let chunk_size = 64 in
  let det_calls = ref 0 and rand_calls = ref 0 in
  let input =
    {
      (M.Campaign.default_input
         ~measure_det:(fun i ->
           incr det_calls;
           T.Experiment.measure det_experiment ~run_index:i)
         ~measure_rand:(fun i ->
           incr rand_calls;
           T.Experiment.measure rand_experiment ~run_index:i))
      with
      M.Campaign.runs = n;
      M.Campaign.options =
        {
          M.Protocol.default_options with
          M.Protocol.gate_on_iid = false;
          M.Protocol.check_convergence = false;
        };
    }
  in
  let samples = function
    | Ok c -> (c.M.Campaign.det_sample, c.M.Campaign.rand_sample)
    | Error f -> Format.kasprintf failwith "P2 campaign failed: %a" M.Protocol.pp_failure f
  in
  let dir = Filename.temp_file "bench_store" "" in
  Sys.remove dir;
  let root = M.Store.open_root ~dir in
  let config =
    [
      ("bench", "p2");
      ("seed", Int64.to_string base_seed);
      ("runs", string_of_int n);
    ]
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let open_session ?resume config =
    let key = M.Store.key ~chunk_size config in
    match
      M.Store.open_session ~chunk_size ?resume root ~key ~config ~runs:n
        ~resilient:false
    with
    | Ok s -> s
    | Error e -> failwith ("P2: open_session: " ^ e)
  in
  (* cold: every chunk simulated and checkpointed *)
  let cold_session = open_session config in
  let cold, cold_seconds =
    time_it (fun () -> M.Campaign.run ~jobs:1 ~store:cold_session input)
  in
  M.Store.close cold_session;
  let cold_samples = samples cold in
  (* warm: same key, zero simulator runs *)
  det_calls := 0;
  rand_calls := 0;
  let warm_session = open_session config in
  let warm, warm_seconds =
    time_it (fun () -> M.Campaign.run ~jobs:1 ~store:warm_session input)
  in
  M.Store.close warm_session;
  let warm_zero_recompute = !det_calls = 0 && !rand_calls = 0 in
  let warm_identical = samples warm = cold_samples in
  (* interrupted + resumed, against a fresh record *)
  let config_r = ("variant", "resume") :: config in
  let crash_session = open_session config_r in
  M.Store.set_fail_after crash_session (Stdlib.max 1 (n / chunk_size));
  (match M.Campaign.run ~jobs:1 ~store:crash_session input with
  | _ -> failwith "P2: expected the injected crash"
  | exception M.Store.Injected_crash _ -> M.Store.close crash_session);
  let resume_session = open_session ~resume:true config_r in
  let resumed_cached_runs =
    M.Store.cached_runs resume_session ~phase:"collect_det"
    + M.Store.cached_runs resume_session ~phase:"collect_rand"
  in
  let resumed, resumed_seconds =
    time_it (fun () -> M.Campaign.run ~jobs:1 ~store:resume_session input)
  in
  M.Store.close resume_session;
  let resumed_identical = samples resumed = cold_samples in
  let warm_speedup = cold_seconds /. warm_seconds in
  Format.printf "campaign of 2x%d runs, chunk size %d, jobs=1@.@." n chunk_size;
  Format.printf "%-44s %10.3fs@." "cold (simulate + checkpoint)" cold_seconds;
  Format.printf "%-44s %10.3fs  (%.1fx cold)@." "warm re-analysis (pure cache hit)"
    warm_seconds warm_speedup;
  Format.printf "%-44s %10.3fs  (%d/%d runs from the record)@."
    "interrupted, then resumed" resumed_seconds resumed_cached_runs (2 * n);
  Format.printf "warm re-analysis ran the simulator zero times: %b@." warm_zero_recompute;
  Format.printf "warm samples bit-identical to cold:            %b@." warm_identical;
  Format.printf "resumed samples bit-identical to cold:         %b@." resumed_identical;
  {
    store_runs = n;
    store_chunk_size = chunk_size;
    cold_seconds;
    warm_seconds;
    resumed_seconds;
    warm_speedup;
    resumed_cached_runs;
    warm_zero_recompute;
    warm_identical;
    resumed_identical;
  }

(* ------------------------------------------------------------------ *)
(* P3: analysis throughput — the incremental/parallel analysis engine of
   this PR against the retired implementations, timed in the same run so
   the baseline shares the machine, the compiler and the sample.  The
   retired code paths (from-scratch convergence study, shared-PRNG
   sequential bootstrap, per-lag ACF) are inlined verbatim below; the
   convergence baseline doubles as a bit-identity oracle. *)

type bootstrap_row = { boot_jobs : int; boot_seconds : float; boot_speedup : float }

type analysis_results = {
  analysis_runs : int;
  conv_steps : int;
  conv_retired_seconds : float;
  conv_incremental_seconds : float;
  conv_speedup : float;
  conv_comparisons : int;
  conv_identical : bool;
  boot_replicates : int;
  boot_retired_seconds : float;
  boot_rows : bootstrap_row list;
  boot_identical_across_jobs : bool;
  acf_lags : int;
  acf_per_lag_seconds : float;
  acf_single_pass_seconds : float;
  acf_speedup : float;
  acf_identical : bool;
}

(* Retired [Convergence.study]: re-sorts the prefix and re-extracts every
   block maximum at each step — O(k * n log n) over k steps. *)
let retired_convergence ?(probability = 1e-9) ?(step = 100) ?(tolerance = 0.01)
    ?(stable_steps = 3) ?(min_runs = 100) xs =
  let estimate_at xs probability =
    let block_size = E.Block_maxima.suggest_block_size (Array.length xs) in
    let maxima = E.Block_maxima.extract ~block_size xs in
    let gumbel = E.Gumbel_fit.fit ~method_:E.Gumbel_fit.Pwm maxima in
    let curve =
      E.Pwcet.create ~model:(E.Pwcet.Gumbel_tail gumbel) ~block_size ~sample:xs
    in
    E.Pwcet.estimate curve ~cutoff_probability:probability
  in
  let n = Array.length xs in
  let rec go used previous streak acc =
    if used > n then (false, n, List.rev acc)
    else begin
      let sub = Array.sub xs 0 used in
      let est = estimate_at sub probability in
      let acc = (used, est) :: acc in
      let streak =
        match previous with
        | Some prev when Float.abs (est -. prev) /. Float.abs prev <= tolerance ->
            streak + 1
        | Some _ | None -> 0
      in
      if streak >= stable_steps then (true, used, List.rev acc)
      else go (used + step) (Some est) streak acc
    end
  in
  go min_runs None 0 []

(* Retired [Bootstrap.pwcet_interval]: every replicate drawn sequentially
   from the one shared PRNG — inherently unparallelizable.  Wall-time
   baseline only; the derived-seed engine pins its own (new) stream. *)
let retired_bootstrap ~prng ~sample ~cutoff_probability ~replicates ~confidence =
  let estimate_on xs =
    let block_size = E.Block_maxima.suggest_block_size (Array.length xs) in
    let maxima = E.Block_maxima.extract ~block_size xs in
    let model = E.Gumbel_fit.fit maxima in
    let curve =
      E.Pwcet.create ~model:(E.Pwcet.Gumbel_tail model) ~block_size ~sample:xs
    in
    E.Pwcet.estimate curve ~cutoff_probability
  in
  let n = Array.length sample in
  let point = estimate_on sample in
  let resample = Array.make n 0. in
  let estimates =
    Array.init replicates (fun _ ->
        for i = 0 to n - 1 do
          resample.(i) <- sample.(Repro_rng.Prng.int_below prng n)
        done;
        estimate_on resample)
  in
  Array.sort Float.compare estimates;
  let tail = (1. -. confidence) /. 2. in
  (E.Bootstrap.percentile estimates tail, point, E.Bootstrap.percentile estimates (1. -. tail))

let p3_analysis_perf () =
  section
    "P3  Analysis throughput: incremental convergence, fanned-out bootstrap, one-pass ACF";
  let n = Stdlib.max 2000 !runs in
  let e = T.Experiment.create ~config:P.Config.mbpta_compliant ~base_seed:777L () in
  let xs = T.Experiment.collect e ~runs:n in
  (* Convergence: retired from-scratch study vs the incremental engine,
     same sample, and the histories must be bit-identical. *)
  let (r_conv, r_used, r_hist), conv_retired_seconds =
    time_it (fun () -> retired_convergence xs)
  in
  let c, conv_incremental_seconds = time_it (fun () -> E.Convergence.study xs) in
  let conv_identical =
    r_conv = c.E.Convergence.converged
    && r_used = c.E.Convergence.runs_used
    && r_hist
       = List.map
           (fun p -> (p.E.Convergence.runs, p.E.Convergence.estimate))
           c.E.Convergence.history
  in
  if not conv_identical then
    failwith "P3: incremental convergence diverged from the retired reference";
  let conv_speedup = conv_retired_seconds /. conv_incremental_seconds in
  Format.printf "convergence study over %d runs (%d estimates):@." n
    (List.length c.E.Convergence.history);
  Format.printf "  retired (from scratch per step)  %10.4fs@." conv_retired_seconds;
  Format.printf "  incremental (this PR)            %10.4fs  (%.1fx, %d comparisons)@."
    conv_incremental_seconds conv_speedup c.E.Convergence.comparisons;
  Format.printf "  histories bit-identical: %b@." conv_identical;
  (* Bootstrap: retired sequential baseline, then the derived-seed engine
     at increasing job counts — intervals bit-identical at every count. *)
  let replicates = if !smoke then 100 else 200 in
  let confidence = 0.95 in
  let cutoff_probability = 1e-9 in
  let _, boot_retired_seconds =
    time_it (fun () ->
        retired_bootstrap
          ~prng:(Repro_rng.Prng.create 4321L)
          ~sample:xs ~cutoff_probability ~replicates ~confidence)
  in
  Format.printf "@.bootstrap (%d replicates over %d observations):@." replicates n;
  Format.printf "  retired (shared PRNG, sequential) %9.4fs@." boot_retired_seconds;
  let reference = ref None in
  let boot_rows =
    List.map
      (fun jobs ->
        let iv, boot_seconds =
          time_it (fun () ->
              E.Bootstrap.pwcet_interval ~replicates ~confidence ~jobs
                ~prng:(Repro_rng.Prng.create 4321L)
                ~sample:xs ~cutoff_probability ())
        in
        (match !reference with
        | None -> reference := Some iv
        | Some r ->
            if r <> iv then
              failwith "P3: bootstrap interval differs across job counts");
        { boot_jobs = jobs; boot_seconds; boot_speedup = 0. })
      [ 1; 2; 4; 8 ]
  in
  let base = (List.hd boot_rows).boot_seconds in
  let boot_rows =
    List.map (fun r -> { r with boot_speedup = base /. r.boot_seconds }) boot_rows
  in
  List.iter
    (fun r ->
      Format.printf "  jobs=%d %26s %9.4fs  (%.2fx vs jobs=1)@." r.boot_jobs ""
        r.boot_seconds r.boot_speedup)
    boot_rows;
  Format.printf "  intervals bit-identical across job counts: %b@." true;
  (* ACF: per-lag sweep vs the single-pass sweep, bit-identical output. *)
  let acf_lags = 50 in
  let reps = if !smoke then 50 else 200 in
  let per_lag () =
    Array.init acf_lags (fun i -> S.Autocorrelation.acf xs ~lag:(i + 1))
  in
  let acf_ref = per_lag () in
  let _, acf_per_lag_seconds =
    time_it (fun () ->
        for _ = 1 to reps do
          ignore (per_lag ())
        done)
  in
  let acf_new = S.Autocorrelation.acf_up_to xs ~max_lag:acf_lags in
  let _, acf_single_pass_seconds =
    time_it (fun () ->
        for _ = 1 to reps do
          ignore (S.Autocorrelation.acf_up_to xs ~max_lag:acf_lags)
        done)
  in
  let acf_identical = acf_ref = acf_new in
  if not acf_identical then
    failwith "P3: single-pass ACF diverged from the per-lag reference";
  let acf_speedup = acf_per_lag_seconds /. acf_single_pass_seconds in
  Format.printf "@.ACF sweep to lag %d (x%d repetitions):@." acf_lags reps;
  Format.printf "  per-lag passes                   %10.4fs@." acf_per_lag_seconds;
  Format.printf "  single pass (this PR)            %10.4fs  (%.1fx)@."
    acf_single_pass_seconds acf_speedup;
  Format.printf "  lag values bit-identical: %b@." acf_identical;
  {
    analysis_runs = n;
    conv_steps = List.length c.E.Convergence.history;
    conv_retired_seconds;
    conv_incremental_seconds;
    conv_speedup;
    conv_comparisons = c.E.Convergence.comparisons;
    conv_identical;
    boot_replicates = replicates;
    boot_retired_seconds;
    boot_rows;
    boot_identical_across_jobs = true;
    acf_lags;
    acf_per_lag_seconds;
    acf_single_pass_seconds;
    acf_speedup;
    acf_identical;
  }

(* ------------------------------------------------------------------ *)
(* P4: distributed campaigns — sharded collection (in-process workers
   under the coordinator's supervision loop) plus the integrity-verified
   merge, against the single-process store path.  Re-checks the merge
   contract as it runs: the merged record must be byte-identical to the
   single-process record, the final samples bit-identical, and a
   bit-flipped shard record must be quarantined, never merged. *)

type distributed_results = {
  dist_runs : int;
  dist_shards : int;
  dist_chunk_size : int;
  single_seconds : float;
  sharded_seconds : float;  (* supervised shard collection, one domain each *)
  merge_seconds : float;
  merged_record_identical : bool;
  merged_samples_identical : bool;
  quarantine_detected : bool;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let p4_distributed_perf () =
  section "P4  Distributed campaigns: sharded collection + integrity-verified merge";
  let n = Stdlib.max 60 (Stdlib.min !runs 600) in
  let chunk_size = 64 in
  let shards = 3 in
  let input =
    {
      (M.Campaign.default_input
         ~measure_det:(fun i -> T.Experiment.measure det_experiment ~run_index:i)
         ~measure_rand:(fun i -> T.Experiment.measure rand_experiment ~run_index:i))
      with
      M.Campaign.runs = n;
      M.Campaign.options =
        {
          M.Protocol.default_options with
          M.Protocol.gate_on_iid = false;
          M.Protocol.check_convergence = false;
        };
    }
  in
  let config =
    [ ("bench", "p4"); ("seed", Int64.to_string base_seed); ("runs", string_of_int n) ]
  in
  let key = M.Store.key ~chunk_size config in
  let record_path dir = Filename.concat dir (key ^ ".jsonl") in
  let temp_dir () =
    let d = Filename.temp_file "bench_dist" "" in
    Sys.remove d;
    d
  in
  let dirs = List.init (shards + 2) (fun _ -> temp_dir ()) in
  Fun.protect ~finally:(fun () -> List.iter rm_rf dirs) @@ fun () ->
  let single_dir, merge_dir, shard_dirs =
    match dirs with a :: b :: rest -> (a, b, rest) | _ -> assert false
  in
  let open_session ?shard dir =
    match
      M.Store.open_session ~chunk_size ~resume:true ?shard
        (M.Store.open_root ~dir) ~key ~config ~runs:n ~resilient:false
    with
    | Ok s -> s
    | Error e -> failwith ("P4: open_session: " ^ e)
  in
  let samples = function
    | Ok c -> (c.M.Campaign.det_sample, c.M.Campaign.rand_sample)
    | Error f -> Format.kasprintf failwith "P4 campaign failed: %a" M.Protocol.pp_failure f
  in
  (* single-process reference *)
  let single_session = open_session single_dir in
  let single, single_seconds =
    time_it (fun () -> M.Campaign.run ~jobs:1 ~store:single_session input)
  in
  M.Store.close single_session;
  let single_samples = samples single in
  (* sharded collection under the supervision loop (workers in-process) *)
  let policy = M.Coordinator.default_policy ~shards in
  let run_shard ~shard ~span ~attempt:_ =
    let s = open_session ~shard:span (List.nth shard_dirs (shard - 1)) in
    match M.Campaign.collect_shard ~jobs:1 ~store:s input with
    | Ok () ->
        M.Store.close s;
        Ok ()
    | Error f ->
        M.Store.close s;
        Error (M.Coordinator.Crashed (Format.asprintf "%a" M.Protocol.pp_failure f))
  in
  let report, sharded_seconds =
    time_it (fun () ->
        M.Coordinator.supervise ~policy ~chunk_size ~runs:n ~run_shard ())
  in
  if report.M.Coordinator.unrecoverable > 0 then failwith "P4: shard collection failed";
  let src = List.map (fun dir -> M.Store.open_root ~dir) shard_dirs in
  let dst = M.Store.open_root ~dir:merge_dir in
  let merge_result, merge_seconds = time_it (fun () -> M.Store.merge ~src dst) in
  (match merge_result with
  | Ok _ -> ()
  | Error e -> failwith ("P4: merge: " ^ e));
  let merged_record_identical =
    read_file (record_path merge_dir) = read_file (record_path single_dir)
  in
  let merged_session = open_session merge_dir in
  let merged = M.Campaign.run ~jobs:1 ~store:merged_session input in
  M.Store.close merged_session;
  let merged_samples_identical = samples merged = single_samples in
  if not (merged_record_identical && merged_samples_identical) then
    failwith "P4: sharded campaign diverged from the single-process reference";
  (* a bit-flipped shard record must be quarantined, never merged *)
  let victim = record_path (List.nth shard_dirs 1) in
  let bytes = Bytes.of_string (read_file victim) in
  Bytes.set bytes
    (Bytes.length bytes / 2)
    (Char.chr (Char.code (Bytes.get bytes (Bytes.length bytes / 2)) lxor 1));
  let oc = open_out_bin victim in
  output_bytes oc bytes;
  close_out oc;
  let quarantine_dst = M.Store.open_root ~dir:(List.nth dirs 0 ^ ".q") in
  let quarantine_detected =
    match M.Store.merge ~src quarantine_dst with
    | Ok m -> m.M.Store.quarantined <> []
    | Error e -> failwith ("P4: quarantine merge: " ^ e)
  in
  rm_rf (List.nth dirs 0 ^ ".q");
  if not quarantine_detected then
    failwith "P4: a bit-flipped shard record was merged without quarantine";
  Format.printf "campaign of 2x%d runs, chunk size %d, %d shards@.@." n chunk_size shards;
  Format.printf "%-44s %10.3fs@." "single-process (simulate + checkpoint)" single_seconds;
  Format.printf "%-44s %10.3fs@."
    (Printf.sprintf "sharded collection (%d supervised workers)" shards)
    sharded_seconds;
  Format.printf "%-44s %10.3fs@." "integrity-verified merge" merge_seconds;
  Format.printf "merged record byte-identical to single-process: %b@."
    merged_record_identical;
  Format.printf "merged samples bit-identical to single-process: %b@."
    merged_samples_identical;
  Format.printf "bit-flipped shard record quarantined by merge:  %b@." quarantine_detected;
  {
    dist_runs = n;
    dist_shards = shards;
    dist_chunk_size = chunk_size;
    single_seconds;
    sharded_seconds;
    merge_seconds;
    merged_record_identical;
    merged_samples_identical;
    quarantine_detected;
  }

(* ------------------------------------------------------------------ *)
(* P5: schedule randomization + the timing-leak comparator.  Per-policy
   RTOS-simulation throughput (the [mbpta shuffle] kernel), bit-identity
   of a shuffle campaign across job counts, comparator throughput, and
   the two acceptance verdicts of the leak protocol: a DET platform
   exposes a secret-dependent input, same-distribution RAND campaigns
   stay clean. *)

type shuffle_policy_perf = {
  sp_policy : string;
  sp_seconds : float;
  sp_runs_per_sec : float;
  sp_distinct : int;
  sp_entropy_bits : float;
}

type shuffle_leak_results = {
  sl_runs : int;
  sl_policies : shuffle_policy_perf list;
  shuffle_identical_across_jobs : bool;
  welch_tests_per_sec : float;
  leak_det_detected : bool;  (* DET input-0 vs input-1 must leak *)
  leak_rand_clean : bool;  (* RAND same-distribution pair must not *)
}

let p5_shuffle_leak_perf () =
  section "P5  Schedule randomization + timing-leak comparator";
  let n = Stdlib.max 60 (Stdlib.min !runs 600) in
  let schedule i policy =
    T.Experiment.run_schedule rand_experiment ~policy ~period:60_000 ~max_jitter:2_000
      ~horizon:240_000 ~run_index:i ()
  in
  let sl_policies =
    List.map
      (fun policy ->
        let rs, seconds =
          time_it (fun () ->
              M.Parallel.init ~jobs:1 n (fun i -> schedule i policy))
        in
        let rand_metrics =
          T.Rtos.randomization_of_signatures
            (Array.to_list (Array.map (fun r -> r.T.Experiment.signature) rs))
        in
        let row =
          {
            sp_policy = T.Rtos.policy_name policy;
            sp_seconds = seconds;
            sp_runs_per_sec = float_of_int n /. seconds;
            sp_distinct = rand_metrics.T.Rtos.distinct;
            sp_entropy_bits = rand_metrics.T.Rtos.entropy_bits;
          }
        in
        Format.printf
          "%-8s %d RTOS runs in %8.3fs (%8.1f runs/s), %d distinct schedules, %.3f bits@."
          row.sp_policy n seconds row.sp_runs_per_sec row.sp_distinct row.sp_entropy_bits;
        row)
      T.Rtos.all_policies
  in
  let shuffle_identical_across_jobs =
    let collect jobs =
      M.Parallel.init ~jobs n (fun i -> schedule i T.Rtos.Priority_shuffle)
    in
    collect 1 = collect 4
  in
  Format.printf "shuffle campaign bit-identical jobs=1 vs 4:       %b@."
    shuffle_identical_across_jobs;
  (* leak protocol: DET with the input pinned per class leaks; two RAND
     campaigns over the same input distribution do not *)
  let det_fixed idx =
    Array.init n (fun i ->
        T.Experiment.measure_fixed_scenario det_experiment ~scenario_index:idx ~run_index:i)
  in
  let det_a = det_fixed 0 and det_b = det_fixed 1 in
  let rand_a = Array.init n (fun i -> T.Experiment.measure rand_experiment ~run_index:i) in
  let rand_b =
    Array.init n (fun i -> T.Experiment.measure rand_experiment ~run_index:(n + i))
  in
  let det_verdict = S.Welch.t_test det_a det_b in
  let rand_verdict = S.Welch.t_test rand_a rand_b in
  let leak_det_detected = not det_verdict.S.Welch.equal_means in
  let leak_rand_clean = rand_verdict.S.Welch.equal_means in
  if not leak_det_detected then failwith "P5: DET secret-dependent pair not detected";
  if not leak_rand_clean then failwith "P5: RAND same-distribution pair flagged as leak";
  let comparator_batch = 2_000 in
  let (), welch_seconds =
    time_it (fun () ->
        for _ = 1 to comparator_batch do
          ignore (S.Welch.t_test rand_a rand_b)
        done)
  in
  let welch_tests_per_sec = float_of_int comparator_batch /. welch_seconds in
  Format.printf "DET input-0 vs input-1 leak detected:             %b (p = %.3g)@."
    leak_det_detected det_verdict.S.Welch.p_value;
  Format.printf "RAND same-distribution pair clean:                %b (p = %.3g)@."
    leak_rand_clean rand_verdict.S.Welch.p_value;
  Format.printf "Welch comparator: %.0f tests/s on 2x%d samples@." welch_tests_per_sec n;
  {
    sl_runs = n;
    sl_policies;
    shuffle_identical_across_jobs;
    welch_tests_per_sec;
    leak_det_detected;
    leak_rand_clean;
  }

(* ------------------------------------------------------------------ *)
(* P6: store I/O at campaign scale.  The three claims of the million-run
   rebuild, each checked as it is measured: (1) a warm query over a
   10^5-run v3 record (binary payloads + index sidecar) is >= 10x faster
   than the PR9-style full text parse of the same sample in v2 framing;
   (2) merge peak RSS is flat between 10^4- and 10^5-run campaigns
   (streaming chunk union, measured as VmHWM of a child process that does
   nothing but the merge); (3) binary payloads shrink bytes-per-run vs
   text.  Uses a synthetic measurement (pure in the run index) so the
   store, not the simulator, is what's timed. *)

type store_io_results = {
  io_runs : int;
  io_chunk_size : int;
  v3_bytes_per_run : float;
  v2_bytes_per_run : float;
  warm_query_seconds : float;
  full_parse_seconds : float;
  warm_speedup_vs_full_parse : float;
  io_warm_identical : bool;
  merge_rss_small_kb : int;
  merge_rss_large_kb : int;
  merge_rss_ratio : float;
}

let p6_store_io_perf () =
  section "P6  Store I/O at campaign scale: binary payloads, indexed reads, streaming merge";
  let n = 100_000 in
  (* the scaled-protocol chunk size for 10^5+-run campaigns (EXPERIMENTS
     §scaled): ~25 checkpoint barriers at this n — still fine-grained
     enough to resume from, and 16x fewer per-chunk seeks/frames than the
     3,000-run default of 256.  Both the v3 record and the v2 baseline use
     the same layout. *)
  let chunk_size = 4096 in
  let phase = "collect_det" in
  (* synthetic latency: pure in the run index, cheap, full-width mantissas
     (division by 3 leaves a repeating binary fraction, so the v2 text
     framing prints the full 17 significant digits — matching what real
     campaign latencies, products of float arithmetic, look like) *)
  let value i = 1e6 +. (float_of_int ((i * 2654435761) land 0xfffff) /. 3.) in
  let config runs extra =
    [ ("bench", "p6"); ("runs", string_of_int runs) ] @ extra
  in
  let tmp_dir () =
    let d = Filename.temp_file "bench_p6" "" in
    Sys.remove d;
    M.Trace.ensure_dir d;
    d
  in
  let with_dir f =
    let d = tmp_dir () in
    Fun.protect ~finally:(fun () -> rm_rf d) @@ fun () -> f d
  in
  let open_session ?resume ?shard root ~runs cfg =
    let key = M.Store.key ~chunk_size cfg in
    match
      M.Store.open_session ~chunk_size ?resume ?shard root ~key ~config:cfg ~runs
        ~resilient:false
    with
    | Ok s -> s
    | Error e -> failwith ("P6: open_session: " ^ e)
  in
  with_dir @@ fun v3_dir ->
  with_dir @@ fun v2_dir ->
  (* --- warm query vs full parse ----------------------------------- *)
  let cfg = config n [] in
  let root_v3 = M.Store.open_root ~dir:v3_dir in
  let s = open_session root_v3 ~runs:n cfg in
  let expected = M.Store.collect s ~jobs:1 ~phase n value in
  M.Store.close s;
  let v3_file = Filename.concat v3_dir (M.Store.key ~chunk_size cfg ^ ".jsonl") in
  (* the same sample in v2 framing (text float payloads), fabricated the
     way the PR9 writer framed it — the full-parse baseline reads this *)
  let key2 = M.Store.key_v2 ~chunk_size cfg in
  let fabricate_v2 () =
    let module J = M.Trace.Json in
    let oc = open_out_bin (Filename.concat v2_dir (key2 ^ ".jsonl")) in
    let put line = output_string oc (M.Store.seal line ^ "\n") in
    put
      (J.to_string
         (J.Obj
            [
              ("kind", J.String "meta");
              ("schema", J.String "store/v2");
              ("key", J.String key2);
              ("runs", J.Int n);
              ("resilient", J.Bool false);
              ("chunk_size", J.Int chunk_size);
              ( "config",
                J.Obj (List.map (fun (k, v) -> (k, J.String v)) (List.sort compare cfg))
              );
            ]));
    let lo = ref 0 in
    while !lo < n do
      let len = Stdlib.min chunk_size (n - !lo) in
      put
        (J.to_string
           (J.Obj
              [
                ("kind", J.String "chunk");
                ("phase", J.String phase);
                ("lo", J.Int !lo);
                ("values", J.List (List.init len (fun i -> J.Float expected.(!lo + i))));
              ]));
      lo := !lo + len
    done;
    close_out oc
  in
  fabricate_v2 ();
  let root_v2 = M.Store.open_root ~dir:v2_dir in
  let file_size f = (Unix.stat f).Unix.st_size in
  let v3_bytes_per_run = float_of_int (file_size v3_file) /. float_of_int n in
  let v2_bytes_per_run =
    float_of_int (file_size (Filename.concat v2_dir (key2 ^ ".jsonl"))) /. float_of_int n
  in
  (* PR9 full-parse read path, reproduced faithfully: a warm query used to
     re-scan the whole record — per line, verify the md5 trailer, hand the
     body to the JSON parser, and rebuild each chunk's float array from
     text ([parse_chunk_line] in the PR9 store).  The current [ls ~deep]
     scan is already cheaper than that, so timing it would flatter the
     baseline. *)
  let pr9_full_parse file =
    let module J = M.Trace.Json in
    let unseal line =
      let tlen = String.length ",\"sum\":\"\"}" + 32 in
      let len = String.length line in
      if len <= tlen then failwith "P6: v2 line without a checksum trailer";
      let start = len - tlen in
      let sum = String.sub line (start + 8) 32 in
      let body = String.sub line 0 start ^ "}" in
      if Digest.to_hex (Digest.string body) <> sum then
        failwith "P6: v2 checksum mismatch";
      body
    in
    let ic = open_in_bin file in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let total = ref 0 in
    (try
       while true do
         let body = unseal (input_line ic) in
         match J.of_string body with
         | Error e -> failwith ("P6: v2 line unreadable: " ^ e)
         | Ok j -> (
             match Option.bind (J.member "kind" j) J.to_str with
             | Some "meta" -> ()
             | Some "chunk" -> (
                 match J.member "values" j with
                 | Some (J.List vs) ->
                     List.iter
                       (fun v ->
                         match J.to_float v with
                         | Some _ -> incr total
                         | None -> failwith "P6: non-numeric sample")
                       vs
                 | _ -> failwith "P6: chunk without values")
             | _ -> failwith "P6: unexpected v2 line kind")
       done
     with End_of_file -> ());
    !total
  in
  (match M.Store.ls ~deep:true root_v2 with
  | [ e ] when e.M.Store.status = M.Store.Complete -> ()
  | _ -> failwith "P6: fabricated v2 record did not verify");
  let parsed_runs, full_parse_seconds =
    time_best ~reps:5 (fun () -> pr9_full_parse (Filename.concat v2_dir (key2 ^ ".jsonl")))
  in
  if parsed_runs <> n then failwith "P6: full parse dropped runs";
  (* warm v3 query: open, materialize the sample from the record (the
     measurement function must never run), close *)
  let warm, warm_query_seconds =
    time_best ~reps:5 (fun () ->
        let s = open_session ~resume:true root_v3 ~runs:n cfg in
        let sample =
          M.Store.collect s ~jobs:1 ~phase n (fun _ ->
              failwith "P6: warm query recomputed a run")
        in
        M.Store.close s;
        sample)
  in
  let io_warm_identical = warm = expected in
  let warm_speedup = full_parse_seconds /. warm_query_seconds in
  (* --- merge RSS flatness ------------------------------------------ *)
  let merge_rss runs =
    let cfg = config runs [ ("variant", "merge") ] in
    let shard_dirs = [ tmp_dir (); tmp_dir () ] in
    let dst_dir = tmp_dir () in
    Fun.protect ~finally:(fun () -> List.iter rm_rf (dst_dir :: shard_dirs))
    @@ fun () ->
    let mid = runs / 2 / chunk_size * chunk_size in
    List.iteri
      (fun i dir ->
        let span = if i = 0 then (0, mid) else (mid, runs) in
        let root = M.Store.open_root ~dir in
        let s = open_session ~shard:span root ~runs cfg in
        ignore (M.Store.collect s ~jobs:1 ~phase runs value);
        M.Store.close s)
      shard_dirs;
    M.Trace.ensure_dir dst_dir;
    let argv =
      Array.of_list
        ((Sys.executable_name :: "--p6-merge" :: shard_dirs) @ [ dst_dir ])
    in
    let r_out, w_out = Unix.pipe () in
    let pid = Unix.create_process Sys.executable_name argv Unix.stdin w_out Unix.stderr in
    Unix.close w_out;
    let ic = Unix.in_channel_of_descr r_out in
    let line = try input_line ic with End_of_file -> "" in
    let _, status = Unix.waitpid [] pid in
    close_in ic;
    (match status with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "P6: merge child failed");
    match String.split_on_char ' ' line with
    | [ "vmhwm_kb"; v ] -> int_of_string v
    | _ -> failwith ("P6: unexpected merge-child output: " ^ line)
  in
  let merge_rss_small_kb = merge_rss (n / 10) in
  let merge_rss_large_kb = merge_rss n in
  let merge_rss_ratio =
    if merge_rss_small_kb > 0 then
      float_of_int merge_rss_large_kb /. float_of_int merge_rss_small_kb
    else 0.
  in
  Format.printf "campaign of %d runs, chunk size %d@.@." n chunk_size;
  Format.printf "%-52s %10.1f B@." "bytes per run, v2 text payloads" v2_bytes_per_run;
  Format.printf "%-52s %10.1f B@." "bytes per run, v3 binary payloads" v3_bytes_per_run;
  Format.printf "%-52s %10.3fs@." "full parse of the v2 record (PR9 read path)"
    full_parse_seconds;
  Format.printf "%-52s %10.3fs  (%.1fx full parse)@." "warm v3 query (index + binary decode)"
    warm_query_seconds warm_speedup;
  Format.printf "warm sample bit-identical to cold:  %b@." io_warm_identical;
  Format.printf "merge peak RSS: %d runs -> %d KB, %d runs -> %d KB (ratio %.2f)@."
    (n / 10) merge_rss_small_kb n merge_rss_large_kb merge_rss_ratio;
  if not io_warm_identical then failwith "P6: warm sample diverged from cold";
  if warm_speedup < 10. then
    Format.kasprintf failwith
      "P6: warm query only %.1fx faster than the full-parse path (need >= 10x)"
      warm_speedup;
  if merge_rss_small_kb > 0 && merge_rss_ratio > 1.5 then
    Format.kasprintf failwith
      "P6: merge peak RSS grew %.2fx from %d to %d runs — not constant-memory"
      merge_rss_ratio (n / 10) n;
  {
    io_runs = n;
    io_chunk_size = chunk_size;
    v3_bytes_per_run;
    v2_bytes_per_run;
    warm_query_seconds;
    full_parse_seconds;
    warm_speedup_vs_full_parse = warm_speedup;
    io_warm_identical;
    merge_rss_small_kb;
    merge_rss_large_kb;
    merge_rss_ratio;
  }

let json_of_perf r s a d sl io =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"bench_pr10/v1\",\n";
  add "  \"smoke\": %b,\n" !smoke;
  add "  \"campaign_runs\": %d,\n" r.campaign_runs;
  add "  \"recommended_domain_count\": %d,\n" r.domain_count;
  add "  \"samples_identical_across_jobs\": %b,\n" r.samples_identical_across_jobs;
  add "  \"campaign_throughput\": [\n";
  List.iteri
    (fun i t ->
      add "    {\"jobs\": %d, \"seconds\": %.6f, \"runs_per_sec\": %.2f, \"speedup_vs_jobs1\": %.3f}%s\n"
        t.jobs t.seconds t.runs_per_sec t.speedup
        (if i = List.length r.throughput - 1 then "" else ","))
    r.throughput;
  add "  ],\n";
  add "  \"per_run_us\": {\"det\": %.2f, \"rand\": %.2f},\n" r.per_run_us_det
    r.per_run_us_rand;
  add
    "  \"hotpath\": {\"decode_cache_hits\": %d, \"decode_cache_misses\": %d, \
     \"batch_scratches_created\": %d, \"batch_reuses\": %d},\n"
    r.decode_cache_hits r.decode_cache_misses r.batch_scratches_created r.batch_reuses;
  add "  \"per_access_ns\": {\"cache_det\": %.2f, \"cache_rand\": %.2f, \"tlb\": %.2f},\n"
    r.cache_access_ns_det r.cache_access_ns_rand r.tlb_access_ns;
  add
    "  \"trace\": {\"overhead_pct\": %.2f, \"overhead_spread_pct\": %.2f, \
     \"overhead_pairs\": %d, \"events\": %d, \"traced_samples_identical\": %b},\n"
    r.trace_overhead_pct r.trace_overhead_spread_pct r.trace_overhead_pairs
    r.trace_events r.traced_samples_identical;
  add "  \"store\": {\n";
  add "    \"campaign_runs\": %d,\n" s.store_runs;
  add "    \"chunk_size\": %d,\n" s.store_chunk_size;
  add "    \"cold_seconds\": %.6f,\n" s.cold_seconds;
  add "    \"warm_seconds\": %.6f,\n" s.warm_seconds;
  add "    \"resumed_seconds\": %.6f,\n" s.resumed_seconds;
  add "    \"warm_speedup_vs_cold\": %.2f,\n" s.warm_speedup;
  add "    \"resumed_cached_runs\": %d,\n" s.resumed_cached_runs;
  add "    \"warm_zero_recompute\": %b,\n" s.warm_zero_recompute;
  add "    \"warm_samples_identical\": %b,\n" s.warm_identical;
  add "    \"resumed_samples_identical\": %b\n" s.resumed_identical;
  add "  },\n";
  add "  \"distributed\": {\n";
  add "    \"campaign_runs\": %d,\n" d.dist_runs;
  add "    \"shards\": %d,\n" d.dist_shards;
  add "    \"chunk_size\": %d,\n" d.dist_chunk_size;
  add "    \"single_process_seconds\": %.6f,\n" d.single_seconds;
  add "    \"sharded_collection_seconds\": %.6f,\n" d.sharded_seconds;
  add "    \"merge_seconds\": %.6f,\n" d.merge_seconds;
  add "    \"merged_record_byte_identical\": %b,\n" d.merged_record_identical;
  add "    \"merged_samples_identical\": %b,\n" d.merged_samples_identical;
  add "    \"bit_flip_quarantined\": %b\n" d.quarantine_detected;
  add "  },\n";
  add "  \"analysis\": {\n";
  add "    \"runs\": %d,\n" a.analysis_runs;
  add "    \"convergence\": {\n";
  add "      \"steps\": %d,\n" a.conv_steps;
  add "      \"retired_seconds\": %.6f,\n" a.conv_retired_seconds;
  add "      \"incremental_seconds\": %.6f,\n" a.conv_incremental_seconds;
  add "      \"speedup\": %.2f,\n" a.conv_speedup;
  add "      \"comparisons\": %d,\n" a.conv_comparisons;
  add "      \"bit_identical_to_retired\": %b\n" a.conv_identical;
  add "    },\n";
  add "    \"bootstrap\": {\n";
  add "      \"replicates\": %d,\n" a.boot_replicates;
  add "      \"retired_seconds\": %.6f,\n" a.boot_retired_seconds;
  add "      \"jobs\": [\n";
  List.iteri
    (fun i r ->
      add "        {\"jobs\": %d, \"seconds\": %.6f, \"speedup_vs_jobs1\": %.3f}%s\n"
        r.boot_jobs r.boot_seconds r.boot_speedup
        (if i = List.length a.boot_rows - 1 then "" else ","))
    a.boot_rows;
  add "      ],\n";
  add "      \"intervals_identical_across_jobs\": %b\n" a.boot_identical_across_jobs;
  add "    },\n";
  add "    \"acf\": {\n";
  add "      \"lags\": %d,\n" a.acf_lags;
  add "      \"per_lag_seconds\": %.6f,\n" a.acf_per_lag_seconds;
  add "      \"single_pass_seconds\": %.6f,\n" a.acf_single_pass_seconds;
  add "      \"speedup\": %.2f,\n" a.acf_speedup;
  add "      \"bit_identical_to_per_lag\": %b\n" a.acf_identical;
  add "    }\n";
  add "  },\n";
  add "  \"shuffle_leak\": {\n";
  add "    \"campaign_runs\": %d,\n" sl.sl_runs;
  add "    \"policies\": [\n";
  List.iteri
    (fun i p ->
      add
        "      {\"policy\": \"%s\", \"seconds\": %.6f, \"runs_per_sec\": %.2f, \
         \"distinct_schedules\": %d, \"entropy_bits\": %.4f}%s\n"
        p.sp_policy p.sp_seconds p.sp_runs_per_sec p.sp_distinct p.sp_entropy_bits
        (if i = List.length sl.sl_policies - 1 then "" else ","))
    sl.sl_policies;
  add "    ],\n";
  add "    \"shuffle_identical_across_jobs\": %b,\n" sl.shuffle_identical_across_jobs;
  add "    \"welch_tests_per_sec\": %.2f,\n" sl.welch_tests_per_sec;
  add "    \"leak_det_detected\": %b,\n" sl.leak_det_detected;
  add "    \"leak_rand_clean\": %b\n" sl.leak_rand_clean;
  add "  },\n";
  add "  \"store_io\": {\n";
  add "    \"campaign_runs\": %d,\n" io.io_runs;
  add "    \"chunk_size\": %d,\n" io.io_chunk_size;
  add "    \"v2_bytes_per_run\": %.1f,\n" io.v2_bytes_per_run;
  add "    \"v3_bytes_per_run\": %.1f,\n" io.v3_bytes_per_run;
  add "    \"full_parse_seconds\": %.6f,\n" io.full_parse_seconds;
  add "    \"warm_query_seconds\": %.6f,\n" io.warm_query_seconds;
  add "    \"warm_speedup_vs_full_parse\": %.2f,\n" io.warm_speedup_vs_full_parse;
  add "    \"warm_samples_identical\": %b,\n" io.io_warm_identical;
  add "    \"merge_rss_small_kb\": %d,\n" io.merge_rss_small_kb;
  add "    \"merge_rss_large_kb\": %d,\n" io.merge_rss_large_kb;
  add "    \"merge_rss_ratio\": %.3f\n" io.merge_rss_ratio;
  add "  },\n";
  add "  \"profile\": {\n";
  add "    \"enabled\": %b,\n" (M.Profile.enabled ());
  add "    \"stages\": [\n";
  let entries = M.Profile.snapshot () in
  List.iteri
    (fun i { M.Profile.stage; ns; calls } ->
      add "      {\"stage\": \"%s\", \"ms\": %.3f, \"calls\": %d}%s\n"
        (M.Profile.stage_name stage)
        (Int64.to_float ns /. 1e6)
        calls
        (if i = List.length entries - 1 then "" else ","))
    entries;
  add "    ]\n";
  add "  }\n";
  add "}\n";
  Buffer.contents b

let write_json path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Format.printf "@.perf results written to %s@." path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the cost of the tooling itself. *)

let micro () =
  section "Micro-benchmarks (Bechamel): cost of one step of each pipeline stage";
  let open Bechamel in
  let rand_sample = (Lazy.force campaign).M.Campaign.rand_sample in
  let maxima = E.Block_maxima.extract ~block_size:64 rand_sample in
  let counter = ref 0 in
  let next () =
    incr counter;
    !counter
  in
  let tests =
    [
      Test.make ~name:"E1 iid-battery (full sample)"
        (Staged.stage (fun () -> ignore (M.Iid.check rand_sample)));
      Test.make ~name:"E2 gumbel-fit+curve (block maxima)"
        (Staged.stage (fun () ->
             let model = E.Gumbel_fit.fit maxima in
             ignore
               (E.Pwcet.create ~model:(E.Pwcet.Gumbel_tail model) ~block_size:64
                  ~sample:rand_sample)));
      Test.make ~name:"E3 mbta-bound (full sample)"
        (Staged.stage (fun () -> ignore (M.Mbta.bound rand_sample)));
      Test.make ~name:"E4 descriptive-summary (full sample)"
        (Staged.stage (fun () -> ignore (D.summarize rand_sample)));
      Test.make ~name:"tvca-run DET (one measured run)"
        (Staged.stage (fun () ->
             ignore (T.Experiment.measure det_experiment ~run_index:(next ()))));
      Test.make ~name:"tvca-run RAND (one measured run)"
        (Staged.stage (fun () ->
             ignore (T.Experiment.measure rand_experiment ~run_index:(next ()))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"pipeline" tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.sort (fun (a, _) (b, _) -> compare a b) rows
  |> List.iter (fun (name, r) ->
         match Analyze.OLS.estimates r with
         | Some (ns :: _) -> Format.printf "%-48s %12.1f us/call@." name (ns /. 1000.)
         | Some [] | None -> Format.printf "%-48s (no estimate)@." name)

let () =
  if !p6_only then begin
    ignore (p6_store_io_perf ());
    Format.printf "@.done.@.";
    exit 0
  end;
  Format.printf
    "MBPTA-on-time-randomized-platform reproduction benchmark (runs per config: %d)@."
    !runs;
  if not !smoke then begin
    e1_iid ();
    e2_pwcet_curve ();
    e3_comparison ();
    e4_average_performance ();
    a1_placement ();
    a2_fpu ();
    a3_convergence ();
    a4_multicore ();
    a5_det_unsound ();
    a6_gate_calibration ();
    a7_block_size ()
  end;
  let perf = p1_parallel_perf () in
  let store = p2_store_perf () in
  let analysis = p3_analysis_perf () in
  let distributed = p4_distributed_perf () in
  let shuffle_leak = p5_shuffle_leak_perf () in
  let store_io = p6_store_io_perf () in
  (match !json_out with
  | Some path ->
      write_json path
        (json_of_perf perf store analysis distributed shuffle_leak store_io)
  | None -> ());
  if !profile then begin
    section "Stage-resolved profile (whole benchmark process)";
    match M.Profile.report () with
    | "" -> Format.printf "(profiler enabled, nothing recorded)@."
    | table -> print_string table
  end;
  if (not !skip_micro) && not !smoke then micro ();
  Format.printf "@.done.@."
