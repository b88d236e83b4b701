(* The paper-tables executable: regenerates every table and figure of the
   paper's evaluation (DESIGN.md experiment index E1-E4) plus the
   ablations A1-A7.  The repository's performance benchmark is perfbench/
   (see BENCHMARK.json), gated by bench/gate.exe.

   Usage:  dune exec bench/main.exe [-- --runs N]
   Default N is 3000 (the paper's run count). *)

module P = Repro_platform
module T = Repro_tvca
module M = Repro_mbpta
module E = Repro_evt
module S = Repro_stats
module Isa = Repro_isa
module D = S.Descriptive

let runs = ref 3000

let () =
  let rec parse = function
    | [] -> ()
    | "--runs" :: n :: rest ->
        runs := int_of_string n;
        parse rest
    | arg :: _ -> failwith ("unknown argument: " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv))

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

let () =
  Format.printf
    "MBPTA-on-time-randomized-platform reproduction benchmark (runs per config: %d)@."
    !runs;
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
  a7_block_size ();
  Format.printf "@.done.@."
