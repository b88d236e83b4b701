(* Tests for repro_mbpta: the i.i.d. gate, the end-to-end protocol on
   synthetic data and its failure paths, the MBTA baseline, per-path
   analysis, plot rendering, and a scaled-down integration run of the whole
   campaign on the TVCA workload. *)

module Prng = Repro_rng.Prng
module S = Repro_stats
module E = Repro_evt
module M = Repro_mbpta
module P = Repro_platform
module T = Repro_tvca

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf tol = Alcotest.check (Alcotest.float tol)
let prng seed = Prng.create seed

let gumbel_sample g ~mu ~beta n =
  let d = S.Distribution.Gumbel.create ~mu ~beta in
  Array.init n (fun _ -> S.Distribution.Gumbel.sample d g)

(* ------------------------------------------------------------------ *)
(* i.i.d. gate *)

let test_iid_accepts_iid () =
  let g = prng 105L in
  let xs = gumbel_sample g ~mu:1000. ~beta:20. 2000 in
  let r = M.Iid.check xs in
  checkb "accepted" true r.M.Iid.accepted

let test_iid_rejects_autocorrelated () =
  let g = prng 202L in
  let n = 2000 in
  let xs = Array.make n 0. in
  for i = 1 to n - 1 do
    xs.(i) <- (0.8 *. xs.(i - 1)) +. Prng.gaussian g
  done;
  let r = M.Iid.check xs in
  checkb "rejected" false r.M.Iid.accepted;
  checkb "ljung-box is the reason" false r.M.Iid.ljung_box.S.Ljung_box.independent

let test_iid_rejects_distribution_drift () =
  (* even-indexed runs drawn from a shifted distribution *)
  let g = prng 303L in
  let xs =
    Array.init 2000 (fun i ->
        Prng.gaussian g +. if i mod 2 = 0 then 0. else 0.4)
  in
  let r = M.Iid.check xs in
  checkb "rejected" false r.M.Iid.accepted;
  checkb "KS is the reason" false r.M.Iid.kolmogorov_smirnov.S.Ks.same_distribution

let test_iid_alpha_respected () =
  let g = prng 404L in
  let xs = gumbel_sample g ~mu:0. ~beta:1. 1000 in
  let strict = M.Iid.check ~alpha:0.9999 xs in
  (* with alpha ~ 1 almost any sample is rejected *)
  checkb "extreme alpha rejects" false strict.M.Iid.accepted

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_happy_path () =
  let g = prng 505L in
  let xs = gumbel_sample g ~mu:10_000. ~beta:150. 3000 in
  match M.Protocol.analyze xs with
  | Error f -> Alcotest.failf "unexpected failure: %a" M.Protocol.pp_failure f
  | Ok a ->
      checkb "iid ok" true a.M.Protocol.iid.M.Iid.accepted;
      checki "block size" 64 a.M.Protocol.block_size;
      checkb "converged" true
        (match a.M.Protocol.convergence with
        | Some c -> c.E.Convergence.converged
        | None -> false);
      (* the pWCET ladder is monotone and above the sample median *)
      let table = M.Protocol.pwcet_table a in
      checki "ten cutoffs" 10 (List.length table);
      let median = S.Descriptive.median xs in
      List.iter (fun (_, v) -> checkb "above median" true (v > median)) table

let test_protocol_not_enough_runs () =
  match M.Protocol.analyze [| 1.; 2.; 3. |] with
  | Error (M.Protocol.Not_enough_runs { have; need }) ->
      checki "have" 3 have;
      checkb "need sensible" true (need >= 100)
  | Error _ | Ok _ -> Alcotest.fail "expected Not_enough_runs"

let test_protocol_iid_failure_reported () =
  let g = prng 606L in
  let n = 1000 in
  let xs = Array.make n 0. in
  for i = 1 to n - 1 do
    xs.(i) <- (0.9 *. xs.(i - 1)) +. Prng.gaussian g
  done;
  (* keep the sample in the valid (non-negative) domain so the
     autocorrelation, not the sample validator, is what trips *)
  let lo = Array.fold_left Float.min xs.(0) xs in
  let xs = Array.map (fun v -> v -. lo) xs in
  match M.Protocol.analyze xs with
  | Error (M.Protocol.Iid_rejected _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Iid_rejected"

let test_protocol_tail_choices () =
  let g = prng 707L in
  let xs = gumbel_sample g ~mu:500. ~beta:25. 2000 in
  List.iter
    (fun tail ->
      let options = { M.Protocol.default_options with M.Protocol.tail } in
      match M.Protocol.analyze ~options xs with
      | Ok a ->
          let v = E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:1e-9 in
          (* all tail models should land in the same region *)
          checkb "estimate plausible" true (v > 500. && v < 2000.)
      | Error f -> Alcotest.failf "tail failed: %a" M.Protocol.pp_failure f)
    [ M.Protocol.Gumbel; M.Protocol.Gev; M.Protocol.Pot; M.Protocol.Exponential_pot ]

let test_protocol_explicit_block_size () =
  let g = prng 808L in
  let xs = gumbel_sample g ~mu:100. ~beta:5. 1000 in
  let options = { M.Protocol.default_options with M.Protocol.block_size = Some 10 } in
  match M.Protocol.analyze ~options xs with
  | Ok a -> checki "block honoured" 10 a.M.Protocol.block_size
  | Error f -> Alcotest.failf "failed: %a" M.Protocol.pp_failure f

let test_protocol_collect_and_analyze () =
  let g = prng 909L in
  let d = S.Distribution.Gumbel.create ~mu:100. ~beta:5. in
  let measure _ = S.Distribution.Gumbel.sample d g in
  let options = { M.Protocol.default_options with M.Protocol.check_convergence = false } in
  match M.Protocol.collect_and_analyze ~options ~runs:600 ~measure () with
  | Ok a -> checki "sample size" 600 (Array.length a.M.Protocol.sample)
  | Error f -> Alcotest.failf "failed: %a" M.Protocol.pp_failure f

let test_standard_cutoffs () =
  checki "ten decades" 10 (List.length M.Protocol.standard_cutoffs);
  checkf 0. "starts at 1e-6" 1e-6 (List.hd M.Protocol.standard_cutoffs)

let test_protocol_degenerate_constant_sample () =
  (* A jitterless platform produces (near-)constant execution times; the
     protocol must return a defined result, not crash. *)
  let xs = Array.make 500 12345. in
  let options =
    {
      M.Protocol.default_options with
      M.Protocol.check_convergence = false;
      M.Protocol.gate_on_iid = false;
    }
  in
  match M.Protocol.analyze ~options xs with
  | Ok a ->
      checkb "no tail diagnostic on constant data" true
        (a.M.Protocol.tail_diagnostic = None);
      let v = E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:1e-12 in
      checkb "pWCET collapses to the constant" true (Float.abs (v -. 12345.) < 1.)
  | Error f -> Alcotest.failf "degenerate sample crashed the protocol: %a" M.Protocol.pp_failure f

let test_iid_on_constant_sample () =
  let xs = Array.make 200 7. in
  let r = M.Iid.check xs in
  checkb "constant sample cannot be rejected" true r.M.Iid.accepted

(* ------------------------------------------------------------------ *)
(* MBTA baseline *)

let test_mbta_bound () =
  let r = M.Mbta.bound ~engineering_factor:1.5 [| 10.; 40.; 20. |] in
  checkf 0. "hwm" 40. r.M.Mbta.high_watermark;
  checkf 1e-12 "bound" 60. r.M.Mbta.bound;
  checki "n" 3 r.M.Mbta.sample_size

let test_mbta_default_factor () =
  let r = M.Mbta.bound [| 100. |] in
  checkf 1e-12 "default +50%" 150. r.M.Mbta.bound

let test_mbta_sensitivity () =
  let s = M.Mbta.sensitivity [| 100. |] ~factors:[ 1.2; 1.35; 1.5 ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "sweep"
    [ (1.2, 120.); (1.35, 135.); (1.5, 150.) ]
    s

(* ------------------------------------------------------------------ *)
(* Per-path analysis *)

let test_path_analysis_groups_and_maxes () =
  let g = prng 1012L in
  (* two synthetic paths with different tail locations *)
  let runs = 1200 in
  let measurements = Array.make runs 0. in
  let signatures = Array.make runs 0 in
  for i = 0 to runs - 1 do
    let path = if i mod 3 = 0 then 1 else 2 in
    let mu = if path = 1 then 2000. else 1000. in
    signatures.(i) <- path;
    measurements.(i) <-
      S.Distribution.Gumbel.sample (S.Distribution.Gumbel.create ~mu ~beta:20.) g
  done;
  let options = { M.Protocol.default_options with M.Protocol.check_convergence = false } in
  let t = M.Path_analysis.analyze ~options ~measurements ~signatures () in
  checki "two paths" 2 (List.length t.M.Path_analysis.paths);
  checkf 1e-9 "full coverage" 1. t.M.Path_analysis.analyzed_fraction;
  (match M.Path_analysis.pwcet_estimate t ~cutoff_probability:1e-9 with
  | Some v -> checkb "max across paths comes from slow path" true (v > 2000.)
  | None -> Alcotest.fail "expected estimate");
  (* most frequent path listed first *)
  match t.M.Path_analysis.paths with
  | first :: _ -> checki "frequent first" 2 first.M.Path_analysis.signature
  | [] -> Alcotest.fail "no paths"

let test_path_analysis_rare_path_residual () =
  let g = prng 1111L in
  let runs = 500 in
  let measurements =
    Array.init runs (fun _ ->
        S.Distribution.Gumbel.sample (S.Distribution.Gumbel.create ~mu:100. ~beta:5.) g)
  in
  (* 10 runs on a rare path *)
  let signatures = Array.init runs (fun i -> if i < 10 then 7 else 8) in
  let t = M.Path_analysis.analyze ~measurements ~signatures () in
  checkb "rare path not analyzed" true
    (List.exists
       (fun p ->
         p.M.Path_analysis.signature = 7
         &&
         match p.M.Path_analysis.analysis with
         | Error (M.Protocol.Not_enough_runs _) -> true
         | Error _ | Ok _ -> false)
       t.M.Path_analysis.paths);
  checkb "coverage below 1" true (t.M.Path_analysis.analyzed_fraction < 1.)

(* ------------------------------------------------------------------ *)
(* Schedulability *)

let mk_task name period budget =
  { M.Schedulability.name; period; deadline = period; budget }

let test_required_cutoff () =
  checkf 1e-20 "simple division" 1e-12
    (M.Schedulability.required_cutoff ~activations_per_hour:1e3
       ~target_failures_per_hour:1e-9);
  checkf 0. "clamped at 1" 1.
    (M.Schedulability.required_cutoff ~activations_per_hour:1.
       ~target_failures_per_hour:10.)

let test_rta_classic_example () =
  (* Textbook task set: C=(1,2,3), T=(4,6,10): R = 1, 3, 10. *)
  let tasks = [ mk_task "t1" 4. 1.; mk_task "t2" 6. 2.; mk_task "t3" 10. 3. ] in
  match M.Schedulability.response_times tasks with
  | [ r1; r2; r3 ] ->
      checkf 0. "r1" 1. r1.M.Schedulability.response_time;
      checkf 0. "r2" 3. r2.M.Schedulability.response_time;
      checkf 0. "r3" 10. r3.M.Schedulability.response_time;
      checkb "all meet deadlines" true (M.Schedulability.schedulable tasks)
  | _ -> Alcotest.fail "expected three responses"

let test_rta_unschedulable () =
  let tasks = [ mk_task "hog" 10. 9.; mk_task "starved" 20. 5. ] in
  checkb "overloaded set fails" false (M.Schedulability.schedulable tasks);
  match M.Schedulability.response_times tasks with
  | [ r1; r2 ] ->
      checkb "hog ok" true r1.M.Schedulability.meets_deadline;
      checkb "starved misses" false r2.M.Schedulability.meets_deadline
  | _ -> Alcotest.fail "expected two responses"

let test_utilization () =
  let tasks = [ mk_task "a" 10. 2.; mk_task "b" 20. 5. ] in
  checkf 1e-12 "U" 0.45 (M.Schedulability.utilization tasks)

let test_overrun_bound () =
  let tasks = [ mk_task "a" 10. 1.; mk_task "b" 10. 1. ] in
  checkf 1e-18 "union bound" 2e-6
    (M.Schedulability.overrun_rate_bound tasks ~cutoff:1e-9
       ~activations_per_hour:(fun _ -> 1000.))

(* ------------------------------------------------------------------ *)
(* Plot rendering *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let synthetic_analysis () =
  let g = prng 1212L in
  let xs = gumbel_sample g ~mu:10_000. ~beta:150. 2000 in
  match M.Protocol.analyze xs with
  | Ok a -> a
  | Error f -> Alcotest.failf "setup failed: %a" M.Protocol.pp_failure f

let test_exceedance_plot_renders () =
  let a = synthetic_analysis () in
  let plot = M.Ascii_plot.exceedance_plot a.M.Protocol.curve in
  checkb "has observations" true (String.contains plot 'o');
  checkb "has projection" true (String.contains plot '*');
  (* one row per decade plus header/footer *)
  let lines = String.split_on_char '\n' plot in
  checkb "15 decades plotted" true (List.length lines >= 17)

(* The full report under every tail model: a POT curve is defined only
   below its exceedance rate, and the plot must stay inside that domain. *)
let test_report_renders_every_tail () =
  let xs = gumbel_sample (prng 1212L) ~mu:10_000. ~beta:150. 2000 in
  List.iter
    (fun (name, tail) ->
      let options = { M.Protocol.default_options with M.Protocol.tail } in
      match M.Protocol.analyze ~options xs with
      | Error f -> Alcotest.failf "%s: analysis failed: %a" name M.Protocol.pp_failure f
      | Ok analysis ->
          let comparison = M.Report.compare ~analysis ~det_sample:xs () in
          let report = M.Report.render ~analysis ~comparison () in
          checkb (name ^ ": plot rendered") true (contains ~needle:"P(exceedance)" report);
          (* a '*' on a decade row, not the legend's *)
          checkb (name ^ ": projection drawn") true
            (List.exists
               (fun row -> String.starts_with ~prefix:"1e-" row && String.contains row '*')
               (String.split_on_char '\n' report)))
    [
      ("gumbel", M.Protocol.Gumbel);
      ("gev", M.Protocol.Gev);
      ("pot", M.Protocol.Pot);
      ("exp", M.Protocol.Exponential_pot);
    ]

let test_budget_of_curve_matches_estimate () =
  let a = synthetic_analysis () in
  let direct = E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:1e-9 in
  checkf 0. "alias" direct
    (M.Schedulability.budget_of_curve a.M.Protocol.curve ~cutoff_probability:1e-9)

let test_convergence_plot_renders () =
  let a = synthetic_analysis () in
  match a.M.Protocol.convergence with
  | Some c ->
      let plot = M.Ascii_plot.convergence_plot c.E.Convergence.history in
      checkb "non-empty" true (String.length plot > 0)
  | None -> Alcotest.fail "expected convergence"

(* ------------------------------------------------------------------ *)
(* Export *)

let count_lines s =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s

let test_export_samples_csv () =
  let csv = M.Export.samples_csv [| 10.; 20.; 30. |] in
  checki "header + 3 rows" 4 (count_lines csv);
  checkb "header" true (String.length csv > 12 && String.sub csv 0 12 = "index,cycles")

let test_export_samples_csv_label () =
  let csv = M.Export.samples_csv ~label:"DET" [| 1. |] in
  checkb "label column" true
    (List.exists (fun l -> l = "0,1,DET") (String.split_on_char '\n' csv))

let test_export_curve_csv () =
  let a = synthetic_analysis () in
  let csv = M.Export.curve_csv a.M.Protocol.curve in
  checkb "rows present" true (count_lines csv > 20)

let test_export_ecdf_csv () =
  let csv = M.Export.ecdf_csv [| 1.; 2.; 3.; 4. |] in
  (* 4 distinct values, max dropped (exceedance 0) -> 3 rows + header *)
  checki "rows" 4 (count_lines csv)

let test_export_roundtrip_file () =
  let path = Filename.temp_file "repro_export" ".csv" in
  M.Export.to_file ~path "a,b\n1,2\n";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  checkb "written" true (line = "a,b")

let test_qq_plot_renders () =
  let a = synthetic_analysis () in
  let curve = a.M.Protocol.curve in
  let maxima =
    E.Block_maxima.extract ~block_size:(E.Pwcet.block_size curve) a.M.Protocol.sample
  in
  match E.Pwcet.model curve with
  | E.Pwcet.Gumbel_tail g ->
      let plot =
        M.Ascii_plot.qq_plot ~data:maxima
          ~quantile:(S.Distribution.Gumbel.quantile g)
          ()
      in
      checkb "has points" true (String.contains plot '+');
      checkb "has diagonal" true (String.contains plot '.')
  | E.Pwcet.Gev_tail _ | E.Pwcet.Pot_tail _ -> Alcotest.fail "expected Gumbel"

(* ------------------------------------------------------------------ *)
(* Report + campaign integration on the real workload (scaled down) *)

let test_campaign_on_tvca () =
  let frames = 4 in
  let det = T.Experiment.create ~frames ~config:P.Config.deterministic ~base_seed:1L () in
  let rand = T.Experiment.create ~frames ~config:P.Config.mbpta_compliant ~base_seed:1L () in
  let input =
    {
      (M.Campaign.default_input
         ~measure_det:(fun i -> T.Experiment.measure det ~run_index:i)
         ~measure_rand:(fun i -> T.Experiment.measure rand ~run_index:i))
      with
      M.Campaign.runs = 1200;
      M.Campaign.options =
        {
          M.Protocol.default_options with
          M.Protocol.convergence_tolerance = 0.02;
        };
    }
  in
  let c =
    match M.Campaign.run input with
    | Ok c -> c
    | Error f -> Alcotest.failf "campaign failed outright: %a" M.Protocol.pp_failure f
  in
  (match c.M.Campaign.analysis with
  | Ok a ->
      checkb "iid accepted on RAND platform" true a.M.Protocol.iid.M.Iid.accepted;
      checkb "curve upper-bounds" true (E.Pwcet.upper_bounds_observations a.M.Protocol.curve)
  | Error f -> Alcotest.failf "campaign analysis failed: %a" M.Protocol.pp_failure f);
  (match c.M.Campaign.comparison with
  | Some cmp ->
      (* E4: averages within a few percent *)
      checkb "DET ~ RAND average" true (Float.abs cmp.M.Report.average_overhead < 0.05);
      (* E3 shape: pWCET at 1e-6 above max observed, below MBTA bound *)
      let p6 = List.assoc 1e-6 cmp.M.Report.pwcet_at in
      checkb "pWCET(1e-6) above max RAND observation" true
        (p6 >= S.Descriptive.max c.M.Campaign.rand_sample);
      checkb "pWCET(1e-6) competitive vs MBTA" true (p6 < cmp.M.Report.mbta.M.Mbta.bound)
  | None -> Alcotest.fail "expected comparison");
  let text = M.Campaign.render c in
  checkb "report mentions iid" true (contains ~needle:"i.i.d." text);
  checkb "report has pWCET ladder" true (contains ~needle:"pWCET" text)

let () =
  Alcotest.run "repro_mbpta"
    [
      ( "iid",
        [
          Alcotest.test_case "accepts iid" `Quick test_iid_accepts_iid;
          Alcotest.test_case "rejects autocorrelated" `Quick test_iid_rejects_autocorrelated;
          Alcotest.test_case "rejects drift" `Quick test_iid_rejects_distribution_drift;
          Alcotest.test_case "alpha respected" `Quick test_iid_alpha_respected;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "happy path" `Quick test_protocol_happy_path;
          Alcotest.test_case "not enough runs" `Quick test_protocol_not_enough_runs;
          Alcotest.test_case "iid failure" `Quick test_protocol_iid_failure_reported;
          Alcotest.test_case "tail choices" `Quick test_protocol_tail_choices;
          Alcotest.test_case "explicit block size" `Quick test_protocol_explicit_block_size;
          Alcotest.test_case "collect_and_analyze" `Quick test_protocol_collect_and_analyze;
          Alcotest.test_case "degenerate constant sample" `Quick
            test_protocol_degenerate_constant_sample;
          Alcotest.test_case "iid on constant sample" `Quick test_iid_on_constant_sample;
          Alcotest.test_case "standard cutoffs" `Quick test_standard_cutoffs;
        ] );
      ( "mbta",
        [
          Alcotest.test_case "bound" `Quick test_mbta_bound;
          Alcotest.test_case "default factor" `Quick test_mbta_default_factor;
          Alcotest.test_case "sensitivity" `Quick test_mbta_sensitivity;
        ] );
      ( "path-analysis",
        [
          Alcotest.test_case "groups and maxes" `Quick test_path_analysis_groups_and_maxes;
          Alcotest.test_case "rare path residual" `Quick test_path_analysis_rare_path_residual;
        ] );
      ( "schedulability",
        [
          Alcotest.test_case "required cutoff" `Quick test_required_cutoff;
          Alcotest.test_case "classic RTA" `Quick test_rta_classic_example;
          Alcotest.test_case "unschedulable" `Quick test_rta_unschedulable;
          Alcotest.test_case "utilization" `Quick test_utilization;
          Alcotest.test_case "overrun bound" `Quick test_overrun_bound;
          Alcotest.test_case "budget from curve" `Quick
            test_budget_of_curve_matches_estimate;
        ] );
      ( "plots",
        [
          Alcotest.test_case "exceedance plot" `Quick test_exceedance_plot_renders;
          Alcotest.test_case "report under every tail model" `Quick
            test_report_renders_every_tail;
          Alcotest.test_case "convergence plot" `Quick test_convergence_plot_renders;
        ] );
      ( "export",
        [
          Alcotest.test_case "samples csv" `Quick test_export_samples_csv;
          Alcotest.test_case "samples csv label" `Quick test_export_samples_csv_label;
          Alcotest.test_case "curve csv" `Quick test_export_curve_csv;
          Alcotest.test_case "ecdf csv" `Quick test_export_ecdf_csv;
          Alcotest.test_case "file roundtrip" `Quick test_export_roundtrip_file;
          Alcotest.test_case "qq plot" `Quick test_qq_plot_renders;
        ] );
      ( "integration",
        [ Alcotest.test_case "campaign on TVCA" `Slow test_campaign_on_tvca ] );
    ]
