(* Tests for the parallel/incremental analysis engine: every statistic the
   analysis computes must reproduce the committed golden fixture bit for
   bit, the fanned-out bootstrap must be bit-identical at every job count,
   the incremental convergence study must match the retired from-scratch
   implementation (kept here as the oracle) bit for bit, the single-pass
   ACF must equal the per-lag reference, and the comparison counter must
   stay within the O(n log n) budget the retired implementation would
   blow. *)

module S = Repro_stats
module E = Repro_evt
module M = Repro_mbpta
module P = Repro_platform
module T = Repro_tvca
module Prng = Repro_rng.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let check_raises_invalid msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  | exception Invalid_argument _ -> ()

let rand_sample =
  lazy
    (let e = T.Experiment.create ~config:P.Config.mbpta_compliant ~base_seed:2017L () in
     T.Experiment.collect e ~runs:3000)

let prefix n = Array.sub (Lazy.force rand_sample) 0 n

(* ------------------------------------------------------------------ *)
(* Bootstrap *)

let check_interval_eq msg (a : E.Bootstrap.interval) (b : E.Bootstrap.interval) =
  let checkf what = Alcotest.check (Alcotest.float 0.) (msg ^ ": " ^ what) in
  checkf "lower" a.E.Bootstrap.lower b.E.Bootstrap.lower;
  checkf "point" a.E.Bootstrap.point b.E.Bootstrap.point;
  checkf "upper" a.E.Bootstrap.upper b.E.Bootstrap.upper;
  checki (msg ^ ": replicates") a.E.Bootstrap.replicates b.E.Bootstrap.replicates

let bootstrap_interval ~jobs xs =
  E.Bootstrap.pwcet_interval ~replicates:60 ~jobs ~prng:(Prng.create 4321L) ~sample:xs
    ~cutoff_probability:1e-9 ()

let test_bootstrap_jobs_identical () =
  let xs = prefix 400 in
  let reference = bootstrap_interval ~jobs:1 xs in
  List.iter
    (fun jobs ->
      check_interval_eq
        (Printf.sprintf "jobs=%d vs jobs=1" jobs)
        reference (bootstrap_interval ~jobs xs))
    [ 2; 4 ]

let test_bootstrap_prng_discipline () =
  (* The caller's generator advances by exactly two 32-bit draws, no matter
     how many replicates ran or on how many domains. *)
  let xs = prefix 200 in
  let consumed jobs replicates =
    let prng = Prng.create 99L in
    ignore
      (E.Bootstrap.pwcet_interval ~replicates ~jobs ~prng ~sample:xs
         ~cutoff_probability:1e-9 ());
    Prng.bits32 prng
  in
  let reference = Prng.create 99L in
  ignore (Prng.bits32 reference);
  ignore (Prng.bits32 reference);
  let expected = Prng.bits32 reference in
  checki "jobs=1, 20 replicates" expected (consumed 1 20);
  checki "jobs=4, 60 replicates" expected (consumed 4 60)

let test_percentile_degenerate () =
  check_raises_invalid "empty replicate set" (fun () ->
      E.Bootstrap.percentile [||] 0.5);
  Alcotest.check (Alcotest.float 0.) "singleton returns its element" 42.
    (E.Bootstrap.percentile [| 42. |] 0.025);
  Alcotest.check (Alcotest.float 0.) "singleton ignores p" 42.
    (E.Bootstrap.percentile [| 42. |] 0.975)

let test_bootstrap_nan_poisons () =
  (* A sample carrying a NaN makes replicate fits NaN; the interval must
     report NaN bounds, never a finite band sorted around the NaNs. *)
  let xs = Array.init 100 (fun i -> 1000. +. float_of_int i) in
  xs.(57) <- Float.nan;
  let iv =
    E.Bootstrap.pwcet_interval ~replicates:40 ~prng:(Prng.create 7L) ~sample:xs
      ~cutoff_probability:1e-9 ()
  in
  checkb "lower is NaN" true (Float.is_nan iv.E.Bootstrap.lower);
  checkb "upper is NaN" true (Float.is_nan iv.E.Bootstrap.upper)

(* ------------------------------------------------------------------ *)
(* Convergence: retired from-scratch implementation, verbatim, as the
   bit-identity oracle for the incremental engine. *)

let retired_estimate_at xs probability =
  let block_size = E.Block_maxima.suggest_block_size (Array.length xs) in
  let maxima = E.Block_maxima.extract ~block_size xs in
  let gumbel = E.Gumbel_fit.fit ~method_:E.Gumbel_fit.Pwm maxima in
  let curve = E.Pwcet.create ~model:(E.Pwcet.Gumbel_tail gumbel) ~block_size ~sample:xs in
  E.Pwcet.estimate curve ~cutoff_probability:probability

let retired_study ?(probability = 1e-9) ?(step = 100) ?(tolerance = 0.01)
    ?(stable_steps = 3) ?(min_runs = 100) xs =
  let n = Array.length xs in
  let rec go used previous streak acc =
    if used > n then (false, n, List.rev acc)
    else begin
      let sub = Array.sub xs 0 used in
      let est = retired_estimate_at sub probability in
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

let history_pairs (c : E.Convergence.result) =
  List.map (fun p -> (p.E.Convergence.runs, p.E.Convergence.estimate)) c.E.Convergence.history

let check_against_oracle msg ?probability ?step ?tolerance xs =
  let r_conv, r_used, r_hist = retired_study ?probability ?step ?tolerance xs in
  let c = E.Convergence.study ?probability ?step ?tolerance xs in
  checkb (msg ^ ": converged") r_conv c.E.Convergence.converged;
  checki (msg ^ ": runs_used") r_used c.E.Convergence.runs_used;
  let pairs = history_pairs c in
  checki (msg ^ ": history length") (List.length r_hist) (List.length pairs);
  List.iter2
    (fun (ro, eo) (ri, ei) ->
      checki (msg ^ ": step runs") ro ri;
      Alcotest.check (Alcotest.float 0.) (msg ^ ": step estimate") eo ei)
    r_hist pairs

let test_convergence_oracle_prefixes () =
  (* Several prefix lengths: block size suggestions double at different
     points, so every doubling/extension path of the incremental engine is
     exercised. *)
  List.iter
    (fun n -> check_against_oracle (Printf.sprintf "n=%d" n) (prefix n))
    [ 150; 400; 1000; 3000 ];
  (* Non-default stepping, including a step that overshoots the sample. *)
  check_against_oracle "step=37" ~step:37 (prefix 500);
  check_against_oracle "step=5000 (single estimate)" ~step:5000 (prefix 500);
  check_against_oracle "tolerance=0 (full walk)" ~tolerance:0. (prefix 800)

let test_convergence_oracle_faulted () =
  (* Survivor samples from the SEU-injected runner: realistic, slightly
     irregular data (retries, discarded runs) through the same oracle. *)
  let e = T.Experiment.create ~config:P.Config.mbpta_compliant ~base_seed:77L () in
  let fault = T.Experiment.fault_config ~seu_rate:2.0 () in
  let survivors =
    List.init 300 (fun run_index ->
        match T.Experiment.run_faulty e ~fault ~run_index () with
        | T.Experiment.Completed { metrics; _ } ->
            Some (float_of_int (P.Metrics.cycles metrics))
        | _ -> None)
    |> List.filter_map Fun.id |> Array.of_list
  in
  checkb "enough survivors for a study" true (Array.length survivors >= 100);
  check_against_oracle "SEU survivors" survivors

let test_convergence_comparison_budget () =
  (* The counter the CI regression check pins: a full (never-converging)
     walk over n runs must stay within c * n * log2 n comparisons.  The
     retired implementation re-sorted every prefix, which alone costs
     ~sum_k (k*step) log2 (k*step) — several times this budget. *)
  let n = 3000 in
  let c = E.Convergence.study ~tolerance:0. (prefix n) in
  checkb "walked the whole sample" false c.E.Convergence.converged;
  let budget =
    int_of_float (6. *. float_of_int n *. (Float.log (float_of_int n) /. Float.log 2.))
  in
  checkb
    (Printf.sprintf "comparisons %d within budget %d" c.E.Convergence.comparisons budget)
    true
    (c.E.Convergence.comparisons <= budget);
  checkb "counter is live" true (c.E.Convergence.comparisons > 0)

(* ------------------------------------------------------------------ *)
(* ACF *)

let check_acf_equal msg xs ~max_lag =
  let per_lag = Array.init max_lag (fun i -> S.Autocorrelation.acf xs ~lag:(i + 1)) in
  let single = S.Autocorrelation.acf_up_to xs ~max_lag in
  checki (msg ^ ": length") max_lag (Array.length single);
  Array.iteri
    (fun i r ->
      Alcotest.check (Alcotest.float 0.)
        (Printf.sprintf "%s: lag %d" msg (i + 1))
        per_lag.(i) r)
    single

let test_acf_single_pass () =
  check_acf_equal "RAND sample" (prefix 500) ~max_lag:50;
  check_acf_equal "tie-heavy series"
    (Array.init 200 (fun i -> float_of_int (i mod 7)))
    ~max_lag:20;
  check_acf_equal "short series, max feasible lag"
    (Array.init 8 (fun i -> float_of_int (i * i)))
    ~max_lag:7;
  (* Every remainder of a block of four lags, and the shortest tails: a
     series one longer than the lag count leaves the top lag one term. *)
  for max_lag = 1 to 9 do
    check_acf_equal
      (Printf.sprintf "max_lag %d, n = max_lag + 1" max_lag)
      (prefix (max_lag + 1))
      ~max_lag;
    check_acf_equal (Printf.sprintf "max_lag %d, n = 500" max_lag) (prefix 500) ~max_lag
  done

let test_acf_degenerate () =
  let constant = Array.make 50 3.25 in
  let rs = S.Autocorrelation.acf_up_to constant ~max_lag:10 in
  Array.iteri
    (fun i r ->
      Alcotest.check (Alcotest.float 0.)
        (Printf.sprintf "constant series lag %d" (i + 1))
        0. r)
    rs;
  checki "max_lag 0 returns empty" 0
    (Array.length (S.Autocorrelation.acf_up_to (prefix 100) ~max_lag:0));
  check_raises_invalid "max_lag >= n" (fun () ->
      S.Autocorrelation.acf_up_to (Array.make 5 1.) ~max_lag:5)

(* ------------------------------------------------------------------ *)
(* Protocol: counters and the bootstrap interval are invariant in jobs. *)

let temp_path () =
  let path = Filename.temp_file "test_analysis_perf" ".jsonl" in
  Sys.remove path;
  path

let test_protocol_jobs_invariant () =
  let xs = prefix 1000 in
  let options =
    {
      M.Protocol.default_options with
      M.Protocol.gate_on_iid = false;
      M.Protocol.check_convergence = false;
      M.Protocol.bootstrap =
        Some { M.Protocol.default_bootstrap_options with M.Protocol.replicates = 40 };
    }
  in
  let run jobs =
    let path = temp_path () in
    let trace = M.Trace.create ~path () in
    let result = M.Protocol.analyze ~options ~jobs ~trace xs in
    let counters = M.Trace.Counters.snapshot (M.Trace.counters trace) in
    M.Trace.close trace;
    (try Sys.remove path with Sys_error _ -> ());
    match result with
    | Ok a -> (a, counters)
    | Error f -> Alcotest.failf "analyze (jobs=%d) failed: %a" jobs M.Protocol.pp_failure f
  in
  let a1, c1 = run 1 in
  let a4, c4 = run 4 in
  (match (a1.M.Protocol.bootstrap, a4.M.Protocol.bootstrap) with
  | Some i1, Some i4 -> check_interval_eq "analyze bootstrap jobs=4 vs jobs=1" i1 i4
  | _ -> Alcotest.fail "expected a bootstrap interval from both analyses");
  checkb "counter snapshots identical across jobs" true (c1 = c4);
  checki "bootstrap replicate counter" 40
    (try List.assoc "analysis.bootstrap_replicates" c1 with Not_found -> -1)

let test_protocol_convergence_counter () =
  let xs = prefix 3000 in
  let options =
    { M.Protocol.default_options with M.Protocol.gate_on_iid = false }
  in
  let path = temp_path () in
  let trace = M.Trace.create ~path () in
  let result = M.Protocol.analyze ~options ~trace xs in
  let counters = M.Trace.Counters.snapshot (M.Trace.counters trace) in
  M.Trace.close trace;
  (try Sys.remove path with Sys_error _ -> ());
  match result with
  | Error f -> Alcotest.failf "analyze failed: %a" M.Protocol.pp_failure f
  | Ok a ->
      let steps =
        match a.M.Protocol.convergence with
        | Some c -> List.length c.E.Convergence.history
        | None -> Alcotest.fail "expected a convergence study"
      in
      checki "analysis.convergence_steps matches the history" steps
        (try List.assoc "analysis.convergence_steps" counters with Not_found -> -1)

(* ------------------------------------------------------------------ *)
(* The committed golden fixture: one transcript of every statistic the
   analysis computes, recomputed through the public entry points and
   compared byte for byte with test/fixtures/analysis_golden.txt.  Every
   float is printed with %h, so the comparison is bit-exact.  On a mismatch
   the recomputed transcript is written next to the test executable in the
   build tree; after a change that legitimately alters an output,
   regenerate the fixture by copying that file over the committed one. *)

let analysis_fixture_path = Filename.concat "fixtures" "analysis_golden.txt"
let analysis_fixture_output = "analysis_golden.txt"

(* A seeded Splitmix sample of integer cycle counts around 2 * 10^5 with a
   Gumbel-shaped tail: the rounding makes ties common, as they are in
   measured execution times.  [trend] adds a drift per run, which the
   i.i.d. gates must reject. *)
let splitmix_sample ?(trend = 0.) ~seed n =
  let sm = Repro_rng.Splitmix.create seed in
  let xs = Array.make n 0. in
  for i = 0 to n - 1 do
    let bits = Int64.shift_right_logical (Repro_rng.Splitmix.next sm) 11 in
    let u = (Int64.to_float bits +. 0.5) *. 0x1p-53 in
    xs.(i) <- Float.round (200_000. +. (1_500. *. -.log (-.log u)) +. (trend *. float_of_int i))
  done;
  xs

(* The i.i.d. battery allocates nothing per element: on 10^5 cycle counts
   the Ljung-Box lags, both half sorts, the KS walk, the merge and the
   runs test add fewer than 1,000 minor-heap words between them.  Their
   arrays of thousands of floats go straight to the major heap; one boxed
   float per element would add 2 * 10^5 words.  A count, not a timing:
   it repeats exactly. *)
let test_iid_battery_minor_words () =
  let xs = splitmix_sample ~seed:2017L 100_000 in
  let before = Gc.minor_words () in
  let gate = M.Iid.gate xs in
  ignore (Sys.opaque_identity (M.Iid.complete gate xs));
  let sorted = Lazy.force gate.M.Iid.sorted in
  let words = Gc.minor_words () -. before in
  checki "sorted length" 100_000 (Array.length sorted);
  if words >= 1_000. then
    Alcotest.failf
      "Iid.gate + complete + the sorted sample on 10^5 floats added %.0f minor words, \
       want < 1,000"
      words

(* Words [f ()] allocates, minor and major heap together.  A full
   collection first, so that no collection of earlier garbage lands in
   the count: it then repeats exactly. *)
let allocated_words f =
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)

(* The gate's KS test on 10^5 cycle counts spanning 23,600 buckets
   counts its halves instead of sorting them: the gate allocates
   Ljung-Box's 10^5-float scratch and the two halves' histograms, 47,200
   ints, 147,244 words in all.  A copy of either half (5 * 10^4 floats)
   on top breaks the bound; the sort path, which copies both halves and
   sorts each with a scratch array, makes 304,144. *)
let test_gate_words () =
  let xs = splitmix_sample ~seed:2017L 100_000 in
  let words = allocated_words (fun () -> M.Iid.gate xs) in
  if words >= 160_000. then
    Alcotest.failf "Iid.gate on 10^5 cycle counts allocated %.0f words, want < 160,000" words

(* The convergence study on the same sample stops at 700 runs, and its
   buffers grow with the runs it reads: 20,148 words.  A buffer sized to
   the whole sample (10^5 floats) breaks the bound. *)
let test_study_words () =
  let xs = splitmix_sample ~seed:2017L 100_000 in
  let words = allocated_words (fun () -> E.Convergence.study xs) in
  if words >= 25_000. then
    Alcotest.failf "Convergence.study on 10^5 runs allocated %.0f words, want < 25,000" words

let digest_bits xs =
  let b = Buffer.create (8 * Array.length xs) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let read_text path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let analysis_transcript () =
  let b = Buffer.create 16_384 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let ks what (r : S.Ks.result) =
    line "  %s: D %h p %h same %b" what r.S.Ks.statistic r.S.Ks.p_value
      r.S.Ks.same_distribution
  in
  let ad what (r : S.Anderson_darling.result) =
    line "  %s: A2 %h p %h accepted %b" what r.S.Anderson_darling.statistic
      r.S.Anderson_darling.p_value r.S.Anderson_darling.accepted
  in
  let runs (r : S.Runs_test.result) =
    line "  runs: %d expected %h z %h p %h random %b" r.S.Runs_test.runs
      r.S.Runs_test.expected r.S.Runs_test.z r.S.Runs_test.p_value r.S.Runs_test.random
  in
  let iid (r : M.Iid.result) =
    let lb = r.M.Iid.ljung_box in
    line "  ljung-box: Q %h h %d p %h independent %b" lb.S.Ljung_box.statistic
      lb.S.Ljung_box.lags lb.S.Ljung_box.p_value lb.S.Ljung_box.independent;
    ks "two-sample ks" r.M.Iid.kolmogorov_smirnov;
    runs r.M.Iid.runs_diagnostic;
    line "  alpha %h accepted %b" r.M.Iid.alpha r.M.Iid.accepted
  in
  let convergence (c : E.Convergence.result) =
    line "  convergence: converged %b runs_used %d comparisons %d steps %d last %h"
      c.E.Convergence.converged c.E.Convergence.runs_used c.E.Convergence.comparisons
      (List.length c.E.Convergence.history)
      (match List.rev c.E.Convergence.history with
      | p :: _ -> p.E.Convergence.estimate
      | [] -> Float.nan)
  in
  let model = function
    | E.Pwcet.Gumbel_tail g ->
        line "  gumbel: mu %h beta %h" g.S.Distribution.Gumbel.mu g.S.Distribution.Gumbel.beta
    | E.Pwcet.Gev_tail g ->
        line "  gev: mu %h sigma %h xi %h" g.S.Distribution.Gev.mu g.S.Distribution.Gev.sigma
          g.S.Distribution.Gev.xi
    | E.Pwcet.Pot_tail p ->
        line "  pot: threshold %h sigma %h xi %h rate %h exceedances %d"
          p.E.Gpd_fit.Pot.threshold p.E.Gpd_fit.Pot.model.S.Distribution.Gpd.sigma
          p.E.Gpd_fit.Pot.model.S.Distribution.Gpd.xi p.E.Gpd_fit.Pot.exceedance_rate
          p.E.Gpd_fit.Pot.n_exceedances
  in
  let tail = function
    | Some (v : E.Tail_test.verdict) ->
        line "  tail: cv %h z %h p %h exponential %b" v.E.Tail_test.cv v.E.Tail_test.z
          v.E.Tail_test.p_value v.E.Tail_test.exponential
    | None -> line "  tail: none"
  in
  let analyze name ?(options = M.Protocol.default_options) xs =
    line "# Protocol.analyze %s (n %d)" name (Array.length xs);
    match M.Protocol.analyze ~options xs with
    | Error (M.Protocol.Iid_rejected r) ->
        line "  rejected: i.i.d.";
        iid r
    | Error (M.Protocol.Not_converged c) ->
        line "  rejected: not converged";
        convergence c
    | Error f -> line "  failed: %s" (Format.asprintf "%a" M.Protocol.pp_failure f)
    | Ok a ->
        iid a.M.Protocol.iid;
        Option.iter convergence a.M.Protocol.convergence;
        line "  block size %d" a.M.Protocol.block_size;
        model (E.Pwcet.model a.M.Protocol.curve);
        ks "goodness of fit ks" a.M.Protocol.goodness_of_fit;
        ad "goodness of fit ad" a.M.Protocol.goodness_of_fit_ad;
        tail a.M.Protocol.tail_diagnostic;
        let ecdf = E.Pwcet.sample_ecdf a.M.Protocol.curve in
        line "  ecdf: n %d sorted %s" (S.Ecdf.size ecdf) (digest_bits (S.Ecdf.sorted ecdf));
        line "  margin over observed at 1e-9: %h"
          (E.Pwcet.margin_over_observed a.M.Protocol.curve ~cutoff_probability:1e-9);
        List.iter (fun (p, v) -> line "  pwcet %h: %h" p v) (M.Protocol.pwcet_table a)
  in
  let small = splitmix_sample ~seed:2018L 3_000 in
  let large = splitmix_sample ~seed:2023L 100_000 in
  let with_tail tail = { M.Protocol.default_options with M.Protocol.tail } in
  analyze "default" small;
  analyze "gev" ~options:(with_tail M.Protocol.Gev) small;
  analyze "pot" ~options:(with_tail M.Protocol.Pot) small;
  analyze "exponential pot" ~options:(with_tail M.Protocol.Exponential_pot) small;
  analyze "gumbel mle"
    ~options:{ M.Protocol.default_options with M.Protocol.fit_method = `Mle }
    small;
  analyze "drifting" (splitmix_sample ~trend:2. ~seed:2018L 3_000);
  analyze "default" large;
  analyze "pot" ~options:(with_tail M.Protocol.Pot) large;
  analyze "two-sample ks rejects" (splitmix_sample ~seed:2019L 100_000);
  line "# Descriptive";
  let awkward = [| 3.; Float.nan; -1.; 1e300; 0.; neg_infinity; 2.5; 0x1p-1070; 3.; 7. |] in
  List.iter
    (fun (name, xs) ->
      let s = S.Descriptive.summarize xs in
      line "  summarize %s: n %d mean %h std %h min %h q1 %h median %h q3 %h max %h cv %h" name
        s.S.Descriptive.n s.S.Descriptive.mean s.S.Descriptive.std s.S.Descriptive.minimum
        s.S.Descriptive.q1 s.S.Descriptive.median s.S.Descriptive.q3 s.S.Descriptive.maximum
        s.S.Descriptive.cv;
      List.iter
        (fun p -> line "  quantile %s %h: %h" name p (S.Descriptive.quantile xs p))
        [ 0.; 0.1; 0.5; 0.9; 0.999; 1. ])
    [ ("small", small); ("large", large); ("awkward", awkward) ];
  line "# Ks, Anderson_darling, Runs_test, Ecdf";
  let evens, odds = S.Ks.split_halves small in
  ks "two-sample small halves" (S.Ks.two_sample evens odds);
  ks "two-sample small vs large" (S.Ks.two_sample small large);
  let gumbel = S.Distribution.Gumbel.create ~mu:200_000. ~beta:1_500. in
  ks "one-sample small vs gumbel" (S.Ks.one_sample small ~cdf:(S.Distribution.Gumbel.cdf gumbel));
  ad "anderson-darling small vs gumbel"
    (S.Anderson_darling.test small ~cdf:(S.Distribution.Gumbel.cdf gumbel));
  runs (S.Runs_test.test small);
  runs (S.Runs_test.test large);
  let ecdf = S.Ecdf.of_sample small in
  line "  ecdf small: cdf %h quantile %h ccdf points %d %s"
    (S.Ecdf.cdf ecdf 201_000.) (S.Ecdf.quantile ecdf 0.95)
    (List.length (S.Ecdf.ccdf_points ecdf))
    (digest_bits (Array.of_list (List.concat_map (fun (x, p) -> [ x; p ]) (S.Ecdf.ccdf_points ecdf))));
  line "# Gumbel_fit, Gev_fit, Gpd_fit, Tail_test on the small sample";
  let maxima = E.Block_maxima.extract ~block_size:16 small in
  List.iter
    (fun (name, method_) ->
      let g = E.Gumbel_fit.fit ~method_ maxima in
      line "  gumbel %s: mu %h beta %h" name g.S.Distribution.Gumbel.mu
        g.S.Distribution.Gumbel.beta)
    [ ("moments", E.Gumbel_fit.Moments); ("pwm", E.Gumbel_fit.Pwm); ("mle", E.Gumbel_fit.Mle) ];
  List.iter
    (fun (name, method_) ->
      let g = E.Gev_fit.fit ~method_ maxima in
      line "  gev %s: mu %h sigma %h xi %h" name g.S.Distribution.Gev.mu
        g.S.Distribution.Gev.sigma g.S.Distribution.Gev.xi)
    [ ("pwm", E.Gev_fit.Pwm); ("mle", E.Gev_fit.Mle) ];
  let lr, p = E.Gev_fit.gumbel_lr_test maxima in
  line "  gev lr test: %h p %h" lr p;
  List.iter
    (fun (name, method_) ->
      model (E.Pwcet.Pot_tail (E.Gpd_fit.Pot.analyze ~method_ small));
      line "  (pot %s)" name)
    [ ("pwm", E.Gpd_fit.Pwm); ("mle", E.Gpd_fit.Mle); ("exponential", E.Gpd_fit.Exponential) ];
  tail (Some (E.Tail_test.exponentiality small));
  line "  qq correlation %h" (E.Tail_test.qq_correlation small);
  line "# Bootstrap";
  let itv =
    E.Bootstrap.pwcet_interval ~replicates:40 ~prng:(Prng.create 77L) ~sample:small
      ~cutoff_probability:1e-9 ()
  in
  line "  interval: lower %h point %h upper %h" itv.E.Bootstrap.lower itv.E.Bootstrap.point
    itv.E.Bootstrap.upper;
  Buffer.contents b

let test_analysis_golden () =
  let got = analysis_transcript () in
  let want = try Some (read_text analysis_fixture_path) with Sys_error _ -> None in
  if want <> Some got then begin
    let oc = open_out_bin analysis_fixture_output in
    output_string oc got;
    close_out oc;
    let rec first_diff i = function
      | w :: ws, g :: gs -> if String.equal w g then first_diff (i + 1) (ws, gs) else (i, w, g)
      | w :: _, [] -> (i, w, "<end>")
      | [], g :: _ -> (i, "<end>", g)
      | [], [] -> (i, "", "")
    in
    let i, w, g =
      first_diff 1
        (String.split_on_char '\n' (Option.value want ~default:""), String.split_on_char '\n' got)
    in
    Alcotest.failf
      "analysis transcript differs from %s (line %d: fixture %S, now %S); the recomputed \
       transcript is in %s — copy it over test/%s if the change is intended"
      analysis_fixture_path i w g
      (Filename.concat (Sys.getcwd ()) analysis_fixture_output)
      analysis_fixture_path
  end

let () =
  Alcotest.run "analysis_perf"
    [
      ( "golden",
        [
          Alcotest.test_case "analysis transcript = committed fixture" `Quick
            test_analysis_golden;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "bit-identical across jobs" `Quick
            test_bootstrap_jobs_identical;
          Alcotest.test_case "caller PRNG advances exactly two draws" `Quick
            test_bootstrap_prng_discipline;
          Alcotest.test_case "percentile degenerate cases" `Quick
            test_percentile_degenerate;
          Alcotest.test_case "NaN sample poisons the interval" `Quick
            test_bootstrap_nan_poisons;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "incremental matches retired oracle" `Quick
            test_convergence_oracle_prefixes;
          Alcotest.test_case "oracle equality on SEU survivors" `Quick
            test_convergence_oracle_faulted;
          Alcotest.test_case "comparison budget is O(n log n)" `Quick
            test_convergence_comparison_budget;
        ] );
      ( "acf",
        [
          Alcotest.test_case "single pass equals per-lag reference" `Quick
            test_acf_single_pass;
          Alcotest.test_case "degenerate series" `Quick test_acf_degenerate;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "iid battery at 10^5 adds < 1,000 minor words" `Quick
            test_iid_battery_minor_words;
          Alcotest.test_case "Iid.gate at 10^5 allocates < 160,000 words" `Quick
            test_gate_words;
          Alcotest.test_case "Convergence.study at 10^5 allocates < 25,000 words" `Quick
            test_study_words;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "counters and interval invariant in jobs" `Quick
            test_protocol_jobs_invariant;
          Alcotest.test_case "convergence counter matches history" `Quick
            test_protocol_convergence_counter;
        ] );
    ]
