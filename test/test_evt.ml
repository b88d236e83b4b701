(* Tests for repro_evt: block maxima, Gumbel/GEV/GPD parameter recovery on
   synthetic data, pWCET curve semantics (block-size conversion, deep-tail
   accuracy, monotonicity, upper-bounding), the convergence criterion and
   the tail diagnostics. *)

module Prng = Repro_rng.Prng
module S = Repro_stats
module E = Repro_evt

let checkb = Alcotest.check Alcotest.bool

let close ?(tol = 1e-9) what expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected got

let relclose what ~tol expected got =
  if Float.abs ((got /. expected) -. 1.) > tol then
    Alcotest.failf "%s: expected ~%.6g, got %.6g" what expected got

let qtest = QCheck_alcotest.to_alcotest
let prng () = Prng.create 20250704L

(* ------------------------------------------------------------------ *)
(* Block maxima *)

let test_block_maxima_basic () =
  let xs = [| 1.; 5.; 2.; 8.; 3.; 4.; 9.; 0. |] in
  Alcotest.(check (array (float 0.)))
    "pairs" [| 5.; 8.; 4.; 9. |]
    (E.Block_maxima.extract ~block_size:2 xs);
  Alcotest.(check (array (float 0.)))
    "quads" [| 8.; 9. |]
    (E.Block_maxima.extract ~block_size:4 xs)

let test_block_maxima_drops_partial () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (array (float 0.)))
    "partial dropped" [| 2.; 4. |]
    (E.Block_maxima.extract ~block_size:2 xs)

let test_block_maxima_invalid () =
  Alcotest.check_raises "too few" (Invalid_argument
    "Block_maxima.extract: sample smaller than one block") (fun () ->
      ignore (E.Block_maxima.extract ~block_size:10 [| 1.; 2. |]))

let test_block_maxima_dominates =
  qtest
    (QCheck.Test.make ~name:"block max >= members" ~count:200
       QCheck.(pair (int_range 1 8) (list_of_size (Gen.int_range 8 64) (float_range 0. 100.)))
       (fun (b, xs) ->
         let a = Array.of_list xs in
         let maxima = E.Block_maxima.extract ~block_size:b a in
         Array.for_all
           (fun m -> Array.exists (fun x -> x = m) a)
           maxima))

(* [Block_maxima.max] is [Float.max] bit for bit on every pair of
   special values: signed zeros, infinities, subnormals and two NaN
   payloads, so a fold of it is the fold of [Float.max]. *)
let test_block_maxima_max_bits () =
  let specials =
    [
      Float.neg_infinity; -1.; -0.; 0.; Float.min_float; 5e-324; 1.; 229_049.;
      Float.max_float; Float.infinity; Float.nan; Int64.float_of_bits 0x7FF0000000000001L;
      Float.neg Float.nan;
    ]
  in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let bits = Int64.bits_of_float in
          if not (Int64.equal (bits (E.Block_maxima.max x y)) (bits (Float.max x y))) then
            Alcotest.failf "max %h %h = %h, Float.max gives %h" x y (E.Block_maxima.max x y)
              (Float.max x y))
        specials)
    specials

let test_suggest_block_size () =
  Alcotest.(check int) "small sample" 1 (E.Block_maxima.suggest_block_size 50);
  Alcotest.(check int) "3000 runs" 64 (E.Block_maxima.suggest_block_size 3000);
  Alcotest.(check int) "120 runs" 4 (E.Block_maxima.suggest_block_size 120);
  checkb "at least 30 maxima" true (3000 / E.Block_maxima.suggest_block_size 3000 >= 30)

(* ------------------------------------------------------------------ *)
(* Gumbel fitting: parameter recovery on synthetic Gumbel data *)

let gumbel_sample g ~mu ~beta n =
  let d = S.Distribution.Gumbel.create ~mu ~beta in
  Array.init n (fun _ -> S.Distribution.Gumbel.sample d g)

let test_gumbel_fit_recovery () =
  let g = prng () in
  let xs = gumbel_sample g ~mu:100. ~beta:7. 8000 in
  List.iter
    (fun (name, method_) ->
      let fit = E.Gumbel_fit.fit ~method_ xs in
      relclose (name ^ " mu") ~tol:0.01 100. fit.S.Distribution.Gumbel.mu;
      relclose (name ^ " beta") ~tol:0.05 7. fit.S.Distribution.Gumbel.beta)
    [ ("moments", E.Gumbel_fit.Moments); ("pwm", E.Gumbel_fit.Pwm); ("mle", E.Gumbel_fit.Mle) ]

let test_gumbel_fit_goodness () =
  let g = prng () in
  let xs = gumbel_sample g ~mu:50. ~beta:3. 3000 in
  let fit = E.Gumbel_fit.fit xs in
  let gof = S.Ks.one_sample xs ~cdf:(S.Distribution.Gumbel.cdf fit) in
  checkb "good fit accepted" true gof.S.Ks.same_distribution

let test_gumbel_fit_rejects_uniform () =
  (* A Gumbel fitted on uniform data should fail goodness of fit. *)
  let g = prng () in
  let xs = Array.init 3000 (fun _ -> Prng.float g) in
  let fit = E.Gumbel_fit.fit xs in
  let gof = S.Ks.one_sample xs ~cdf:(S.Distribution.Gumbel.cdf fit) in
  checkb "bad model rejected" false gof.S.Ks.same_distribution

let test_gumbel_mle_likelihood_at_least_pwm () =
  let g = prng () in
  let xs = gumbel_sample g ~mu:10. ~beta:2. 500 in
  let pwm = E.Gumbel_fit.fit ~method_:E.Gumbel_fit.Pwm xs in
  let mle = E.Gumbel_fit.fit ~method_:E.Gumbel_fit.Mle xs in
  let ll_pwm = S.Distribution.Gumbel.log_likelihood pwm xs in
  let ll_mle = S.Distribution.Gumbel.log_likelihood mle xs in
  checkb "MLE maximizes likelihood" true (ll_mle >= ll_pwm -. 1e-6)

(* ------------------------------------------------------------------ *)
(* GEV fitting *)

let gev_sample g ~mu ~sigma ~xi n =
  let d = S.Distribution.Gev.create ~mu ~sigma ~xi in
  Array.init n (fun _ -> S.Distribution.Gev.sample d g)

let test_gev_fit_recovery_positive_shape () =
  let g = prng () in
  let xs = gev_sample g ~mu:0. ~sigma:1. ~xi:0.25 20_000 in
  let fit = E.Gev_fit.fit ~method_:E.Gev_fit.Pwm xs in
  checkb "xi recovered" true (Float.abs (fit.S.Distribution.Gev.xi -. 0.25) < 0.05);
  checkb "sigma recovered" true (Float.abs (fit.S.Distribution.Gev.sigma -. 1.) < 0.05)

let test_gev_fit_recovery_negative_shape () =
  let g = prng () in
  let xs = gev_sample g ~mu:10. ~sigma:2. ~xi:(-0.2) 20_000 in
  let fit = E.Gev_fit.fit ~method_:E.Gev_fit.Mle xs in
  checkb "xi recovered" true (Float.abs (fit.S.Distribution.Gev.xi +. 0.2) < 0.05);
  checkb "mu recovered" true (Float.abs (fit.S.Distribution.Gev.mu -. 10.) < 0.1)

let test_gev_fit_gumbel_data_small_shape () =
  let g = prng () in
  let xs = gumbel_sample g ~mu:5. ~beta:1. 20_000 in
  let fit = E.Gev_fit.fit xs in
  checkb "xi near 0 for Gumbel data" true (Float.abs fit.S.Distribution.Gev.xi < 0.05)

let test_gumbel_lr_test () =
  let g = prng () in
  (* Under H0 (true Gumbel), the LR test should usually not reject. *)
  let xs = gumbel_sample g ~mu:0. ~beta:1. 2000 in
  let _, p_h0 = E.Gev_fit.gumbel_lr_test xs in
  checkb "H0 p-value not tiny" true (p_h0 > 0.001);
  (* Under a strongly bounded GEV, it should reject. *)
  let ys = gev_sample g ~mu:0. ~sigma:1. ~xi:(-0.4) 2000 in
  let _, p_h1 = E.Gev_fit.gumbel_lr_test ys in
  checkb "H1 rejected" true (p_h1 < 0.01)

(* ------------------------------------------------------------------ *)
(* GPD / POT *)

let test_gpd_fit_recovery () =
  let g = prng () in
  let d = S.Distribution.Gpd.create ~u:0. ~sigma:2. ~xi:0.15 in
  let excesses = Array.init 20_000 (fun _ -> S.Distribution.Gpd.sample d g) in
  List.iter
    (fun (name, method_) ->
      let fit = E.Gpd_fit.fit ~method_ ~threshold:0. excesses in
      relclose (name ^ " sigma") ~tol:0.08 2. fit.S.Distribution.Gpd.sigma;
      checkb (name ^ " xi") true (Float.abs (fit.S.Distribution.Gpd.xi -. 0.15) < 0.05))
    [ ("pwm", E.Gpd_fit.Pwm); ("mle", E.Gpd_fit.Mle) ]

let test_pot_analyze () =
  let g = prng () in
  let xs = Array.init 10_000 (fun _ -> Prng.exponential g) in
  let pot = E.Gpd_fit.Pot.analyze ~quantile:0.9 xs in
  close ~tol:0.02 "exceedance rate ~ 0.1" 0.1 pot.E.Gpd_fit.Pot.exceedance_rate;
  (* Exponential excesses: xi ~ 0 *)
  checkb "xi near 0" true (Float.abs pot.E.Gpd_fit.Pot.model.S.Distribution.Gpd.xi < 0.06)

let test_pot_quantile_inverts_survival () =
  let g = prng () in
  let xs = Array.init 10_000 (fun _ -> Prng.exponential g) in
  let pot = E.Gpd_fit.Pot.analyze xs in
  List.iter
    (fun p ->
      let v = E.Gpd_fit.Pot.quantile_of_exceedance pot p in
      relclose "pot roundtrip" ~tol:1e-6 p (E.Gpd_fit.Pot.survival pot v))
    [ 0.05; 0.01; 1e-4; 1e-9 ]

let test_pot_too_few_exceedances () =
  Alcotest.check_raises "needs exceedances"
    (Invalid_argument "Pot.analyze: fewer than 4 exceedances; lower the quantile")
    (fun () -> ignore (E.Gpd_fit.Pot.analyze ~quantile:0.9 [| 1.; 2.; 3. |]))

let test_gpd_exponential_method () =
  let g = prng () in
  let excesses = Array.init 5000 (fun _ -> 2.5 *. Prng.exponential g) in
  let fit = E.Gpd_fit.fit ~method_:E.Gpd_fit.Exponential ~threshold:10. excesses in
  close ~tol:1e-12 "xi forced to 0" 0. fit.S.Distribution.Gpd.xi;
  relclose "sigma = mean of excesses" ~tol:0.05 2.5 fit.S.Distribution.Gpd.sigma;
  close ~tol:1e-12 "threshold kept" 10. fit.S.Distribution.Gpd.u

let test_pot_exponential_conservative_vs_bounded () =
  (* On light- (sub-exponential) tailed data the exponential tail model
     must give estimates at least as large as the fitted-GPD one. *)
  let g = prng () in
  let xs = Array.init 8000 (fun _ -> Prng.float g) in
  let exp_pot = E.Gpd_fit.Pot.analyze ~method_:E.Gpd_fit.Exponential xs in
  let gpd_pot = E.Gpd_fit.Pot.analyze ~method_:E.Gpd_fit.Pwm xs in
  List.iter
    (fun p ->
      checkb "exponential tail conservative" true
        (E.Gpd_fit.Pot.quantile_of_exceedance exp_pot p
        >= E.Gpd_fit.Pot.quantile_of_exceedance gpd_pot p))
    [ 1e-4; 1e-6; 1e-9 ]

(* ------------------------------------------------------------------ *)
(* Bootstrap *)

let test_bootstrap_contains_point () =
  let g = prng () in
  let sample = gumbel_sample g ~mu:1000. ~beta:30. 2000 in
  let ci =
    E.Bootstrap.pwcet_interval ~replicates:60 ~prng:(Prng.create 5L) ~sample
      ~cutoff_probability:1e-9 ()
  in
  checkb "ordered" true (ci.E.Bootstrap.lower <= ci.E.Bootstrap.upper);
  checkb "point inside" true
    (ci.E.Bootstrap.point >= ci.E.Bootstrap.lower -. 1.
    && ci.E.Bootstrap.point <= ci.E.Bootstrap.upper +. 1.);
  checkb "interval nontrivial" true (ci.E.Bootstrap.upper > ci.E.Bootstrap.lower)

let test_bootstrap_narrows_with_n () =
  let g = prng () in
  let small = gumbel_sample g ~mu:1000. ~beta:30. 500 in
  let large = gumbel_sample g ~mu:1000. ~beta:30. 8000 in
  let width sample =
    let ci =
      E.Bootstrap.pwcet_interval ~replicates:60 ~prng:(Prng.create 6L) ~sample
        ~cutoff_probability:1e-9 ()
    in
    ci.E.Bootstrap.upper -. ci.E.Bootstrap.lower
  in
  checkb "more data, tighter interval" true (width large < width small)

let test_bootstrap_confidence_widens () =
  let g = prng () in
  let sample = gumbel_sample g ~mu:1000. ~beta:30. 2000 in
  let width confidence =
    let ci =
      E.Bootstrap.pwcet_interval ~replicates:100 ~confidence ~prng:(Prng.create 7L)
        ~sample ~cutoff_probability:1e-9 ()
    in
    ci.E.Bootstrap.upper -. ci.E.Bootstrap.lower
  in
  checkb "99% wider than 80%" true (width 0.99 > width 0.8)

(* ------------------------------------------------------------------ *)
(* pWCET curves *)

let synthetic_curve ?(block_size = 32) ?(n = 3200) () =
  let g = prng () in
  let sample = Array.init n (fun _ -> 1000. +. (10. *. Prng.gaussian g)) in
  let maxima = E.Block_maxima.extract ~block_size sample in
  let model = E.Gumbel_fit.fit maxima in
  E.Pwcet.create ~model:(E.Pwcet.Gumbel_tail model) ~block_size ~sample

let test_pwcet_estimate_monotone () =
  let curve = synthetic_curve () in
  let prev = ref neg_infinity in
  List.iter
    (fun p ->
      let v = E.Pwcet.estimate curve ~cutoff_probability:p in
      checkb "monotone in cutoff" true (v >= !prev);
      prev := v)
    [ 1e-3; 1e-6; 1e-9; 1e-12; 1e-15 ]

let test_pwcet_estimate_inverts_exceedance () =
  let curve = synthetic_curve () in
  List.iter
    (fun p ->
      let v = E.Pwcet.estimate curve ~cutoff_probability:p in
      relclose "exceedance roundtrip" ~tol:1e-3 p (E.Pwcet.exceedance_probability curve v))
    [ 1e-3; 1e-6; 1e-9; 1e-12 ]

let test_pwcet_block_size_consistency () =
  (* The same Gumbel tail declared with block size 1 vs 32 must give
     different per-run estimates, converging as p shrinks relative to b. *)
  let g = prng () in
  let sample = Array.init 3200 (fun _ -> 1000. +. (10. *. Prng.gaussian g)) in
  let maxima = E.Block_maxima.extract ~block_size:32 sample in
  let model = E.Gumbel_fit.fit maxima in
  let curve_b32 = E.Pwcet.create ~model:(E.Pwcet.Gumbel_tail model) ~block_size:32 ~sample in
  let curve_b1 = E.Pwcet.create ~model:(E.Pwcet.Gumbel_tail model) ~block_size:1 ~sample in
  let v32 = E.Pwcet.estimate curve_b32 ~cutoff_probability:1e-9 in
  let v1 = E.Pwcet.estimate curve_b1 ~cutoff_probability:1e-9 in
  (* The model describes maxima of 32 runs; misreading it as per-run
     (block_size 1) overstates the per-run tail, so the correctly converted
     estimate must be lower. *)
  checkb "block conversion tightens" true (v32 < v1)

let test_pwcet_upper_bounds_observations () =
  let curve = synthetic_curve () in
  checkb "curve upper-bounds tail" true (E.Pwcet.upper_bounds_observations curve)

let test_pwcet_margin () =
  let curve = synthetic_curve () in
  let m = E.Pwcet.margin_over_observed curve ~cutoff_probability:1e-9 in
  checkb "margin above 1" true (m > 1.);
  checkb "margin sane" true (m < 2.)

let test_pwcet_pot_rejects_blocks () =
  let g = prng () in
  let sample = Array.init 1000 (fun _ -> Prng.exponential g) in
  let pot = E.Gpd_fit.Pot.analyze sample in
  Alcotest.check_raises "POT wants block 1"
    (Invalid_argument "Pwcet.create: POT models describe per-run values (block_size 1)")
    (fun () ->
      ignore (E.Pwcet.create ~model:(E.Pwcet.Pot_tail pot) ~block_size:4 ~sample))

let test_pwcet_ccdf_series () =
  let curve = synthetic_curve () in
  let series = E.Pwcet.ccdf_series curve ~decades_below:15 in
  checkb "series non-empty" true (List.length series >= 28);
  List.iter (fun (_, p) -> checkb "probability in (0,1)" true (p > 0. && p < 1.)) series;
  (* values increase as probability decreases *)
  let rec monotone = function
    | (v1, p1) :: ((v2, p2) :: _ as rest) ->
        checkb "p decreasing" true (p2 < p1);
        checkb "v increasing" true (v2 >= v1);
        monotone rest
    | [ _ ] | [] -> ()
  in
  monotone series

let test_pwcet_gev_tail_curve () =
  let g = prng () in
  let d = S.Distribution.Gev.create ~mu:500. ~sigma:20. ~xi:0.1 in
  let sample = Array.init 2000 (fun _ -> S.Distribution.Gev.sample d g) in
  let model = E.Gev_fit.fit sample in
  let curve = E.Pwcet.create ~model:(E.Pwcet.Gev_tail model) ~block_size:1 ~sample in
  List.iter
    (fun p ->
      let v = E.Pwcet.estimate curve ~cutoff_probability:p in
      relclose "gev roundtrip" ~tol:1e-3 p (E.Pwcet.exceedance_probability curve v))
    [ 1e-3; 1e-6; 1e-12 ]

(* ------------------------------------------------------------------ *)
(* Convergence *)

let test_convergence_stable_sample () =
  let g = prng () in
  let xs = Array.init 3000 (fun _ -> 1000. +. (10. *. Prng.gaussian g)) in
  let r = E.Convergence.study xs in
  checkb "converges" true r.E.Convergence.converged;
  checkb "uses fewer than all runs" true (r.E.Convergence.runs_used <= 3000);
  checkb "history recorded" true (List.length r.E.Convergence.history >= 2)

let test_convergence_trending_sample () =
  (* A sample whose scale keeps growing must not converge early. *)
  let g = prng () in
  let xs = Array.init 2000 (fun i ->
      let scale = 1. +. (float_of_int i /. 200.) in
      1000. +. (scale *. 50. *. Float.abs (Prng.gaussian g)))
  in
  let r = E.Convergence.study ~tolerance:0.001 ~stable_steps:5 xs in
  checkb "late or no convergence" true
    ((not r.E.Convergence.converged) || r.E.Convergence.runs_used > 500)

let test_convergence_history_monotone_runs () =
  let g = prng () in
  let xs = Array.init 1000 (fun _ -> Prng.gaussian g) in
  let r = E.Convergence.study ~step:100 xs in
  let runs = List.map (fun p -> p.E.Convergence.runs) r.E.Convergence.history in
  checkb "runs increase" true (List.sort compare runs = runs)

(* ------------------------------------------------------------------ *)
(* Tail diagnostics *)

let test_exponentiality_accepts_exponential () =
  let g = prng () in
  let xs = Array.init 5000 (fun _ -> Prng.exponential g) in
  let v = E.Tail_test.exponentiality ~alpha:0.01 xs in
  checkb "exponential accepted" true v.E.Tail_test.exponential

let test_exponentiality_rejects_bounded () =
  let g = prng () in
  (* Uniform tails are much lighter than exponential: CV of excesses < 1. *)
  let xs = Array.init 5000 (fun _ -> Prng.float g) in
  let v = E.Tail_test.exponentiality ~alpha:0.05 xs in
  checkb "uniform tail rejected" false v.E.Tail_test.exponential

let test_qq_correlation_high_for_exponential () =
  let g = prng () in
  let xs = Array.init 5000 (fun _ -> Prng.exponential g) in
  checkb "qq correlation near 1" true (E.Tail_test.qq_correlation xs > 0.98)

let () =
  Alcotest.run "repro_evt"
    [
      ( "block-maxima",
        [
          Alcotest.test_case "basic" `Quick test_block_maxima_basic;
          Alcotest.test_case "drops partial" `Quick test_block_maxima_drops_partial;
          Alcotest.test_case "invalid input" `Quick test_block_maxima_invalid;
          test_block_maxima_dominates;
          Alcotest.test_case "max = Float.max, bit for bit" `Quick test_block_maxima_max_bits;
          Alcotest.test_case "suggest block size" `Quick test_suggest_block_size;
        ] );
      ( "gumbel-fit",
        [
          Alcotest.test_case "parameter recovery" `Slow test_gumbel_fit_recovery;
          Alcotest.test_case "goodness of fit" `Quick test_gumbel_fit_goodness;
          Alcotest.test_case "rejects uniform" `Quick test_gumbel_fit_rejects_uniform;
          Alcotest.test_case "MLE beats PWM likelihood" `Quick
            test_gumbel_mle_likelihood_at_least_pwm;
        ] );
      ( "gev-fit",
        [
          Alcotest.test_case "recovery xi>0" `Slow test_gev_fit_recovery_positive_shape;
          Alcotest.test_case "recovery xi<0" `Slow test_gev_fit_recovery_negative_shape;
          Alcotest.test_case "gumbel data" `Slow test_gev_fit_gumbel_data_small_shape;
          Alcotest.test_case "LR test" `Slow test_gumbel_lr_test;
        ] );
      ( "gpd-pot",
        [
          Alcotest.test_case "gpd recovery" `Slow test_gpd_fit_recovery;
          Alcotest.test_case "pot analyze" `Quick test_pot_analyze;
          Alcotest.test_case "pot roundtrip" `Quick test_pot_quantile_inverts_survival;
          Alcotest.test_case "pot too few" `Quick test_pot_too_few_exceedances;
          Alcotest.test_case "exponential method" `Quick test_gpd_exponential_method;
          Alcotest.test_case "exponential conservative" `Quick
            test_pot_exponential_conservative_vs_bounded;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "contains point" `Quick test_bootstrap_contains_point;
          Alcotest.test_case "narrows with n" `Quick test_bootstrap_narrows_with_n;
          Alcotest.test_case "confidence widens" `Quick test_bootstrap_confidence_widens;
        ] );
      ( "pwcet",
        [
          Alcotest.test_case "monotone" `Quick test_pwcet_estimate_monotone;
          Alcotest.test_case "inverts exceedance" `Quick test_pwcet_estimate_inverts_exceedance;
          Alcotest.test_case "block-size conversion" `Quick test_pwcet_block_size_consistency;
          Alcotest.test_case "upper bounds observations" `Quick
            test_pwcet_upper_bounds_observations;
          Alcotest.test_case "margin" `Quick test_pwcet_margin;
          Alcotest.test_case "POT rejects blocks" `Quick test_pwcet_pot_rejects_blocks;
          Alcotest.test_case "ccdf series" `Quick test_pwcet_ccdf_series;
          Alcotest.test_case "gev tail curve" `Quick test_pwcet_gev_tail_curve;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "stable sample" `Quick test_convergence_stable_sample;
          Alcotest.test_case "trending sample" `Quick test_convergence_trending_sample;
          Alcotest.test_case "history runs monotone" `Quick
            test_convergence_history_monotone_runs;
        ] );
      ( "tail",
        [
          Alcotest.test_case "accepts exponential" `Quick
            test_exponentiality_accepts_exponential;
          Alcotest.test_case "rejects bounded" `Quick test_exponentiality_rejects_bounded;
          Alcotest.test_case "qq correlation" `Quick test_qq_correlation_high_for_exponential;
        ] );
    ]
