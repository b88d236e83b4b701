(* Tests for repro_stats: special-function reference values, descriptive
   statistics, ECDF, distributions (closed-form values, quantile/cdf
   round-trips, sampling moments), independence/identical-distribution
   tests under H0 and H1, and the optimization toolkit. *)

module Prng = Repro_rng.Prng
module S = Repro_stats
module M = Repro_mbpta

let checkb = Alcotest.check Alcotest.bool

let close ?(tol = 1e-9) what expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected got

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Special functions *)

let test_log_gamma () =
  close "log_gamma 1" 0. (S.Special.log_gamma 1.);
  close "log_gamma 2" 0. (S.Special.log_gamma 2.);
  close ~tol:1e-10 "log_gamma 5" (log 24.) (S.Special.log_gamma 5.);
  close ~tol:1e-10 "log_gamma 0.5" (log (sqrt Float.pi)) (S.Special.log_gamma 0.5);
  (* ln Gamma(10.5) = ln(9.5 * 8.5 * ... * 0.5 * sqrt pi) *)
  let reference =
    List.fold_left (fun a x -> a +. log x) (log (sqrt Float.pi))
      [ 0.5; 1.5; 2.5; 3.5; 4.5; 5.5; 6.5; 7.5; 8.5; 9.5 ]
  in
  close ~tol:1e-9 "log_gamma 10.5" reference (S.Special.log_gamma 10.5)

let test_gamma_p_exponential () =
  (* P(1, x) = 1 - exp(-x) *)
  List.iter
    (fun x -> close ~tol:1e-10 "P(1,x)" (1. -. exp (-.x)) (S.Special.gamma_p ~a:1. ~x))
    [ 0.; 0.1; 1.; 2.5; 10. ]

let test_gamma_p_q_complement =
  qtest
    (QCheck.Test.make ~name:"P + Q = 1" ~count:300
       QCheck.(pair (float_range 0.05 20.) (float_range 0. 40.))
       (fun (a, x) ->
         Float.abs (S.Special.gamma_p ~a ~x +. S.Special.gamma_q ~a ~x -. 1.) < 1e-9))

let test_erf_values () =
  close ~tol:1e-7 "erf 1" 0.8427007929497149 (S.Special.erf 1.);
  close ~tol:1e-7 "erf -1" (-0.8427007929497149) (S.Special.erf (-1.));
  close "erf 0" 0. (S.Special.erf 0.)

let test_normal_cdf_values () =
  close ~tol:1e-7 "Phi 0" 0.5 (S.Special.normal_cdf 0.);
  close ~tol:1e-7 "Phi 1.96" 0.9750021048517795 (S.Special.normal_cdf 1.96);
  close ~tol:1e-7 "Phi -1.96" 0.0249978951482205 (S.Special.normal_cdf (-1.96))

let test_chi_square_df1 () =
  (* For df=1: survival(x) = 2 (1 - Phi(sqrt x)). *)
  List.iter
    (fun x ->
      close ~tol:1e-8 "chi2 df1"
        (2. *. (1. -. S.Special.normal_cdf (sqrt x)))
        (S.Special.chi_square_survival ~df:1 x))
    [ 0.5; 1.; 3.84; 10. ]

let test_chi_square_df2 () =
  (* For df=2 the chi-square is exponential with rate 1/2. *)
  List.iter
    (fun x ->
      close ~tol:1e-10 "chi2 df2" (exp (-.x /. 2.)) (S.Special.chi_square_survival ~df:2 x))
    [ 0.1; 1.; 5.99; 20. ]

let test_kolmogorov_survival () =
  close ~tol:2e-3 "K median" 0.5 (S.Special.kolmogorov_survival 0.82757);
  close ~tol:2e-3 "K 5% critical" 0.05 (S.Special.kolmogorov_survival 1.3581);
  close "K at 0" 1. (S.Special.kolmogorov_survival 0.);
  checkb "monotone" true
    (S.Special.kolmogorov_survival 0.5 > S.Special.kolmogorov_survival 1.0)

let test_betainc_closed_forms () =
  (* I_x(1, 1) = x: Beta(1,1) is the uniform distribution. *)
  List.iter
    (fun x -> close ~tol:1e-12 "I_x(1,1)" x (S.Special.betainc ~a:1. ~b:1. ~x))
    [ 0.; 0.125; 0.5; 0.75; 1. ];
  (* I_x(1/2, 1/2) = (2/pi) arcsin(sqrt x) — the arcsine distribution. *)
  List.iter
    (fun x ->
      close ~tol:1e-10 "I_x(.5,.5)"
        (2. /. Float.pi *. asin (sqrt x))
        (S.Special.betainc ~a:0.5 ~b:0.5 ~x))
    [ 0.01; 0.3; 0.5; 0.9; 0.99 ];
  (* I_x(2, 2) = x^2 (3 - 2x). *)
  List.iter
    (fun x ->
      close ~tol:1e-12 "I_x(2,2)"
        (x *. x *. (3. -. (2. *. x)))
        (S.Special.betainc ~a:2. ~b:2. ~x))
    [ 0.1; 0.4; 0.5; 0.8 ]

let test_betainc_symmetry =
  qtest
    (QCheck.Test.make ~name:"I_x(a,b) = 1 - I_(1-x)(b,a)" ~count:300
       QCheck.(triple (float_range 0.1 20.) (float_range 0.1 20.) (float_range 0. 1.))
       (fun (a, b, x) ->
         Float.abs
           (S.Special.betainc ~a ~b ~x +. S.Special.betainc ~a:b ~b:a ~x:(1. -. x) -. 1.)
         < 1e-9))

let test_student_t_survival_cauchy () =
  (* df = 1 is the Cauchy distribution: S(t) = 1/2 - atan(t)/pi. *)
  List.iter
    (fun t ->
      close ~tol:1e-10 "t-survival df=1"
        (0.5 -. (atan t /. Float.pi))
        (S.Special.student_t_survival ~df:1. t))
    [ -5.; -1.; 0.; 0.5; 1.; 3.; 12. ]

let test_student_t_survival_df2 () =
  (* df = 2 has the closed form S(t) = 1/2 (1 - t / sqrt(2 + t^2)). *)
  List.iter
    (fun t ->
      close ~tol:1e-10 "t-survival df=2"
        (0.5 *. (1. -. (t /. sqrt (2. +. (t *. t)))))
        (S.Special.student_t_survival ~df:2. t))
    [ -4.; -0.5; 0.; 1.; 2.92; 10. ]

let test_student_t_survival_limits () =
  close "t-survival at 0" 0.5 (S.Special.student_t_survival ~df:7. 0.);
  close "t-survival +inf" 0. (S.Special.student_t_survival ~df:3. Float.infinity);
  close "t-survival -inf" 1. (S.Special.student_t_survival ~df:3. Float.neg_infinity);
  checkb "t-survival nan" true (Float.is_nan (S.Special.student_t_survival ~df:3. Float.nan));
  (* Large df approaches the normal survival function. *)
  close ~tol:1e-4 "t-survival df=1e6 ~ normal" (1. -. S.Special.normal_cdf 1.96)
    (S.Special.student_t_survival ~df:1e6 1.96)

(* ------------------------------------------------------------------ *)
(* Welch's t-test and effect size *)

let test_welch_known_value () =
  (* Equal n, equal variance: t = diff / sqrt(2 s^2 / n) and the
     Welch-Satterthwaite df collapses to 2n - 2 = 8.  scipy reference:
     ttest_ind([1..5], [2..6], equal_var=False) -> t = -1.0, p = 0.3466. *)
  let a = [| 1.; 2.; 3.; 4.; 5. |] and b = [| 2.; 3.; 4.; 5.; 6. |] in
  let r = S.Welch.t_test a b in
  close ~tol:1e-12 "t" (-1.) r.S.Welch.t_statistic;
  close ~tol:1e-9 "df" 8. r.S.Welch.df;
  close ~tol:1e-4 "p" 0.34659 r.S.Welch.p_value;
  close "mean_a" 3. r.S.Welch.mean_a;
  close "mean_b" 4. r.S.Welch.mean_b;
  checkb "equal means at alpha=0.05" true r.S.Welch.equal_means;
  (* Consistency with the incomplete beta the p-value is built from. *)
  let df = r.S.Welch.df and t = Float.abs r.S.Welch.t_statistic in
  close ~tol:1e-12 "p from betainc"
    (S.Special.betainc ~a:(df /. 2.) ~b:0.5 ~x:(df /. (df +. (t *. t))))
    r.S.Welch.p_value

let test_welch_identical_samples () =
  let xs = [| 10.; 11.; 12.; 13. |] in
  let r = S.Welch.t_test xs (Array.copy xs) in
  close "t" 0. r.S.Welch.t_statistic;
  close "p" 1. r.S.Welch.p_value;
  checkb "equal" true r.S.Welch.equal_means

let test_welch_zero_variance () =
  (* Both samples constant and equal: no evidence of a difference. *)
  let r = S.Welch.t_test [| 5.; 5.; 5. |] [| 5.; 5.; 5. |] in
  close "t equal constants" 0. r.S.Welch.t_statistic;
  close "p equal constants" 1. r.S.Welch.p_value;
  (* Both constant but different: the difference is certain. *)
  let r = S.Welch.t_test [| 5.; 5.; 5. |] [| 7.; 7.; 7. |] in
  checkb "t -inf" true (r.S.Welch.t_statistic = Float.neg_infinity);
  close "p different constants" 0. r.S.Welch.p_value;
  checkb "leak verdict" false r.S.Welch.equal_means;
  (* One sample constant: df falls back to the other sample's n - 1. *)
  let r = S.Welch.t_test [| 5.; 5.; 5. |] [| 6.; 7.; 8.; 9. |] in
  close ~tol:1e-9 "df one-constant" 3. r.S.Welch.df;
  checkb "p finite" true (r.S.Welch.p_value >= 0. && r.S.Welch.p_value <= 1.)

let test_welch_detects_shift () =
  let g = Prng.create 11L in
  let a = Array.init 200 (fun _ -> Prng.gaussian g) in
  let b = Array.init 200 (fun _ -> 1.5 +. Prng.gaussian g) in
  let r = S.Welch.t_test a b in
  checkb "shift detected" false r.S.Welch.equal_means;
  checkb "p tiny" true (r.S.Welch.p_value < 1e-6)

let test_welch_symmetry =
  qtest
    (QCheck.Test.make ~name:"welch t(a,b) = -t(b,a), same p" ~count:200
       QCheck.(
         pair
           (list_of_size (Gen.int_range 2 30) (float_range (-100.) 100.))
           (list_of_size (Gen.int_range 2 30) (float_range (-100.) 100.)))
       (fun (la, lb) ->
         let a = Array.of_list la and b = Array.of_list lb in
         let r1 = S.Welch.t_test a b and r2 = S.Welch.t_test b a in
         Float.abs (r1.S.Welch.t_statistic +. r2.S.Welch.t_statistic) < 1e-9
         || r1.S.Welch.t_statistic = -.r2.S.Welch.t_statistic (* infinities *))
       )

let test_welch_extreme_variance_df_finite () =
  (* va ~ 1e300 is representable but the naive Welch-Satterthwaite
     formula squares va/na (overflow past ~1e154) and returns nan; the
     log-space implementation keeps df finite. *)
  let a = [| 1e150; 2e150; 3e150 |] and b = [| 1.; 2.; 3. |] in
  let r = S.Welch.t_test a b in
  checkb "df finite" true (Float.is_finite r.S.Welch.df);
  close ~tol:1e-9 "df -> n_a - 1" 2. r.S.Welch.df;
  checkb "p in range" true (r.S.Welch.p_value >= 0. && r.S.Welch.p_value <= 1.);
  (* Past representability the sample variance itself overflows; the df
     falls back to the dominant sample's n - 1 instead of going nan. *)
  let r = S.Welch.t_test [| 1e160; 2e160; 3e160 |] b in
  close ~tol:1e-9 "df overflow fallback" 2. r.S.Welch.df;
  close "p under infinite noise" 1. r.S.Welch.p_value

let test_cohens_d () =
  (* means 2 vs 4, pooled variance ((2*1)+(2*1))/4 = 1 -> d = -2. *)
  close ~tol:1e-12 "d" (-2.) (S.Effect_size.cohens_d [| 1.; 2.; 3. |] [| 3.; 4.; 5. |]);
  close "d identical" 0. (S.Effect_size.cohens_d [| 1.; 2. |] [| 1.; 2. |]);
  (* Zero pooled variance: 0 when means agree, signed infinity otherwise. *)
  close "d constant equal" 0. (S.Effect_size.cohens_d [| 4.; 4. |] [| 4.; 4. |]);
  checkb "d constant unequal" true
    (S.Effect_size.cohens_d [| 4.; 4. |] [| 5.; 5. |] = Float.neg_infinity);
  Alcotest.(check string) "negligible" "negligible" (S.Effect_size.magnitude 0.1);
  Alcotest.(check string) "small" "small" (S.Effect_size.magnitude (-0.3));
  Alcotest.(check string) "medium" "medium" (S.Effect_size.magnitude 0.6);
  Alcotest.(check string) "large" "large" (S.Effect_size.magnitude (-2.))

(* ------------------------------------------------------------------ *)
(* Descriptive *)

let test_descriptive_basics () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  close "mean" 5. (S.Descriptive.mean xs);
  close ~tol:1e-12 "sample variance" (32. /. 7.) (S.Descriptive.sample_variance xs);
  close "min" 2. (S.Descriptive.min xs);
  close "max" 9. (S.Descriptive.max xs);
  close "median" 4.5 (S.Descriptive.median xs)

let test_quantile_interpolation () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  close "q0" 1. (S.Descriptive.quantile xs 0.);
  close "q1" 4. (S.Descriptive.quantile xs 1.);
  close "q50" 2.5 (S.Descriptive.quantile xs 0.5);
  close ~tol:1e-12 "q25" 1.75 (S.Descriptive.quantile xs 0.25)

let test_summary_consistency =
  qtest
    (QCheck.Test.make ~name:"summary fields consistent" ~count:200
       QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-1e3) 1e3))
       (fun xs ->
         let a = Array.of_list xs in
         let s = S.Descriptive.summarize a in
         s.S.Descriptive.minimum <= s.S.Descriptive.q1
         && s.S.Descriptive.q1 <= s.S.Descriptive.median
         && s.S.Descriptive.median <= s.S.Descriptive.q3
         && s.S.Descriptive.q3 <= s.S.Descriptive.maximum
         && s.S.Descriptive.n = Array.length a))

(* ------------------------------------------------------------------ *)
(* ECDF *)

let test_ecdf_basics () =
  let e = S.Ecdf.of_sample [| 3.; 1.; 2. |] in
  close "cdf below" 0. (S.Ecdf.cdf e 0.5);
  close ~tol:1e-12 "cdf mid" (2. /. 3.) (S.Ecdf.cdf e 2.);
  close "cdf top" 1. (S.Ecdf.cdf e 3.)

let test_ecdf_ties () =
  let e = S.Ecdf.of_sample [| 1.; 1.; 1.; 2. |] in
  close "ties counted" 0.75 (S.Ecdf.cdf e 1.);
  let points = S.Ecdf.points e in
  Alcotest.(check int) "two distinct points" 2 (List.length points)

let test_ecdf_monotone =
  qtest
    (QCheck.Test.make ~name:"ecdf cdf is monotone" ~count:200
       QCheck.(
         pair
           (list_of_size (Gen.int_range 1 60) (float_range (-100.) 100.))
           (pair (float_range (-150.) 150.) (float_range (-150.) 150.)))
       (fun (xs, (a, b)) ->
         let e = S.Ecdf.of_sample (Array.of_list xs) in
         let lo = Float.min a b and hi = Float.max a b in
         S.Ecdf.cdf e lo <= S.Ecdf.cdf e hi))

let test_ecdf_ccdf_points_positive () =
  let e = S.Ecdf.of_sample (Array.init 100 float_of_int) in
  List.iter
    (fun (_, p) -> checkb "exceedance in (0,1)" true (p > 0. && p < 1.))
    (S.Ecdf.ccdf_points e)

(* ------------------------------------------------------------------ *)
(* Distributions *)

let prng () = Prng.create 4242L

let test_gumbel_closed_form () =
  let d = S.Distribution.Gumbel.create ~mu:0. ~beta:1. in
  close ~tol:1e-12 "cdf at 0" (exp (-1.)) (S.Distribution.Gumbel.cdf d 0.);
  close ~tol:1e-9 "median" (-.log (log 2.)) (S.Distribution.Gumbel.quantile d 0.5)

let test_gumbel_survival_tail () =
  (* survival must stay meaningful at 1e-15-scale probabilities *)
  let d = S.Distribution.Gumbel.create ~mu:0. ~beta:1. in
  let v = S.Distribution.Gumbel.quantile_of_exceedance d 1e-15 in
  let back = S.Distribution.Gumbel.survival d v in
  checkb "tail roundtrip" true (Float.abs ((back /. 1e-15) -. 1.) < 1e-3)

let test_gumbel_roundtrip =
  qtest
    (QCheck.Test.make ~name:"gumbel quantile/cdf roundtrip" ~count:300
       QCheck.(
         triple (float_range 0.01 0.99) (float_range (-100.) 100.) (float_range 0.1 50.))
       (fun (p, mu, beta) ->
         let d = S.Distribution.Gumbel.create ~mu ~beta in
         Float.abs (S.Distribution.Gumbel.cdf d (S.Distribution.Gumbel.quantile d p) -. p)
         < 1e-9))

let test_gev_gumbel_limit () =
  (* xi -> 0 must agree with the Gumbel special case *)
  let gumbel = S.Distribution.Gumbel.create ~mu:10. ~beta:2. in
  let gev = S.Distribution.Gev.create ~mu:10. ~sigma:2. ~xi:1e-12 in
  List.iter
    (fun x ->
      close ~tol:1e-9 "cdf agree" (S.Distribution.Gumbel.cdf gumbel x)
        (S.Distribution.Gev.cdf gev x))
    [ 5.; 10.; 15.; 30. ]

let test_gev_roundtrip =
  qtest
    (QCheck.Test.make ~name:"gev quantile/cdf roundtrip" ~count:300
       QCheck.(
         triple (float_range 0.01 0.99) (float_range (-0.45) 0.45) (float_range 0.1 20.))
       (fun (p, xi, sigma) ->
         let d = S.Distribution.Gev.create ~mu:0. ~sigma ~xi in
         Float.abs (S.Distribution.Gev.cdf d (S.Distribution.Gev.quantile d p) -. p) < 1e-8))

(* With xi < 0 the support ends at mu - sigma / xi, here 2: beyond it the
   cdf is exactly 1. *)
let test_gev_upper_bound () =
  let bounded = S.Distribution.Gev.create ~mu:0. ~sigma:1. ~xi:(-0.5) in
  close "cdf beyond the bound" 1. (S.Distribution.Gev.cdf bounded 2.1)

let test_gpd_exponential_case () =
  (* xi = 0 reduces to a shifted exponential *)
  let d = S.Distribution.Gpd.create ~u:5. ~sigma:2. ~xi:0. in
  close ~tol:1e-12 "cdf" (1. -. exp (-1.)) (S.Distribution.Gpd.cdf d 7.);
  close ~tol:1e-9 "quantile" (5. +. (2. *. log 2.)) (S.Distribution.Gpd.quantile d 0.5)

let test_gpd_roundtrip =
  qtest
    (QCheck.Test.make ~name:"gpd quantile/cdf roundtrip" ~count:300
       QCheck.(
         triple (float_range 0.01 0.99) (float_range (-0.45) 0.45) (float_range 0.1 20.))
       (fun (p, xi, sigma) ->
         let d = S.Distribution.Gpd.create ~u:0. ~sigma ~xi in
         Float.abs (S.Distribution.Gpd.cdf d (S.Distribution.Gpd.quantile d p) -. p) < 1e-8))

let test_sampling_matches_cdf () =
  (* KS one-sample of each sampler against its own cdf *)
  let g = prng () in
  let n = 4000 in
  let check_dist name cdf sample =
    let xs = Array.init n (fun _ -> sample ()) in
    let r = S.Ks.one_sample ~alpha:0.001 xs ~cdf in
    checkb (name ^ " sampler matches cdf") true r.S.Ks.same_distribution
  in
  let gum = S.Distribution.Gumbel.create ~mu:3. ~beta:2. in
  check_dist "gumbel" (S.Distribution.Gumbel.cdf gum) (fun () ->
      S.Distribution.Gumbel.sample gum g);
  let gev = S.Distribution.Gev.create ~mu:0. ~sigma:1. ~xi:0.2 in
  check_dist "gev" (S.Distribution.Gev.cdf gev) (fun () -> S.Distribution.Gev.sample gev g);
  let gpd = S.Distribution.Gpd.create ~u:0. ~sigma:1. ~xi:(-0.2) in
  check_dist "gpd" (S.Distribution.Gpd.cdf gpd) (fun () -> S.Distribution.Gpd.sample gpd g)

(* ------------------------------------------------------------------ *)
(* Autocorrelation / Ljung-Box *)

let test_acf_white_noise () =
  let g = prng () in
  let xs = Array.init 5000 (fun _ -> Prng.gaussian g) in
  let r1 = S.Autocorrelation.acf xs ~lag:1 in
  checkb "white noise acf ~ 0" true (Float.abs r1 < 0.05)

let test_acf_of_ar1 () =
  (* AR(1) with phi = 0.8 has acf(1) ~ 0.8 *)
  let g = prng () in
  let n = 20000 in
  let xs = Array.make n 0. in
  for i = 1 to n - 1 do
    xs.(i) <- (0.8 *. xs.(i - 1)) +. Prng.gaussian g
  done;
  checkb "ar1 acf near phi" true (Float.abs (S.Autocorrelation.acf xs ~lag:1 -. 0.8) < 0.05)

let test_acf_up_to_length () =
  let xs = Array.init 100 float_of_int in
  Alcotest.(check int) "lags" 10 (Array.length (S.Autocorrelation.acf_up_to xs ~max_lag:10))

let test_ljung_box_white_noise () =
  let g = prng () in
  let rejections = ref 0 in
  for _ = 1 to 40 do
    let xs = Array.init 500 (fun _ -> Prng.gaussian g) in
    let r = S.Ljung_box.test ~alpha:0.05 xs in
    if not r.S.Ljung_box.independent then incr rejections
  done;
  (* 5% nominal level: allow up to 20% empirical in 40 trials *)
  checkb "few false rejections" true (!rejections <= 8)

let test_ljung_box_rejects_ar1 () =
  let g = prng () in
  let n = 1000 in
  let xs = Array.make n 0. in
  for i = 1 to n - 1 do
    xs.(i) <- (0.7 *. xs.(i - 1)) +. Prng.gaussian g
  done;
  let r = S.Ljung_box.test ~alpha:0.05 xs in
  checkb "dependent series rejected" false r.S.Ljung_box.independent

let test_ljung_box_p_uniform () =
  (* p-values under H0 should not pile up near 0 *)
  let g = prng () in
  let small = ref 0 in
  let trials = 60 in
  for _ = 1 to trials do
    let xs = Array.init 400 (fun _ -> Prng.gaussian g) in
    let r = S.Ljung_box.test xs in
    if r.S.Ljung_box.p_value < 0.1 then incr small
  done;
  checkb "p-values roughly uniform" true (!small <= trials / 3)

(* ------------------------------------------------------------------ *)
(* KS tests *)

let test_ks_same_distribution () =
  let g = prng () in
  let xs = Array.init 1500 (fun _ -> Prng.gaussian g) in
  let ys = Array.init 1500 (fun _ -> Prng.gaussian g) in
  let r = S.Ks.two_sample ~alpha:0.01 xs ys in
  checkb "same distribution accepted" true r.S.Ks.same_distribution

let test_ks_detects_shift () =
  let g = prng () in
  let xs = Array.init 1000 (fun _ -> Prng.gaussian g) in
  let ys = Array.init 1000 (fun _ -> Prng.gaussian g +. 0.5) in
  let r = S.Ks.two_sample ~alpha:0.05 xs ys in
  checkb "shift detected" false r.S.Ks.same_distribution

let test_ks_statistic_disjoint () =
  (* completely disjoint samples have D = 1 *)
  let xs = [| 1.; 2.; 3. |] and ys = [| 10.; 11.; 12. |] in
  let r = S.Ks.two_sample xs ys in
  close "D = 1" 1. r.S.Ks.statistic

let test_ks_one_sample_uniform () =
  let g = prng () in
  let xs = Array.init 2000 (fun _ -> Prng.float g) in
  let r =
    S.Ks.one_sample ~alpha:0.01 xs ~cdf:(fun x ->
        if x < 0. then 0. else if x > 1. then 1. else x)
  in
  checkb "uniform sample accepted" true r.S.Ks.same_distribution

let test_ks_one_sample_wrong_model () =
  let g = prng () in
  let xs = Array.init 2000 (fun _ -> Prng.float g) in
  let r = S.Ks.one_sample ~alpha:0.05 xs ~cdf:S.Special.normal_cdf in
  checkb "wrong model rejected" false r.S.Ks.same_distribution

let test_split_halves () =
  let a, b = S.Ks.split_halves [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (array (float 0.))) "evens" [| 1.; 3.; 5. |] a;
  Alcotest.(check (array (float 0.))) "odds" [| 2.; 4. |] b

let test_ks_symmetry =
  qtest
    (QCheck.Test.make ~name:"two-sample KS is symmetric" ~count:100
       QCheck.(
         pair
           (list_of_size (Gen.int_range 2 40) (float_range 0. 10.))
           (list_of_size (Gen.int_range 2 40) (float_range 0. 10.)))
       (fun (xs, ys) ->
         let a = Array.of_list xs and b = Array.of_list ys in
         let r1 = S.Ks.two_sample a b and r2 = S.Ks.two_sample b a in
         Float.abs (r1.S.Ks.statistic -. r2.S.Ks.statistic) < 1e-12))

(* ------------------------------------------------------------------ *)
(* Anderson-Darling *)

let test_ad_accepts_true_model () =
  let g = prng () in
  let xs = Array.init 2000 (fun _ -> Prng.float g) in
  let r =
    S.Anderson_darling.test xs ~cdf:(fun x ->
        if x < 0. then 0. else if x > 1. then 1. else x)
  in
  checkb "uniform vs uniform accepted" true r.S.Anderson_darling.accepted

let test_ad_rejects_wrong_model () =
  let g = prng () in
  let xs = Array.init 2000 (fun _ -> Prng.float g) in
  let r = S.Anderson_darling.test xs ~cdf:S.Special.normal_cdf in
  checkb "uniform vs normal rejected" false r.S.Anderson_darling.accepted;
  checkb "tiny p" true (r.S.Anderson_darling.p_value <= 0.01)

let test_ad_more_tail_sensitive_than_ks () =
  (* contaminate only the extreme tail: AD should flag it at least as
     strongly as KS (relative p-values) *)
  let g = prng () in
  let xs =
    Array.init 2000 (fun i ->
        if i < 12 then 0.999999 +. (1e-7 *. Prng.float g) else Prng.float g)
  in
  let cdf x = if x < 0. then 0. else if x > 1. then 1. else x in
  let ad = S.Anderson_darling.test xs ~cdf in
  checkb "tail contamination caught by AD" false ad.S.Anderson_darling.accepted

let test_ad_alpha_validation () =
  checkb "bad alpha rejected" true
    (try
       ignore (S.Anderson_darling.test ~alpha:0.2 [| 1.; 2.; 3.; 4.; 5. |] ~cdf:(fun x -> x /. 6.));
       false
     with Invalid_argument _ -> true)

let test_ad_statistic_reference () =
  (* A2 for the perfectly spaced uniform sample is small and positive *)
  let xs = Array.init 99 (fun i -> float_of_int (i + 1) /. 100.) in
  let r = S.Anderson_darling.test xs ~cdf:(fun x -> x) in
  checkb "near-perfect fit has tiny statistic" true
    (r.S.Anderson_darling.statistic < 0.3 && r.S.Anderson_darling.accepted)

(* ------------------------------------------------------------------ *)
(* Runs test *)

let test_runs_random_series () =
  let g = prng () in
  let xs = Array.init 1000 (fun _ -> Prng.gaussian g) in
  let r = S.Runs_test.test ~alpha:0.01 xs in
  checkb "random accepted" true r.S.Runs_test.random

let test_runs_rejects_trend () =
  let xs = Array.init 200 float_of_int in
  let r = S.Runs_test.test ~alpha:0.05 xs in
  checkb "monotone trend rejected" false r.S.Runs_test.random

(* ------------------------------------------------------------------ *)
(* Optimization *)

let test_golden_section_parabola () =
  let xmin =
    S.Optimize.golden_section ~f:(fun x -> (x -. 3.) ** 2.) ~lo:(-10.) ~hi:10. ()
  in
  close ~tol:1e-6 "parabola min" 3. xmin

let test_nelder_mead_quadratic () =
  let f v = ((v.(0) -. 1.) ** 2.) +. (2. *. ((v.(1) +. 2.) ** 2.)) in
  let best, value = S.Optimize.nelder_mead ~f ~start:[| 0.; 0. |] () in
  checkb "x near 1" true (Float.abs (best.(0) -. 1.) < 1e-3);
  checkb "y near -2" true (Float.abs (best.(1) +. 2.) < 1e-3);
  checkb "value near 0" true (value < 1e-6)

let test_nelder_mead_with_barrier () =
  (* objective returning infinity outside the feasible region *)
  let f v = if v.(0) <= 0. then infinity else v.(0) -. log v.(0) in
  let best, _ = S.Optimize.nelder_mead ~f ~start:[| 2. |] () in
  close ~tol:1e-3 "barrier min at 1" 1. best.(0)

(* ------------------------------------------------------------------ *)
(* Golden values: frozen outputs of the i.i.d. test statistics on fixed
   vectors.  These pin the numerics across refactors (the PR 3 guard and
   sorting sweep must not move a single bit of any verdict). *)

let lb_vec =
  [|
    12.0; 15.3; 11.8; 14.2; 13.7; 12.9; 16.1; 11.5; 13.3; 14.8;
    12.4; 15.9; 13.1; 12.7; 14.5; 11.9; 15.2; 13.8; 12.2; 14.0;
    13.5; 12.8; 15.6; 11.7; 13.9; 14.3; 12.5; 15.0; 13.2; 12.6;
  |]

let ks_a = [| 1.2; 3.4; 2.2; 5.1; 4.4; 0.7; 3.9; 2.8; 1.6; 4.9 |]
let ks_b = [| 2.1; 3.3; 6.0; 4.1; 5.5; 1.9; 4.7; 3.0; 2.5; 5.9 |]

let test_ljung_box_golden () =
  let r = S.Ljung_box.test lb_vec in
  Alcotest.(check int) "lags" 6 r.S.Ljung_box.lags;
  close ~tol:1e-9 "Q" 50.472344381939351 r.S.Ljung_box.statistic;
  close ~tol:1e-12 "p" 3.7798198192164671e-09 r.S.Ljung_box.p_value;
  checkb "rejected" false r.S.Ljung_box.independent;
  (* Strong even/odd alternation: much larger Q, even smaller p. *)
  let trend = Array.init 30 (fun i -> float_of_int i +. if i mod 2 = 0 then 0.5 else 0.) in
  let t = S.Ljung_box.test trend in
  close ~tol:1e-9 "Q trend" 96.759959838287244 t.S.Ljung_box.statistic;
  checkb "trend rejected" false t.S.Ljung_box.independent

let test_ljung_box_constant () =
  (* Constant series: every autocorrelation is defined as 0, so Q = 0 and
     independence trivially stands. *)
  let r = S.Ljung_box.test (Array.make 12 7.5) in
  close "Q constant" 0. r.S.Ljung_box.statistic;
  close "p constant" 1. r.S.Ljung_box.p_value;
  checkb "constant accepted" true r.S.Ljung_box.independent

let test_ks_two_sample_golden () =
  let r = S.Ks.two_sample ks_a ks_b in
  (* D is pure rank arithmetic — pinned exactly. *)
  close ~tol:0. "D" 0.30000000000000004 r.S.Ks.statistic;
  close ~tol:1e-9 "p" 0.67507815371659508 r.S.Ks.p_value;
  checkb "same distribution" true r.S.Ks.same_distribution

let test_ks_ties_and_constant () =
  (* Tie-heavy samples exercise the <= / < boundary of the ECDF walk. *)
  let tie_a = [| 1.; 1.; 1.; 2.; 2.; 3.; 3.; 3.; 3.; 4. |] in
  let tie_b = [| 1.; 2.; 2.; 2.; 3.; 3.; 4.; 4.; 4.; 4. |] in
  let r = S.Ks.two_sample tie_a tie_b in
  close ~tol:0. "D ties" 0.30000000000000004 r.S.Ks.statistic;
  close ~tol:1e-9 "p ties" 0.67507815371659508 r.S.Ks.p_value;
  (* Identical constant samples: D = 0, p = 1 (not NaN, not a crash). *)
  let c = S.Ks.two_sample (Array.make 10 3.) (Array.make 10 3.) in
  close "D constant" 0. c.S.Ks.statistic;
  close "p constant" 1. c.S.Ks.p_value;
  checkb "constant same" true c.S.Ks.same_distribution

(* A NaN is one value below every other, as the sort kernel orders it:
   the walk passes it instead of stalling on it. *)
let test_ks_nan () =
  let r = S.Ks.two_sample [| nan; 1.; 2.; 3. |] [| 1.; 2.; 3.; 4. |] in
  close ~tol:0. "D, NaN in the first sample" 0.25 r.S.Ks.statistic;
  let r = S.Ks.two_sample [| 1.; 2.; 3.; 4. |] [| 3.; nan; 1.; 2. |] in
  close ~tol:0. "D, NaN in the second sample" 0.25 r.S.Ks.statistic;
  let r = S.Ks.two_sample [| nan; 2.; -.nan; 1. |] [| 1.; 2.; nan; 3. |] in
  close ~tol:0. "D, NaNs of two payloads in both" 0.25 r.S.Ks.statistic

let test_ks_one_sample_golden () =
  let r = S.Ks.one_sample ks_a ~cdf:(fun x -> 1. -. exp (-.x /. 3.)) in
  close ~tol:1e-12 "D" 0.22967995396436067 r.S.Ks.statistic;
  close ~tol:1e-9 "p" 0.60723690569178634 r.S.Ks.p_value

(* ------------------------------------------------------------------ *)
(* Input guards: every kernel must reject malformed input by raising
   [Invalid_argument] — even under -noassert, which the dedicated CI job
   compiles with (an [assert] would silently vanish there). *)

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_guards_survive_noassert () =
  expect_invalid "ljung-box n<10" (fun () -> S.Ljung_box.test (Array.make 9 1.));
  expect_invalid "ljung-box lags" (fun () -> S.Ljung_box.test ~lags:30 (Array.make 30 1.));
  expect_invalid "ks two empty" (fun () -> S.Ks.two_sample [||] ks_b);
  expect_invalid "ks one empty" (fun () -> S.Ks.one_sample [||] ~cdf:(fun _ -> 0.5));
  expect_invalid "ks two_halves n<2" (fun () -> S.Ks.two_halves [| 1. |]);
  expect_invalid "span empty" (fun () -> S.Descriptive.span [||]);
  (match S.Descriptive.span [| 1.; 3. |] with
  | None -> Alcotest.fail "span of [1; 3]: expected Some"
  | Some s ->
      expect_invalid "count_halves: more buckets than values" (fun () ->
          S.Descriptive.count_halves s [| 1.; 3. |]));
  (match S.Descriptive.span [| 2.; 3.; 2. |] with
  | None -> Alcotest.fail "span of [2; 3; 2]: expected Some"
  | Some s ->
      expect_invalid "sort_counted: counts of another span" (fun () ->
          S.Descriptive.sort_counted s [| 1; 1 |]));
  expect_invalid "runs n<20" (fun () -> S.Runs_test.test (Array.make 19 1.));
  expect_invalid "mean empty" (fun () -> S.Descriptive.mean [||]);
  expect_invalid "summarize empty" (fun () -> S.Descriptive.summarize [||]);
  expect_invalid "sample_variance n<2" (fun () -> S.Descriptive.sample_variance [| 1. |]);
  expect_invalid "quantile p" (fun () -> S.Descriptive.quantile [| 1.; 2. |] 1.5);
  expect_invalid "ecdf empty" (fun () -> S.Ecdf.of_sample [||]);
  expect_invalid "ecdf quantile p" (fun () ->
      S.Ecdf.quantile (S.Ecdf.of_sample [| 1.; 2. |]) (-0.1));
  expect_invalid "acf lag" (fun () -> S.Autocorrelation.acf [| 1.; 2.; 3. |] ~lag:3);
  expect_invalid "log_gamma 0" (fun () -> S.Special.log_gamma 0.);
  expect_invalid "gamma_p a=0" (fun () -> S.Special.gamma_p ~a:0. ~x:1.);
  expect_invalid "gamma_q x<0" (fun () -> S.Special.gamma_q ~a:1. ~x:(-1.));
  expect_invalid "chi2 df=0" (fun () -> S.Special.chi_square_survival ~df:0 1.);
  expect_invalid "golden_section" (fun () ->
      S.Optimize.golden_section ~f:(fun x -> x) ~lo:1. ~hi:0. ());
  expect_invalid "nelder_mead empty" (fun () ->
      S.Optimize.nelder_mead ~f:(fun _ -> 0.) ~start:[||] ());
  expect_invalid "gumbel beta" (fun () -> S.Distribution.Gumbel.create ~mu:0. ~beta:0.);
  expect_invalid "gumbel quantile" (fun () ->
      S.Distribution.Gumbel.quantile (S.Distribution.Gumbel.create ~mu:0. ~beta:1.) 1.);
  expect_invalid "gev sigma" (fun () ->
      S.Distribution.Gev.create ~mu:0. ~sigma:0. ~xi:0.1);
  expect_invalid "gpd sigma" (fun () -> S.Distribution.Gpd.create ~u:0. ~sigma:0. ~xi:0.1);
  expect_invalid "betainc a=0" (fun () -> S.Special.betainc ~a:0. ~b:1. ~x:0.5);
  expect_invalid "betainc x>1" (fun () -> S.Special.betainc ~a:1. ~b:1. ~x:1.5);
  expect_invalid "t-survival df=0" (fun () -> S.Special.student_t_survival ~df:0. 1.);
  expect_invalid "welch n_a<2" (fun () -> S.Welch.t_test [| 1. |] [| 1.; 2. |]);
  expect_invalid "welch n_b<2" (fun () -> S.Welch.t_test [| 1.; 2. |] [||]);
  expect_invalid "welch alpha=0" (fun () ->
      S.Welch.t_test ~alpha:0. [| 1.; 2. |] [| 1.; 2. |]);
  expect_invalid "welch alpha=1" (fun () ->
      S.Welch.t_test ~alpha:1. [| 1.; 2. |] [| 1.; 2. |]);
  expect_invalid "cohens_d n<2" (fun () -> S.Effect_size.cohens_d [| 1. |] [| 1.; 2. |])

(* ------------------------------------------------------------------ *)
(* [summarize] bit-identity: the single-sort single-mean implementation
   must reproduce the retired multi-pass one bit for bit.  The reference
   below is a verbatim reimplementation of the pre-refactor code. *)

let old_quantile xs p =
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let old_summarize xs =
  let n = Array.length xs in
  let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs) in
  let centered_moment xs k =
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** float_of_int k)) 0. xs
    /. float_of_int (Array.length xs)
  in
  let sample_std xs =
    sqrt (centered_moment xs 2 *. float_of_int n /. float_of_int (n - 1))
  in
  {
    S.Descriptive.n;
    mean = mean xs;
    std = (if n >= 2 then sample_std xs else 0.);
    minimum = Array.fold_left Float.min xs.(0) xs;
    maximum = Array.fold_left Float.max xs.(0) xs;
    median = old_quantile xs 0.5;
    q1 = old_quantile xs 0.25;
    q3 = old_quantile xs 0.75;
    cv = (if n >= 2 && mean xs <> 0. then sample_std xs /. mean xs else 0.);
  }

let same_bits what a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %h <> %h" what a b

let check_summary_identical xs =
  let o = old_summarize xs and s = S.Descriptive.summarize xs in
  Alcotest.(check int) "n" o.S.Descriptive.n s.S.Descriptive.n;
  same_bits "mean" o.S.Descriptive.mean s.S.Descriptive.mean;
  same_bits "std" o.S.Descriptive.std s.S.Descriptive.std;
  same_bits "min" o.S.Descriptive.minimum s.S.Descriptive.minimum;
  same_bits "max" o.S.Descriptive.maximum s.S.Descriptive.maximum;
  same_bits "median" o.S.Descriptive.median s.S.Descriptive.median;
  same_bits "q1" o.S.Descriptive.q1 s.S.Descriptive.q1;
  same_bits "q3" o.S.Descriptive.q3 s.S.Descriptive.q3;
  same_bits "cv" o.S.Descriptive.cv s.S.Descriptive.cv

let test_summarize_bit_identity () =
  check_summary_identical lb_vec;
  check_summary_identical ks_a;
  check_summary_identical [| 42. |];
  check_summary_identical [| 3.; 3.; 3.; 3. |];
  check_summary_identical [| -1.5; 0.; 2.5; -7.25; 1e9; 1e-9 |]

let test_summarize_bit_identity_random =
  qtest
    (QCheck.Test.make ~name:"summarize bit-identical to multi-pass reference" ~count:200
       QCheck.(list_of_size (Gen.int_range 2 64) (float_range (-1e6) 1e6))
       (fun l ->
         check_summary_identical (Array.of_list l);
         true))

(* ------------------------------------------------------------------ *)
(* The float sort kernel against the Stdlib.  Inputs mix duplicates,
   infinities, subnormals, -0. with +0. and NaNs with several payloads; the
   lengths cover 0, 1, the kernel's insertion cutoff (8) plus and minus
   one, and a non-power-of-two length of 10^4 and more.  The seed is
   pinned so every run checks the same inputs. *)

let nan_payloads =
  List.map Int64.float_of_bits
    [ 0x7FF8000000000000L; 0x7FF8000000000001L; 0xFFF8000000000000L; 0x7FFFFFFFFFFFFFFFL ]

let awkward_float =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            ([ 0.; -0.; infinity; neg_infinity; 0x1p-1074; -0x1p-1074; 0x1.fffffffffffffp-1023;
               Float.min_float; Float.max_float; 1.; -1. ]
            @ nan_payloads) );
        (3, map float_of_int (int_range (-4) 4));
        (2, float);
      ])

let sort_input =
  QCheck.make
    ~print:(fun a ->
      String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)))
    QCheck.Gen.(
      frequency
        [ (2, oneofl [ 0; 1; 7; 8; 9 ]); (4, int_range 2 200); (1, int_range 10_000 10_050) ]
      >>= fun n -> array_size (return n) awkward_float)

let bits a = Array.map Int64.bits_of_float a

let kernel_sorted a =
  let s = Array.copy a in
  S.Descriptive.sort s;
  s

let sort_test ?(input = sort_input) name prop =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| 14 |])
    (QCheck.Test.make ~name ~count:300 input prop)

(* The four order properties, over any input generator. *)
let permutation_prop a =
  let sorted_bits x =
    let b = bits x in
    Array.sort Int64.compare b;
    b
  in
  sorted_bits (kernel_sorted a) = sorted_bits a

let non_decreasing_prop a =
  let s = kernel_sorted a in
  let ok = ref true in
  for i = 1 to Array.length s - 1 do
    if Float.compare s.(i - 1) s.(i) > 0 then ok := false
  done;
  !ok

(* The stable sorted permutation is unique, so stability is bit-identity
   with the Stdlib's stable sort: equal-comparing elements (-0. and +0.,
   NaNs of different payloads) keep their input order. *)
let stable_prop a =
  let s = Array.copy a in
  Array.stable_sort Float.compare s;
  bits (kernel_sorted a) = bits s

(* With -0. folded into +0. and every NaN into one payload, equal-comparing
   elements are bit-identical, and the kernel must then reproduce the
   Stdlib's unstable sort bit for bit. *)
let matches_stdlib_prop a =
  let a = Array.map (fun x -> if Float.is_nan x then Float.nan else x +. 0.) a in
  let s = Array.copy a in
  Array.sort Float.compare s;
  bits (kernel_sorted a) = bits s

let test_sort_permutation =
  sort_test "output is a permutation of the input bits" permutation_prop

let test_sort_non_decreasing =
  sort_test "output is non-decreasing under Float.compare" non_decreasing_prop

let test_sort_stable =
  sort_test "stable: bit-identical to Array.stable_sort Float.compare" stable_prop

let test_sort_matches_stdlib =
  sort_test "bit-identical to Array.sort Float.compare without distinct equal elements"
    matches_stdlib_prop

(* Integer-valued floats shaped like measured cycle counts: whole arrays
   drawn from 216,736 to 230,002 (the range of perfbench/rand3000.txt),
   whose low bytes are all zero and whose top bytes never vary, or the
   same counts mixed with integer-valued floats up to +-2^40.  The lengths
   add 255 to 257 to the insertion cutoff plus and minus one. *)
let cycle_count = QCheck.Gen.(map float_of_int (int_range 216_736 230_002))

let wide_integer =
  QCheck.Gen.(
    frequency
      [ (3, cycle_count); (1, map float_of_int (int_range (-(1 lsl 40)) (1 lsl 40))) ])

let cycle_count_input =
  QCheck.make
    ~print:(fun a -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") a)))
    QCheck.Gen.(
      frequency
        [
          (2, oneofl [ 0; 1; 7; 8; 9; 255; 256; 257 ]);
          (4, int_range 2 3000);
          (1, int_range 10_000 10_050);
        ]
      >>= fun n -> oneof [ array_size (return n) cycle_count; array_size (return n) wide_integer ])

let cycle_sort_test name prop =
  sort_test ~input:cycle_count_input ("cycle counts: " ^ name) prop

let test_cycle_sort_permutation = cycle_sort_test "permutation of the input bits" permutation_prop
let test_cycle_sort_non_decreasing = cycle_sort_test "non-decreasing" non_decreasing_prop
let test_cycle_sort_stable = cycle_sort_test "= Array.stable_sort Float.compare" stable_prop
let test_cycle_sort_matches_stdlib = cycle_sort_test "= Array.sort Float.compare" matches_stdlib_prop

let test_merge_sorted =
  sort_test "merge_sorted of two sorted halves = sort of the whole" (fun a ->
      let k = Array.length a / 3 in
      let x = kernel_sorted (Array.sub a 0 k)
      and y = kernel_sorted (Array.sub a k (Array.length a - k)) in
      bits (S.Descriptive.merge_sorted x y) = bits (kernel_sorted a))

(* ------------------------------------------------------------------ *)
(* The i.i.d. gate's KS test and sorted sample against the sort path:
   split the series into its even- and odd-indexed halves, sort each with
   the kernel, walk them, and merge them ties-from-the-first.  Whatever
   path the gate takes, D, p and every bit of the sorted sample must be
   the sort path's.  The inputs cover integer counts in a window narrower
   than the sample (many ties), windows wider than it, continuous draws,
   negative values, -0. mixed with +0., NaNs of several payloads, constant
   samples, and odd and even lengths from 2 up. *)

let sort_path xs =
  let first, second = S.Ks.split_halves xs in
  S.Descriptive.sort first;
  S.Descriptive.sort second;
  (S.Ks.two_sample_sorted first second, S.Descriptive.merge_sorted first second)

let same_ks (a : S.Ks.result) (b : S.Ks.result) =
  Int64.equal (Int64.bits_of_float a.S.Ks.statistic) (Int64.bits_of_float b.S.Ks.statistic)
  && Int64.equal (Int64.bits_of_float a.S.Ks.p_value) (Int64.bits_of_float b.S.Ks.p_value)
  && a.S.Ks.same_distribution = b.S.Ks.same_distribution

let gate_matches_sort_path xs =
  let ks, sorted = sort_path xs in
  let halves, halves_sorted = S.Ks.two_halves xs in
  same_ks halves ks
  && bits (Lazy.force halves_sorted) = bits sorted
  &&
  if Array.length xs < 10 || Array.exists Float.is_nan xs then (
    (* Ljung-Box, which runs first, needs 10 runs and a finite Q *)
    match M.Iid.gate xs with
    | _ -> false
    | exception Invalid_argument _ -> true)
  else
    let g = M.Iid.gate xs in
    same_ks g.M.Iid.kolmogorov_smirnov ks && bits (Lazy.force g.M.Iid.sorted) = bits sorted

let gate_sample n =
  QCheck.Gen.(
    let window lo hi =
      int_range lo hi >>= fun w ->
      oneof [ int_range 140_000 250_000; int_range (-250_000) (-140_000); int_range (-50) 50 ]
      >>= fun base ->
      array_size (return n) (map (fun k -> float_of_int (base + k)) (int_range 0 (w - 1)))
    in
    frequency
      [
        (4, window 1 n);
        (2, window (n + 1) (100 * n));
        (1, array_size (return n) (float_range (-1e3) 1e3));
        (1, array_size (return n) (oneofl [ 0.; -0.; 1.; -1.; 2.5 ]));
        (1, array_size (return n) (oneofl [ 0.; -0. ]));
        (1, array_size (return n) (oneofl ([ 1.; 216_736.; 216_737. ] @ nan_payloads)));
        (1, array_size (return n) (oneofl nan_payloads));
        (1, map (Array.make n) (oneofl [ 0.; -0.; 7.; -3.5; 216_736.; nan ]));
      ])

let gate_input =
  QCheck.make
    ~print:(fun a -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)))
    QCheck.Gen.(
      frequency
        [ (2, int_range 2 11); (4, int_range 12 600); (1, int_range 2_990 3_010) ]
      >>= gate_sample)

let test_gate_matches_sort_path =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| 30 |])
    (QCheck.Test.make ~name:"gate KS and sorted sample = the sort path" ~count:300 gate_input
       gate_matches_sort_path)

(* A seeded Splitmix sample of 10^5 integer cycle counts around 2 * 10^5
   with a Gumbel-shaped tail, as test_analysis_perf draws it: its values
   span 23,600 one-cycle buckets, so ties are common. *)
let splitmix_sample ~seed n =
  let sm = Repro_rng.Splitmix.create seed in
  let xs = Array.make n 0. in
  for i = 0 to n - 1 do
    let bits = Int64.shift_right_logical (Repro_rng.Splitmix.next sm) 11 in
    let u = (Int64.to_float bits +. 0.5) *. 0x1p-53 in
    xs.(i) <- Float.round (200_000. +. (1_500. *. -.log (-.log u)))
  done;
  xs

let test_gate_matches_sort_path_1e5 () =
  checkb "10^5 splitmix sample" true
    (gate_matches_sort_path (splitmix_sample ~seed:2017L 100_000))

let () =
  Alcotest.run "repro_stats"
    [
      ( "special",
        [
          Alcotest.test_case "log_gamma" `Quick test_log_gamma;
          Alcotest.test_case "gamma_p exponential" `Quick test_gamma_p_exponential;
          test_gamma_p_q_complement;
          Alcotest.test_case "erf" `Quick test_erf_values;
          Alcotest.test_case "normal cdf" `Quick test_normal_cdf_values;
          Alcotest.test_case "chi-square df=1" `Quick test_chi_square_df1;
          Alcotest.test_case "chi-square df=2" `Quick test_chi_square_df2;
          Alcotest.test_case "kolmogorov survival" `Quick test_kolmogorov_survival;
          Alcotest.test_case "betainc closed forms" `Quick test_betainc_closed_forms;
          test_betainc_symmetry;
          Alcotest.test_case "student-t df=1 (Cauchy)" `Quick test_student_t_survival_cauchy;
          Alcotest.test_case "student-t df=2" `Quick test_student_t_survival_df2;
          Alcotest.test_case "student-t limits" `Quick test_student_t_survival_limits;
        ] );
      ( "welch",
        [
          Alcotest.test_case "known value" `Quick test_welch_known_value;
          Alcotest.test_case "identical samples" `Quick test_welch_identical_samples;
          Alcotest.test_case "zero variance" `Quick test_welch_zero_variance;
          Alcotest.test_case "detects shift" `Quick test_welch_detects_shift;
          test_welch_symmetry;
          Alcotest.test_case "extreme variance df finite" `Quick
            test_welch_extreme_variance_df_finite;
          Alcotest.test_case "cohen's d" `Quick test_cohens_d;
        ] );
      ( "descriptive",
        [
          Alcotest.test_case "basics" `Quick test_descriptive_basics;
          Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
          test_summary_consistency;
        ] );
      ( "ecdf",
        [
          Alcotest.test_case "basics" `Quick test_ecdf_basics;
          Alcotest.test_case "ties" `Quick test_ecdf_ties;
          test_ecdf_monotone;
          Alcotest.test_case "ccdf points positive" `Quick test_ecdf_ccdf_points_positive;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "gumbel closed form" `Quick test_gumbel_closed_form;
          Alcotest.test_case "gumbel deep tail" `Quick test_gumbel_survival_tail;
          test_gumbel_roundtrip;
          Alcotest.test_case "gev gumbel limit" `Quick test_gev_gumbel_limit;
          test_gev_roundtrip;
          Alcotest.test_case "gev upper bound" `Quick test_gev_upper_bound;
          Alcotest.test_case "gpd exponential case" `Quick test_gpd_exponential_case;
          test_gpd_roundtrip;
          Alcotest.test_case "samplers match cdf" `Slow test_sampling_matches_cdf;
        ] );
      ( "independence",
        [
          Alcotest.test_case "white noise acf" `Quick test_acf_white_noise;
          Alcotest.test_case "ar1 acf" `Quick test_acf_of_ar1;
          Alcotest.test_case "acf_up_to length" `Quick test_acf_up_to_length;
          Alcotest.test_case "ljung-box under H0" `Slow test_ljung_box_white_noise;
          Alcotest.test_case "ljung-box rejects AR(1)" `Quick test_ljung_box_rejects_ar1;
          Alcotest.test_case "ljung-box p uniform" `Slow test_ljung_box_p_uniform;
        ] );
      ( "ks",
        [
          Alcotest.test_case "same distribution" `Quick test_ks_same_distribution;
          Alcotest.test_case "detects shift" `Quick test_ks_detects_shift;
          Alcotest.test_case "disjoint D=1" `Quick test_ks_statistic_disjoint;
          Alcotest.test_case "one-sample uniform" `Quick test_ks_one_sample_uniform;
          Alcotest.test_case "one-sample wrong model" `Quick test_ks_one_sample_wrong_model;
          Alcotest.test_case "split halves" `Quick test_split_halves;
          test_ks_symmetry;
        ] );
      ( "anderson-darling",
        [
          Alcotest.test_case "accepts true model" `Quick test_ad_accepts_true_model;
          Alcotest.test_case "rejects wrong model" `Quick test_ad_rejects_wrong_model;
          Alcotest.test_case "tail sensitivity" `Quick test_ad_more_tail_sensitive_than_ks;
          Alcotest.test_case "alpha validation" `Quick test_ad_alpha_validation;
          Alcotest.test_case "reference statistic" `Quick test_ad_statistic_reference;
        ] );
      ( "runs",
        [
          Alcotest.test_case "random series" `Quick test_runs_random_series;
          Alcotest.test_case "rejects trend" `Quick test_runs_rejects_trend;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "golden section" `Quick test_golden_section_parabola;
          Alcotest.test_case "nelder-mead quadratic" `Quick test_nelder_mead_quadratic;
          Alcotest.test_case "nelder-mead barrier" `Quick test_nelder_mead_with_barrier;
        ] );
      ( "golden",
        [
          Alcotest.test_case "ljung-box pinned" `Quick test_ljung_box_golden;
          Alcotest.test_case "ljung-box constant" `Quick test_ljung_box_constant;
          Alcotest.test_case "ks two-sample pinned" `Quick test_ks_two_sample_golden;
          Alcotest.test_case "ks ties & constant" `Quick test_ks_ties_and_constant;
          Alcotest.test_case "ks walks past a NaN" `Quick test_ks_nan;
          Alcotest.test_case "ks one-sample pinned" `Quick test_ks_one_sample_golden;
        ] );
      ( "guards",
        [ Alcotest.test_case "invalid inputs raise" `Quick test_guards_survive_noassert ] );
      ( "summarize",
        [
          Alcotest.test_case "bit-identity fixed vectors" `Quick test_summarize_bit_identity;
          test_summarize_bit_identity_random;
        ] );
      ( "sort kernel",
        [
          test_sort_permutation;
          test_sort_non_decreasing;
          test_sort_stable;
          test_sort_matches_stdlib;
          test_merge_sorted;
          test_cycle_sort_permutation;
          test_cycle_sort_non_decreasing;
          test_cycle_sort_stable;
          test_cycle_sort_matches_stdlib;
        ] );
      ( "iid gate",
        [
          test_gate_matches_sort_path;
          Alcotest.test_case "gate KS and sorted sample at 10^5 = the sort path" `Quick
            test_gate_matches_sort_path_1e5;
        ] );
    ]
