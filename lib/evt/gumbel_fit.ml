module Stats = Repro_stats
module Gumbel = Stats.Distribution.Gumbel

type method_ = Moments | Pwm | Mle

let euler_mascheroni = 0.5772156649015329

let fit_moments xs =
  let s = Stats.Descriptive.sample_std xs in
  let beta = s *. sqrt 6. /. Float.pi in
  let beta = if beta > 0. then beta else 1e-9 in
  let mu = Stats.Descriptive.mean xs -. (euler_mascheroni *. beta) in
  Gumbel.create ~mu ~beta

(* b0, b1 probability-weighted moments with the Landwehr plotting position. *)
let pwm_b0_b1 xs =
  let sorted = Array.copy xs in
  Stats.Descriptive.sort sorted;
  let n = Array.length sorted in
  let nf = float_of_int n in
  let b0 = ref 0. and b1 = ref 0. in
  for i = 0 to n - 1 do
    let x = sorted.(i) in
    b0 := !b0 +. x;
    b1 := !b1 +. (float_of_int i /. (nf -. 1.) *. x)
  done;
  (!b0 /. nf, !b1 /. nf)

let fit_pwm xs =
  let b0, b1 = pwm_b0_b1 xs in
  let beta = ((2. *. b1) -. b0) /. log 2. in
  let beta = if beta > 0. then beta else 1e-9 in
  let mu = b0 -. (euler_mascheroni *. beta) in
  Gumbel.create ~mu ~beta

(* Profile MLE: for fixed beta the optimal mu is
   mu(beta) = -beta log( mean(exp(-x/beta)) );
   substitute and maximize over beta only.  Shift by max(xs) inside the
   exponentials for numerical stability. *)
let fit_mle xs =
  let n = Array.length xs in
  if n < 2 then
    invalid_arg (Printf.sprintf "Gumbel_fit.fit_mle: %d block maxima, need at least 2" n);
  let xmax = Stats.Descriptive.max xs in
  let neg_profile_log_likelihood beta =
    if beta <= 0. then infinity
    else begin
      let sum_exp = Array.fold_left (fun a x -> a +. exp ((x -. xmax) /. -.beta)) 0. xs in
      let mean_exp = sum_exp /. float_of_int n in
      let mu = xmax -. (beta *. log mean_exp) in
      let g = Gumbel.create ~mu ~beta in
      -.Gumbel.log_likelihood g xs
    end
  in
  let start = fit_pwm xs in
  let beta0 = start.Gumbel.beta in
  let beta =
    Stats.Optimize.golden_section ~f:neg_profile_log_likelihood ~lo:(beta0 /. 20.)
      ~hi:(beta0 *. 20.) ~tol:(beta0 *. 1e-9) ()
  in
  let sum_exp = Array.fold_left (fun a x -> a +. exp ((x -. xmax) /. -.beta)) 0. xs in
  let mu = xmax -. (beta *. log (sum_exp /. float_of_int n)) in
  Gumbel.create ~mu ~beta

let fit ?(method_ = Pwm) xs =
  if Array.length xs < 2 then
    invalid_arg
      (Printf.sprintf "Gumbel_fit.fit: %d block maxima, need at least 2"
         (Array.length xs));
  match method_ with
  | Moments -> fit_moments xs
  | Pwm -> fit_pwm xs
  | Mle -> fit_mle xs

