module Stats = Repro_stats
module Gev = Stats.Distribution.Gev

type method_ = Pwm | Mle

(* b0, b1, b2 probability-weighted moments. *)
let pwm xs =
  let sorted = Array.copy xs in
  Stats.Descriptive.sort sorted;
  let n = Array.length sorted in
  let nf = float_of_int n in
  let b0 = ref 0. and b1 = ref 0. and b2 = ref 0. in
  for i = 0 to n - 1 do
    let x = sorted.(i) in
    let fi = float_of_int i in
    b0 := !b0 +. x;
    b1 := !b1 +. (fi /. (nf -. 1.) *. x);
    b2 := !b2 +. (fi *. (fi -. 1.) /. ((nf -. 1.) *. (nf -. 2.)) *. x)
  done;
  (!b0 /. nf, !b1 /. nf, !b2 /. nf)

let log2 = log 2.

let gamma_fn x = exp (Stats.Special.log_gamma x)

let fit_pwm xs =
  if Array.length xs < 4 then
    invalid_arg
      (Printf.sprintf "Gev_fit.fit_pwm: %d block maxima, need at least 4"
         (Array.length xs));
  let b0, b1, b2 = pwm xs in
  let c = (((2. *. b1) -. b0) /. ((3. *. b2) -. b0)) -. (log2 /. log 3.) in
  (* Hosking's approximation of the shape (his k = -xi). *)
  let k = (7.8590 *. c) +. (2.9554 *. c *. c) in
  if Float.abs k < 1e-6 then begin
    (* Degenerate to Gumbel. *)
    let g = Gumbel_fit.fit ~method_:Gumbel_fit.Pwm xs in
    Gev.create ~mu:g.Stats.Distribution.Gumbel.mu ~sigma:g.Stats.Distribution.Gumbel.beta
      ~xi:0.
  end
  else begin
    let gamma1k = gamma_fn (1. +. k) in
    let sigma = ((2. *. b1) -. b0) *. k /. (gamma1k *. (1. -. (2. ** -.k))) in
    let sigma = if sigma > 0. then sigma else 1e-9 in
    let mu = b0 +. (sigma *. (gamma1k -. 1.) /. k) in
    Gev.create ~mu ~sigma ~xi:(-.k)
  end

let fit_mle xs =
  let start = fit_pwm xs in
  let objective params =
    match params with
    | [| mu; log_sigma; xi |] ->
        if Float.abs log_sigma > 50. then infinity
        else begin
          let sigma = exp log_sigma in
          let g = Gev.create ~mu ~sigma ~xi in
          let ll = Gev.log_likelihood g xs in
          if Float.is_nan ll then infinity else -.ll
        end
    | _ -> assert false
  in
  let start_vec = [| start.Gev.mu; log start.Gev.sigma; start.Gev.xi |] in
  let best, _ = Stats.Optimize.nelder_mead ~f:objective ~start:start_vec ~step:0.05 () in
  match best with
  | [| mu; log_sigma; xi |] -> Gev.create ~mu ~sigma:(exp log_sigma) ~xi
  | _ -> assert false

let fit ?(method_ = Pwm) xs =
  match method_ with Pwm -> fit_pwm xs | Mle -> fit_mle xs


let gumbel_lr_test xs =
  let gumbel = Gumbel_fit.fit ~method_:Gumbel_fit.Mle xs in
  let gev = fit_mle xs in
  let ll0 = Stats.Distribution.Gumbel.log_likelihood gumbel xs in
  let ll1 = Gev.log_likelihood gev xs in
  let lr = Float.max 0. (2. *. (ll1 -. ll0)) in
  let p = Stats.Special.chi_square_survival ~df:1 lr in
  (lr, p)
