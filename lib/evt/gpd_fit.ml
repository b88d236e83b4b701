module Stats = Repro_stats
module Gpd = Stats.Distribution.Gpd

type method_ = Pwm | Mle | Exponential

let excesses ~threshold xs =
  let n = Array.length xs in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if xs.(i) > threshold then incr m
  done;
  let es = Array.make !m 0. in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let x = xs.(i) in
    if x > threshold then begin
      es.(!k) <- x -. threshold;
      incr k
    end
  done;
  es

(* Hosking & Wallis (1987) PWM estimators from a0 = E[X] and
   a1 = E[X (1 - F(X))] of the excesses:
     xi = 2 - a0 / (a0 - 2 a1),  sigma = 2 a0 a1 / (a0 - 2 a1). *)
let fit_pwm ~threshold excesses =
  if Array.length excesses < 4 then
    invalid_arg
      (Printf.sprintf "Gpd_fit.fit_pwm: %d excesses, need at least 4"
         (Array.length excesses));
  let sorted = Array.copy excesses in
  Stats.Descriptive.sort sorted;
  let n = Array.length sorted in
  let nf = float_of_int n in
  let a0 = ref 0. and a1 = ref 0. in
  for i = 0 to n - 1 do
    let x = sorted.(i) in
    a0 := !a0 +. x;
    a1 := !a1 +. (float_of_int (n - 1 - i) /. (nf -. 1.) *. x)
  done;
  let a0 = !a0 /. nf and a1 = !a1 /. nf in
  let denom = a0 -. (2. *. a1) in
  if denom <= 0. then
    (* Degenerate (extremely heavy tail); fall back to exponential. *)
    Gpd.create ~u:threshold ~sigma:(Float.max a0 1e-9) ~xi:0.
  else begin
    let xi = 2. -. (a0 /. denom) in
    let sigma = 2. *. a0 *. a1 /. denom in
    let sigma = if sigma > 0. then sigma else 1e-9 in
    Gpd.create ~u:threshold ~sigma ~xi
  end

let fit_mle ~threshold excesses =
  let start = fit_pwm ~threshold excesses in
  let shifted = Array.map (fun e -> e +. threshold) excesses in
  let objective params =
    match params with
    | [| log_sigma; xi |] ->
        if Float.abs log_sigma > 50. then infinity
        else begin
          let g = Gpd.create ~u:threshold ~sigma:(exp log_sigma) ~xi in
          let ll = Gpd.log_likelihood g shifted in
          if Float.is_nan ll then infinity else -.ll
        end
    | _ -> assert false
  in
  let best, _ =
    Stats.Optimize.nelder_mead ~f:objective
      ~start:[| log start.Gpd.sigma; start.Gpd.xi |]
      ~step:0.05 ()
  in
  match best with
  | [| log_sigma; xi |] -> Gpd.create ~u:threshold ~sigma:(exp log_sigma) ~xi
  | _ -> assert false

(* xi = 0 forced: the exponential's MLE rate is 1/mean, i.e. sigma = mean
   of the excesses. *)
let fit_exponential ~threshold excesses =
  let n = Array.length excesses in
  if n < 1 then invalid_arg "Gpd_fit.fit_exponential: empty excess sample";
  let mean = Array.fold_left ( +. ) 0. excesses /. float_of_int n in
  Gpd.create ~u:threshold ~sigma:(Float.max mean 1e-9) ~xi:0.

let fit ?(method_ = Pwm) ~threshold excesses =
  if not (Array.for_all (fun e -> e >= 0.) excesses) then
    invalid_arg "Gpd_fit.fit: excesses must be non-negative (x - threshold)";
  match method_ with
  | Pwm -> fit_pwm ~threshold excesses
  | Mle -> fit_mle ~threshold excesses
  | Exponential -> fit_exponential ~threshold excesses

module Pot = struct
  type t = {
    model : Gpd.t;
    threshold : float;
    exceedance_rate : float;
    n_exceedances : int;
  }

  let analyze ?(method_ = Pwm) ?(quantile = 0.9) ?(sorted = false) xs =
    if not (quantile > 0. && quantile < 1.) then
      invalid_arg "Pot.analyze: quantile must lie in (0, 1)";
    let threshold =
      if sorted then Stats.Descriptive.quantile_sorted xs quantile
      else Stats.Descriptive.quantile xs quantile
    in
    let excesses = excesses ~threshold xs in
    let n_exceedances = Array.length excesses in
    if n_exceedances < 4 then
      invalid_arg "Pot.analyze: fewer than 4 exceedances; lower the quantile";
    let model = fit ~method_ ~threshold excesses in
    let exceedance_rate = float_of_int n_exceedances /. float_of_int (Array.length xs) in
    { model; threshold; exceedance_rate; n_exceedances }

  let survival t x =
    if x <= t.threshold then 1.
    else t.exceedance_rate *. Gpd.survival t.model x

  let quantile_of_exceedance t p =
    if not (p > 0. && p < t.exceedance_rate) then
      invalid_arg
        (Printf.sprintf
           "Pot.quantile_of_exceedance: probability %g outside (0, %g) (the \
            exceedance rate)"
           p t.exceedance_rate);
    Gpd.quantile t.model (1. -. (p /. t.exceedance_rate))
end
