module Stats = Repro_stats

type verdict = { cv : float; z : float; p_value : float; exponential : bool }

let excesses_over ~sorted xs quantile =
  let threshold =
    if sorted then Stats.Descriptive.quantile_sorted xs quantile
    else Stats.Descriptive.quantile xs quantile
  in
  let es = Gpd_fit.excesses ~threshold xs in
  if Array.length es < 10 then
    invalid_arg "Tail_test: fewer than 10 excesses; lower the quantile";
  es

let exponentiality ?(alpha = 0.05) ?(quantile = 0.75) ?(sorted = false) xs =
  let es = excesses_over ~sorted xs quantile in
  let n = float_of_int (Array.length es) in
  let cv = Stats.Descriptive.sample_std es /. Stats.Descriptive.mean es in
  (* For exponential data, sqrt(n) (CV - 1) -> N(0, 1) asymptotically. *)
  let z = sqrt n *. (cv -. 1.) in
  let p_value = Stats.Special.erfc (Float.abs z /. sqrt 2.) in
  { cv; z; p_value; exponential = p_value >= alpha }

let qq_correlation ?(quantile = 0.75) ?(sorted = false) xs =
  let es = excesses_over ~sorted xs quantile in
  Stats.Descriptive.sort es;
  let n = Array.length es in
  let nf = float_of_int n in
  (* Exponential theoretical quantiles at plotting positions i/(n+1). *)
  let theo = Array.init n (fun i -> -.log (1. -. (float_of_int (i + 1) /. (nf +. 1.)))) in
  let mean_e = Stats.Descriptive.mean es and mean_t = Stats.Descriptive.mean theo in
  let num = ref 0. and de = ref 0. and dt = ref 0. in
  for i = 0 to n - 1 do
    let a = es.(i) -. mean_e and b = theo.(i) -. mean_t in
    num := !num +. (a *. b);
    de := !de +. (a *. a);
    dt := !dt +. (b *. b)
  done;
  !num /. sqrt (!de *. !dt)

let pp_verdict ppf v =
  Format.fprintf ppf "CV=%.3f z=%.3f p=%.4f -> %s" v.cv v.z v.p_value
    (if v.exponential then "exponential tail not rejected" else "exponential tail REJECTED")
