module Stats = Repro_stats
module Gumbel = Stats.Distribution.Gumbel
module Gev = Stats.Distribution.Gev

type tail_model =
  | Gumbel_tail of Gumbel.t
  | Gev_tail of Gev.t
  | Pot_tail of Gpd_fit.Pot.t

type t = { model : tail_model; block_size : int; ecdf : Stats.Ecdf.t }

let make ~sorted ~model ~block_size ~sample =
  if block_size < 1 then invalid_arg "Pwcet.create: block_size must be >= 1";
  if Array.length sample = 0 then invalid_arg "Pwcet.create: empty sample";
  (match model with
  | Pot_tail _ ->
      if block_size <> 1 then
        invalid_arg "Pwcet.create: POT models describe per-run values (block_size 1)"
  | Gumbel_tail _ | Gev_tail _ -> ());
  let ecdf =
    if sorted then Stats.Ecdf.of_sorted sample else Stats.Ecdf.of_sample sample
  in
  { model; block_size; ecdf }

let create ~model ~block_size ~sample = make ~sorted:false ~model ~block_size ~sample
let create_sorted ~model ~block_size ~sample = make ~sorted:true ~model ~block_size ~sample

let model t = t.model
let block_size t = t.block_size
let sample_ecdf t = t.ecdf

let model_survival t v =
  match t.model with
  | Gumbel_tail g -> Gumbel.survival g v
  | Gev_tail g -> Gev.survival g v
  | Pot_tail pot -> Gpd_fit.Pot.survival pot v

let model_quantile_of_exceedance' model p =
  match model with
  | Gumbel_tail g -> Gumbel.quantile_of_exceedance g p
  | Gev_tail g -> Gev.quantile_of_exceedance g p
  | Pot_tail pot -> Gpd_fit.Pot.quantile_of_exceedance pot p

(* The model describes the max of [b] runs: F_block = F_run^b, so
   per-run exceedance p = 1 - F_block^(1/b), computed in log space. *)
let exceedance_probability t v =
  let s_block = model_survival t v in
  if t.block_size = 1 then s_block
  else if s_block >= 1. then 1.
  else if s_block <= 0. then 0.
  else begin
    let log_f_block = Float.log1p (-.s_block) in
    -.Float.expm1 (log_f_block /. float_of_int t.block_size)
  end

let estimate_of_model ~model ~block_size ~cutoff_probability =
  if not (cutoff_probability > 0. && cutoff_probability < 1.) then
    invalid_arg "Pwcet.estimate: cutoff_probability must lie in (0, 1)";
  let p_block =
    if block_size = 1 then cutoff_probability
    else
      (* exceedance at block level: 1 - (1 - p)^b *)
      -.Float.expm1 (float_of_int block_size *. Float.log1p (-.cutoff_probability))
  in
  (* For moderate per-run probabilities and large blocks the block-level
     exceedance rounds to 1.0; clamp just inside the open interval (the
     corresponding quantile is deep in the left tail, only plots use it). *)
  let p_block = Float.min p_block (1. -. 1e-12) in
  model_quantile_of_exceedance' model p_block

let estimate t ~cutoff_probability =
  estimate_of_model ~model:t.model ~block_size:t.block_size ~cutoff_probability

(* A POT model describes only the excesses over its threshold, so it has
   no quantile at or above its exceedance rate. *)
let cutoff_probability_limit_of_model = function
  | Gumbel_tail _ | Gev_tail _ -> 1.
  | Pot_tail pot -> pot.Gpd_fit.Pot.exceedance_rate

let cutoff_probability_limit t = cutoff_probability_limit_of_model t.model

let ccdf_series t ~decades_below =
  if decades_below < 1 then invalid_arg "Pwcet.ccdf_series: decades_below must be >= 1";
  let rec go k acc =
    (* two points per decade: 10^-k and 3.16 * 10^-(k+1) *)
    if k > float_of_int decades_below then List.rev acc
    else begin
      let p = 10. ** -.k in
      go (k +. 0.5) ((estimate t ~cutoff_probability:p, p) :: acc)
    end
  in
  go 1. []

let upper_bounds_observations ?(from_probability = 0.1) ?(value_tolerance = 0.005) t =
  Stats.Ecdf.ccdf_points t.ecdf
  |> List.for_all (fun (x, p_emp) ->
         if p_emp > from_probability then true
         else estimate t ~cutoff_probability:p_emp >= x *. (1. -. value_tolerance))

let margin_over_observed t ~cutoff_probability =
  let v = estimate t ~cutoff_probability in
  let observed_max = Stats.Ecdf.order_statistic t.ecdf (Stats.Ecdf.size t.ecdf - 1) in
  v /. observed_max

let pp ppf t =
  let kind =
    match t.model with
    | Gumbel_tail g ->
        Format.asprintf "Gumbel(mu=%.2f, beta=%.2f)" g.Gumbel.mu g.Gumbel.beta
    | Gev_tail g ->
        Format.asprintf "GEV(mu=%.2f, sigma=%.2f, xi=%.4f)" g.Gev.mu g.Gev.sigma g.Gev.xi
    | Pot_tail pot ->
        Format.asprintf "POT(u=%.2f, sigma=%.2f, xi=%.4f, rate=%.3f)"
          pot.Gpd_fit.Pot.threshold pot.Gpd_fit.Pot.model.Stats.Distribution.Gpd.sigma
          pot.Gpd_fit.Pot.model.Stats.Distribution.Gpd.xi pot.Gpd_fit.Pot.exceedance_rate
  in
  Format.fprintf ppf "pWCET curve: %s, block_size=%d, n=%d" kind t.block_size
    (Stats.Ecdf.size t.ecdf)
