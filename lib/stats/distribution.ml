module Prng = Repro_rng.Prng

module Gumbel = struct
  type t = { mu : float; beta : float }

  let create ~mu ~beta =
    if not (beta > 0.) then invalid_arg "Distribution.Gumbel.create: need beta > 0";
    { mu; beta }

  let z t x = (x -. t.mu) /. t.beta

  let cdf t x = exp (-.exp (-.z t x))

  let survival t x = -.Float.expm1 (-.exp (-.z t x))

  let quantile t p =
    if not (p > 0. && p < 1.) then
      invalid_arg "Distribution.Gumbel.quantile: p outside (0, 1)";
    t.mu -. (t.beta *. log (-.log p))

  (* For p_exc small, -log(1-p_exc) ~ p_exc; use log1p for accuracy. *)
  let quantile_of_exceedance t p_exc =
    if not (p_exc > 0. && p_exc < 1.) then
      invalid_arg "Distribution.Gumbel.quantile_of_exceedance: p outside (0, 1)";
    t.mu -. (t.beta *. log (-.Float.log1p (-.p_exc)))

  let sample t prng = quantile t (Prng.float_pos prng)

  let log_likelihood t xs =
    Array.fold_left
      (fun acc x ->
        let z = z t x in
        acc -. log t.beta -. z -. exp (-.z))
      0. xs
end

module Gev = struct
  type t = { mu : float; sigma : float; xi : float }

  (* |xi| below this is treated as the Gumbel limit to avoid cancellation. *)
  let xi_epsilon = 1e-9

  let create ~mu ~sigma ~xi =
    if not (sigma > 0.) then invalid_arg "Distribution.Gev.create: need sigma > 0";
    { mu; sigma; xi }

  let as_gumbel t = { Gumbel.mu = t.mu; beta = t.sigma }

  (* s(x) = (1 + xi * (x - mu) / sigma); support requires s > 0. *)
  let s t x = 1. +. (t.xi *. (x -. t.mu) /. t.sigma)

  let cdf t x =
    if Float.abs t.xi < xi_epsilon then Gumbel.cdf (as_gumbel t) x
    else begin
      let s = s t x in
      if s <= 0. then (if t.xi > 0. then 0. else 1.)
      else exp (-.(s ** (-1. /. t.xi)))
    end

  let survival t x =
    if Float.abs t.xi < xi_epsilon then Gumbel.survival (as_gumbel t) x
    else begin
      let s = s t x in
      if s <= 0. then (if t.xi > 0. then 1. else 0.)
      else -.Float.expm1 (-.(s ** (-1. /. t.xi)))
    end

  let quantile t p =
    if not (p > 0. && p < 1.) then
      invalid_arg "Distribution.Gev.quantile: p outside (0, 1)";
    if Float.abs t.xi < xi_epsilon then Gumbel.quantile (as_gumbel t) p
    else t.mu +. (t.sigma *. (((-.log p) ** -.t.xi) -. 1.) /. t.xi)

  let quantile_of_exceedance t p_exc =
    if not (p_exc > 0. && p_exc < 1.) then
      invalid_arg "Distribution.Gev.quantile_of_exceedance: p outside (0, 1)";
    if Float.abs t.xi < xi_epsilon then Gumbel.quantile_of_exceedance (as_gumbel t) p_exc
    else begin
      let neg_log_p = -.Float.log1p (-.p_exc) in
      t.mu +. (t.sigma *. ((neg_log_p ** -.t.xi) -. 1.) /. t.xi)
    end

  let sample t prng = quantile t (Prng.float_pos prng)

  let log_likelihood t xs =
    if Float.abs t.xi < xi_epsilon then Gumbel.log_likelihood (as_gumbel t) xs
    else
      Array.fold_left
        (fun acc x ->
          let s = s t x in
          if s <= 0. then neg_infinity
          else begin
            let log_s = log s in
            acc -. log t.sigma
            -. ((1. +. (1. /. t.xi)) *. log_s)
            -. exp (-.log_s /. t.xi)
          end)
        0. xs
end

module Gpd = struct
  type t = { u : float; sigma : float; xi : float }

  let xi_epsilon = 1e-9

  let create ~u ~sigma ~xi =
    if not (sigma > 0.) then invalid_arg "Distribution.Gpd.create: need sigma > 0";
    { u; sigma; xi }

  let pdf t x =
    let y = x -. t.u in
    if y < 0. then 0.
    else if Float.abs t.xi < xi_epsilon then exp (-.y /. t.sigma) /. t.sigma
    else begin
      let s = 1. +. (t.xi *. y /. t.sigma) in
      if s <= 0. then 0. else (s ** (-1. /. t.xi -. 1.)) /. t.sigma
    end

  let cdf t x =
    let y = x -. t.u in
    if y < 0. then 0.
    else if Float.abs t.xi < xi_epsilon then -.Float.expm1 (-.y /. t.sigma)
    else begin
      let s = 1. +. (t.xi *. y /. t.sigma) in
      if s <= 0. then (if t.xi < 0. then 1. else 0.)
      else 1. -. (s ** (-1. /. t.xi))
    end

  let survival t x = 1. -. cdf t x

  let quantile t p =
    if not (p >= 0. && p < 1.) then
      invalid_arg "Distribution.Gpd.quantile: p outside [0, 1)";
    if Float.abs t.xi < xi_epsilon then t.u -. (t.sigma *. Float.log1p (-.p))
    else t.u +. (t.sigma *. (((1. -. p) ** -.t.xi) -. 1.) /. t.xi)

  let sample t prng = quantile t (Prng.float prng)

  let log_likelihood t xs =
    Array.fold_left
      (fun acc x ->
        let p = pdf t x in
        if p <= 0. then neg_infinity else acc +. log p)
      0. xs
end
