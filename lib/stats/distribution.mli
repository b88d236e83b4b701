(** The extreme-value family behind pWCET estimation: Gumbel and GEV for
    block maxima, GPD for peaks over a threshold.

    Each distribution exposes [cdf], [survival], [quantile] (inverse CDF),
    [log_likelihood] and [sample] (inverse-transform from a
    {!Repro_rng.Prng.t}). *)

module Gumbel : sig
  (** Gumbel (type-I extreme value) with location [mu] and scale [beta]:
      the limiting distribution of block maxima of light-tailed samples, and
      the distribution MBPTA fits in the common case (GEV shape xi = 0). *)
  type t = { mu : float; beta : float }

  val create : mu:float -> beta:float -> t
  val cdf : t -> float -> float

  (** Survival (exceedance) function 1 - cdf, computed with [expm1] so it
      stays accurate down to the 1e-15 probabilities of interest. *)
  val survival : t -> float -> float

  val quantile : t -> float -> float

  (** [quantile_of_exceedance t p] returns the value exceeded with
      probability [p]; accurate for tiny [p]. *)
  val quantile_of_exceedance : t -> float -> float

  val sample : t -> Repro_rng.Prng.t -> float
  val log_likelihood : t -> float array -> float
end

module Gev : sig
  (** Generalized extreme value with location [mu], scale [sigma] and shape
      [xi].  [xi = 0.] is treated as the Gumbel limit. *)
  type t = { mu : float; sigma : float; xi : float }

  val create : mu:float -> sigma:float -> xi:float -> t
  val cdf : t -> float -> float
  val survival : t -> float -> float
  val quantile : t -> float -> float
  val quantile_of_exceedance : t -> float -> float
  val sample : t -> Repro_rng.Prng.t -> float
  val log_likelihood : t -> float array -> float
end

module Gpd : sig
  (** Generalized Pareto for peaks-over-threshold, with threshold [u],
      scale [sigma] and shape [xi]. *)
  type t = { u : float; sigma : float; xi : float }

  val create : u:float -> sigma:float -> xi:float -> t
  val cdf : t -> float -> float
  val survival : t -> float -> float
  val quantile : t -> float -> float
  val sample : t -> Repro_rng.Prng.t -> float
  val log_likelihood : t -> float array -> float
end
