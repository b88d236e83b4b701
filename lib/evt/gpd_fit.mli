(** Generalized-Pareto fitting for peaks-over-threshold, the alternative EVT
    route to block maxima.  [Pwm] follows Hosking & Wallis (1987); [Mle]
    refines with Nelder-Mead; [Exponential] forces the light-tail limit
    xi = 0 and fits only the scale (the exponential-tail model of the
    original MBPTA formulation, sound once the {!Tail_test} exponentiality
    check passes — and conservative relative to any lighter tail). *)

type method_ = Pwm | Mle | Exponential

(** [excesses ~threshold xs] — [x - threshold] for every [x] of [xs] above
    [threshold], in the order of [xs]. *)
val excesses : threshold:float -> float array -> float array

(** [fit ?method_ ~threshold excesses] — [excesses] are the amounts by which
    observations exceed [threshold] (all [>= 0]). *)
val fit :
  ?method_:method_ -> threshold:float -> float array -> Repro_stats.Distribution.Gpd.t

(** Peaks-over-threshold front end. *)
module Pot : sig
  type t = {
    model : Repro_stats.Distribution.Gpd.t;
    threshold : float;
    exceedance_rate : float;  (** fraction of observations above threshold *)
    n_exceedances : int;
  }

  (** [analyze ?method_ ?quantile ?sorted xs] selects the threshold as the
      empirical [quantile] (default 0.9) of [xs] and fits the excesses.
      [sorted:true] declares [xs] already ascending, skipping the threshold
      quantile's internal sort. *)
  val analyze : ?method_:method_ -> ?quantile:float -> ?sorted:bool -> float array -> t

  (** [survival t x] is the per-observation exceedance probability
      P(X > x) for x above the threshold, combining the exceedance rate and
      the GPD tail. *)
  val survival : t -> float -> float

  (** [quantile_of_exceedance t p] inverts {!survival} for
      [p < exceedance_rate]. *)
  val quantile_of_exceedance : t -> float -> float
end
