(** Gumbel parameter estimation.

    Three estimators of increasing cost:
    - [Moments]: beta = s sqrt(6)/pi, mu = mean - gamma beta;
    - [Pwm]: probability-weighted moments (Landwehr et al.), robust and the
      usual MBPTA default;
    - [Mle]: maximum likelihood, profiling mu out analytically and solving
      for beta with golden-section search. *)

type method_ = Moments | Pwm | Mle

val fit : ?method_:method_ -> float array -> Repro_stats.Distribution.Gumbel.t
