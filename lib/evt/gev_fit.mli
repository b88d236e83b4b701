(** Generalized-extreme-value parameter estimation.

    [Pwm] implements Hosking, Wallis & Wood (1985): shape from the PWM ratio,
    then scale and location in closed form.  [Mle] refines the PWM estimate
    with Nelder-Mead on the (mu, log sigma, xi) parameterization. *)

type method_ = Pwm | Mle

val fit : ?method_:method_ -> float array -> Repro_stats.Distribution.Gev.t

(** Likelihood-ratio test of H0: xi = 0 (Gumbel) inside the GEV family.
    Returns [(lr_statistic, p_value)]; under H0 the statistic is chi-square
    with 1 degree of freedom.  MBPTA commonly selects the Gumbel model when
    this test does not reject it. *)
val gumbel_lr_test : float array -> float * float
