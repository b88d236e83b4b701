(** Special functions underlying every distribution and test in this library.

    Implementations follow the classic series / continued-fraction forms
    (Lanczos for log-gamma, NR-style [gser]/[gcf] for the regularized
    incomplete gamma) with relative accuracy around 1e-10 over the domains
    exercised here. *)

(** Natural log of the gamma function, for [x > 0]. *)
val log_gamma : float -> float

(** Regularized lower incomplete gamma P(a, x), for [a > 0], [x >= 0]. *)
val gamma_p : a:float -> x:float -> float

(** Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x). *)
val gamma_q : a:float -> x:float -> float

(** Error function. *)
val erf : float -> float

(** Complementary error function, accurate in the far tail. *)
val erfc : float -> float

(** Standard normal CDF. *)
val normal_cdf : float -> float

(** Regularized incomplete beta I_x(a, b), for [a > 0], [b > 0] and
    [x] in [[0, 1]] (NR-style continued fraction, symmetry-split at
    [(a + 1) / (a + b + 2)]). *)
val betainc : a:float -> b:float -> x:float -> float

(** Upper-tail probability of a Student-t variable with [df] (possibly
    fractional, as produced by Welch–Satterthwaite) degrees of freedom:
    P(T >= t).  [t = +/-infinity] maps to 0 / 1 exactly. *)
val student_t_survival : df:float -> float -> float

(** Upper-tail probability of a chi-square variable with [df] degrees of
    freedom: P(X >= x). *)
val chi_square_survival : df:int -> float -> float

(** Kolmogorov distribution survival function
    Q(lambda) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2), clamped to
    [[0, 1]].  This is the asymptotic null distribution of the scaled KS
    statistic. *)
val kolmogorov_survival : float -> float
