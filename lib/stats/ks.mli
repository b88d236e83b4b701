(** Kolmogorov-Smirnov tests.

    The paper checks identical distribution with the {e two-sample} KS test
    at the 5% level (p-value 0.45 reported): the sample of execution times is
    split into two halves which must be drawn from the same distribution.
    The one-sample variant is used by the EVT machinery as a goodness-of-fit
    diagnostic. *)

type result = {
  statistic : float;  (** the sup-distance D *)
  p_value : float;
  same_distribution : bool;
}

(** [two_sample ?alpha xs ys] with the asymptotic Kolmogorov p-value using
    the effective size n_e = n m / (n + m).

    @raise Invalid_argument if either sample is empty. *)
val two_sample : ?alpha:float -> float array -> float array -> result

(** [two_sample_sorted ?alpha sx sy] is {!two_sample} on samples the caller
    has already sorted ascending with {!Descriptive.sort}: no copy, no
    sort.  The result is bit-identical to [two_sample] on the unsorted
    samples.

    @raise Invalid_argument if either sample is empty. *)
val two_sample_sorted : ?alpha:float -> float array -> float array -> result

(** [one_sample ?alpha xs ~cdf] tests [xs] against a continuous model CDF.

    @raise Invalid_argument if [xs] is empty. *)
val one_sample : ?alpha:float -> float array -> cdf:(float -> float) -> result

(** [split_halves xs] returns the even- and odd-indexed subsamples, the
    standard MBPTA way of forming the two samples for [two_sample]. *)
val split_halves : float array -> float array * float array

val pp_result : Format.formatter -> result -> unit
