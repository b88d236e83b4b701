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

(** [two_halves ?alpha xs] is the paper's identical-distribution test:
    {!two_sample_sorted} on the halves of {!split_halves}[ xs], each
    sorted by {!Repro_stats.Descriptive.sort}, together with [xs] sorted
    ascending in that order, made when first forced.  Both are bit for
    bit what the sorted halves give; the sorted sample is their
    {!Repro_stats.Descriptive.merge_sorted}.

    When the keys of [xs] span no more buckets than [xs] has values
    ({!Repro_stats.Descriptive.span}), as integer cycle counts with ties
    do, the halves are not sorted: the test walks two histograms, one per
    half, and the sorted sample is written from them
    ({!Repro_stats.Descriptive.sort_counted}).  Otherwise, and whenever
    [xs] holds a NaN or a [-0.], the halves are split off and sorted, and
    the sorted sample is their merge.

    @raise Invalid_argument if [xs] has fewer than 2 values. *)
val two_halves : ?alpha:float -> float array -> result * float array Lazy.t

val pp_result : Format.formatter -> result -> unit
