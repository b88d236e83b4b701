(** Descriptive statistics over float arrays.

    All functions raise [Invalid_argument] on empty input — a real guard
    that survives [-noassert] builds; [sample_variance] additionally
    needs at least two observations. *)

(** [sort xs] sorts [xs] in place, ascending under [Float.compare]: NaNs
    first, [-0.] and [+0.] equal.  The sort is stable, so the result is
    bit-identical to the Stdlib's [Array.sort] under [Float.compare]
    whenever every pair of elements that compare equal is also
    bit-identical (it can differ only in where a [-0.] sits among [+0.]s,
    or which NaN payload comes first).
    Above 8 elements it is a radix sort on an order-preserving 64-bit key:
    it does no comparisons and boxes no float.  A key byte in which no two
    elements differ costs no pass: the paper's cycle counts, integer-valued
    and all between the same two powers of two, sort in one counting pass
    and three scatter passes.  It allocates a table of 2,048 counts, and a
    scratch array of [length xs] floats only when some key byte varies.
    Every sort of a float sample in the analysis goes through this
    kernel. *)
val sort : float array -> unit

(** [merge_sorted a b] is a fresh array holding the ascending arrays [a]
    and [b] merged in {!sort}'s order, ties taken from [a] first: O(n), and
    bit-identical to sorting the concatenation under the same condition as
    {!sort}. *)
val merge_sorted : float array -> float array -> float array

val mean : float array -> float

(** Population variance (divides by n). *)
val variance : float array -> float

(** Unbiased sample variance (divides by n-1). *)
val sample_variance : float array -> float

val std : float array -> float
val sample_std : float array -> float

val min : float array -> float
val max : float array -> float

(** Sample skewness (g1, biased moment estimator). *)
val skewness : float array -> float

(** Excess kurtosis (g2 = m4/m2^2 - 3). *)
val kurtosis_excess : float array -> float

(** [quantile xs p] with [p] in [[0, 1]]: linear interpolation between order
    statistics (R type-7, the common default).  [xs] need not be sorted. *)
val quantile : float array -> float -> float

(** [quantile_sorted sorted p] — {!quantile} over an array the caller has
    already sorted ascending (no copy, no re-sort); bit-identical to
    [quantile] on the same multiset.  For pipelines that sort the sample
    once and thread it through every consumer. *)
val quantile_sorted : float array -> float -> float

val median : float array -> float

(** Everything at once, from a single sorted copy and a single mean. *)
type summary = {
  n : int;
  mean : float;
  std : float;
  minimum : float;
  maximum : float;
  median : float;
  q1 : float;
  q3 : float;
  cv : float;
}

val summarize : float array -> summary
val pp_summary : Format.formatter -> summary -> unit
