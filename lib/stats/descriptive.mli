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
    Every sort of a float sample in the analysis goes through this kernel,
    or counts its keys ({!sort_counted}). *)
val sort : float array -> unit

(** [merge_sorted a b] is a fresh array holding the ascending arrays [a]
    and [b] merged in {!sort}'s order, ties taken from [a] first: O(n), and
    bit-identical to sorting the concatenation under the same condition as
    {!sort}. *)
val merge_sorted : float array -> float array -> float array

(** {2 Counting instead of sorting}

    A sample whose values are few next to its length, such as cycle
    counts, sorts by counting.  {!sort}'s order-preserving key, divided by
    the largest power of two that divides every key's difference from
    the first, maps the distinct values one-to-one onto consecutive
    buckets in ascending order; two values share a bucket exactly when
    [Float.compare] says they are equal.  Every loop over the keys stays
    in this module, where they are not boxed. *)

(** The buckets of one sample's keys. *)
type span

(** [span xs] makes one pass over [xs].  It is [None] when [xs] holds a
    NaN or a [-0.], whose keys it shares with values of other bits.

    @raise Invalid_argument if [xs] is empty. *)
val span : float array -> span option

(** The number of buckets from the least key to the greatest, empty ones
    included, saturated at [max_int]: the sample's distinct values, and
    the gaps between them in steps of the finest spacing they share. *)
val span_buckets : span -> int

(** [count_halves s xs], with [s] the span of [xs], is, for each bucket
    [b], the number of even-indexed values of [xs] in it at [2b] and of
    odd-indexed ones at [2b + 1]: one pass, [2 * span_buckets s] ints.

    @raise Invalid_argument if [xs] has fewer values than [s] has
    buckets. *)
val count_halves : span -> float array -> int array

(** [sort_counted s counts], with [counts] from [count_halves s xs], is a
    fresh array of [xs] sorted ascending, made from the counts alone: bit
    for bit {!sort} of [xs], and {!merge_sorted} of its two halves each
    sorted by {!sort}. *)
val sort_counted : span -> int array -> float array

val mean : float array -> float

(** Unbiased sample variance (divides by n-1). *)
val sample_variance : float array -> float

val sample_std : float array -> float

val min : float array -> float
val max : float array -> float

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
