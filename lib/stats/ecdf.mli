(** Empirical cumulative distribution functions.

    The pWCET plots of the paper (Figure 2) are exceedance plots: the
    empirical 1-CDF of the observed execution times on a log-scale Y axis,
    overlaid with the EVT projection.  This module provides the empirical
    side. *)

type t

(** [of_sample xs] sorts a private copy of [xs]. *)
val of_sample : float array -> t

(** [of_sorted xs] builds the ECDF from an already-sorted sample (still a
    private copy, but skipping the O(n log n) sort) — the entry point for
    analysis pipelines that sort the measurement vector once and thread it
    through every consumer.  Raises [Invalid_argument] when [xs] is empty
    or not ascending under [Float.compare]. *)
val of_sorted : float array -> t

val size : t -> int

(** The i-th order statistic, [i] in [[0, size-1]]. *)
val order_statistic : t -> int -> float

(** [cdf t x] is the fraction of observations [<= x]. *)
val cdf : t -> float -> float

(** [quantile t p] is the type-7 empirical quantile. *)
val quantile : t -> float -> float

(** [points t] returns the step points [(x_i, i/n)] of the CDF, one per
    distinct observation (the last value of ties wins). *)
val points : t -> (float * float) list

(** [ccdf_points t] returns [(x_(i), 1 - i/n)] exceedance points suitable for
    a log-scale plot; the point with exceedance 0 is dropped. *)
val ccdf_points : t -> (float * float) list

(** Underlying sorted data (do not mutate). *)
val sorted : t -> float array
