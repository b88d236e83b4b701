(** Probabilistic WCET curves.

    A pWCET curve gives, for every execution-time budget [v], the probability
    that {e one} run of the program exceeds [v].  The paper reads its
    Figure 2 off such a curve and its Figure 3 compares the curve's quantiles
    at cutoff probabilities 1e-6 .. 1e-15 against industrial practice.

    The curve is backed by an EVT tail model fitted on block maxima (Gumbel
    or GEV) or on threshold excesses (POT/GPD).  When the model was fitted on
    maxima of blocks of [block_size] runs, all conversions between the
    block-level and per-run exceedance scales are handled here (with
    [expm1]/[log1p] so that 1e-15 probabilities survive). *)

type tail_model =
  | Gumbel_tail of Repro_stats.Distribution.Gumbel.t
  | Gev_tail of Repro_stats.Distribution.Gev.t
  | Pot_tail of Gpd_fit.Pot.t

type t

(** [create ~model ~block_size ~sample] — [block_size] is the number of runs
    per block the model was fitted on (1 for POT or raw fits); [sample] is
    the full per-run observation set, kept for plots and tightness checks. *)
val create : model:tail_model -> block_size:int -> sample:float array -> t

(** [create_sorted ~model ~block_size ~sample] — {!create} for a sample the
    caller has already sorted ascending: the internal ECDF skips its
    O(n log n) sort ({!Repro_stats.Ecdf.of_sorted}).  Bit-identical to
    {!create} on the same multiset; the entry point for pipelines
    ({!Repro_mbpta.Protocol}, {!Convergence}) that sort the measurement
    vector exactly once. *)
val create_sorted : model:tail_model -> block_size:int -> sample:float array -> t

val model : t -> tail_model
val block_size : t -> int
val sample_ecdf : t -> Repro_stats.Ecdf.t

(** [exceedance_probability t v] — per-run probability of exceeding [v]. *)
val exceedance_probability : t -> float -> float

(** [estimate t ~cutoff_probability] — the pWCET at the given per-run
    exceedance probability (e.g. [1e-15]). *)
val estimate : t -> cutoff_probability:float -> float

(** [cutoff_probability_limit t] — the exclusive upper end of the
    per-run exceedance probabilities {!estimate} accepts: [1] for a
    block-maxima (Gumbel or GEV) model, the exceedance rate for a POT
    model, which describes nothing above its threshold. *)
val cutoff_probability_limit : t -> float

(** [estimate_of_model ~model ~block_size ~cutoff_probability] — the same
    quantile without building a curve (no ECDF, hence no O(n log n) sort
    of the sample): the estimate is a pure function of the fitted model
    and the block size.  Bit-identical to {!estimate} on a curve carrying
    the same model; the hot path of {!Bootstrap} replicates, which only
    need the number. *)
val estimate_of_model :
  model:tail_model -> block_size:int -> cutoff_probability:float -> float

(** [ccdf_series t ~decades_below] returns [(value, per-run exceedance)]
    points of the analytical curve, one per half-decade of probability from
    1e-1 down to 1e-[decades_below]; for overlaying on the empirical
    exceedance plot. *)
val ccdf_series : t -> decades_below:int -> (float * float) list

(** True when the curve upper-bounds every empirical tail point at or below
    the [from_probability] exceedance level (default 0.1), allowing a
    relative shortfall of [value_tolerance] (default 0.005) on the time
    axis: the "prediction tightly upper-bounds the observations" check of
    Figure 2, made operational.  A fitted tail legitimately crosses the
    empirical bulk by a fraction of a percent; what must not happen is the
    curve running materially below observed execution times. *)
val upper_bounds_observations :
  ?from_probability:float -> ?value_tolerance:float -> t -> bool

(** Ratio of the pWCET estimate at [cutoff_probability] to the maximum
    observed execution time; the paper reports roughly 1.5 at 1e-6. *)
val margin_over_observed : t -> cutoff_probability:float -> float

val pp : Format.formatter -> t -> unit
