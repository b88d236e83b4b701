(** The end-to-end MBPTA protocol (Cucu-Grosjean et al., ECRTS 2012; applied
    industrially in the paper): given a series of execution-time
    measurements taken under randomized conditions,

    + verify the i.i.d. hypothesis ({!Iid});
    + verify that the number of runs satisfies the convergence criterion
      ({!Repro_evt.Convergence});
    + select a tail model and fit it on block maxima (Gumbel by default;
      optionally full GEV, or POT/GPD);
    + return the {!Repro_evt.Pwcet} curve plus every intermediate verdict.

    The protocol is deliberately workload-agnostic: it consumes a plain
    measurement vector (or a [measure] function), exactly like a timing
    analysis tool attached to a target platform. *)

type tail =
  | Gumbel  (** Gumbel fit on block maxima (default) *)
  | Gev  (** full GEV fit on block maxima *)
  | Pot  (** peaks-over-threshold, GPD excesses *)
  | Exponential_pot
      (** peaks-over-threshold with the exponential (xi = 0) tail of the
          original MBPTA formulation; pair with the {!Repro_evt.Tail_test}
          exponentiality diagnostic *)

(** Bootstrap sub-options: when attached to {!options}, the analysis also
    computes a {!Repro_evt.Bootstrap} confidence interval on the pWCET at
    [bootstrap_probability].  The replicate PRNG is created from
    [bootstrap_seed], so the interval is a pure function of (sample,
    options) — bit-identical at every job count. *)
type bootstrap_options = {
  replicates : int;  (** bootstrap resamples, >= 20 (default 200) *)
  bootstrap_confidence : float;  (** interval confidence, default 0.95 *)
  bootstrap_seed : int64;  (** base seed of the replicate-PRNG derivation *)
  bootstrap_probability : float;
      (** cutoff probability of the bounded estimate, default 1e-9 *)
}

val default_bootstrap_options : bootstrap_options

type options = {
  alpha : float;  (** significance level of the i.i.d. tests, 0.05 *)
  gate_on_iid : bool;
      (** reject the analysis when the i.i.d. tests fail (default); when
          false the verdicts are still computed and reported but the
          analysis proceeds — for diagnostic tooling and for samples a
          borderline test falsely rejects *)
  tail : tail;
  block_size : int option;  (** [None]: {!Repro_evt.Block_maxima.suggest_block_size} *)
  fit_method : [ `Pwm | `Mle ];
  check_convergence : bool;
  convergence_probability : float;  (** reference exceedance, 1e-9 *)
  convergence_tolerance : float;  (** relative stability threshold, 0.01 *)
  bootstrap : bootstrap_options option;
      (** [None] (default): no bootstrap pass, analysis output unchanged *)
}

val default_options : options

(** What the gate stage ({!gate}) returns for a sample it passes: the
    i.i.d. gating pair and, when {!options.check_convergence} is set, the
    convergence study. *)
type gate = {
  iid : Iid.gate;
  convergence : Repro_evt.Convergence.result option;
}

(** What the model stage ({!model}) returns: the tail model and block
    size that {!analyze}'s curve carries. *)
type model = {
  tail_model : Repro_evt.Pwcet.tail_model;
  block_size : int;  (** runs per block; 1 for a POT model *)
  fitted : float array;
      (** the values the goodness-of-fit tests compare the model with:
          the block maxima in block order, or the sorted observations
          above the POT threshold *)
}

type analysis = {
  sample : float array;
  iid : Iid.result;
  convergence : Repro_evt.Convergence.result option;
  block_size : int;
  curve : Repro_evt.Pwcet.t;
  goodness_of_fit : Repro_stats.Ks.result;  (** model vs block maxima / excesses *)
  goodness_of_fit_ad : Repro_stats.Anderson_darling.result;
      (** Anderson-Darling on the same fit: weights the tail, where it
          matters for extrapolation *)
  tail_diagnostic : Repro_evt.Tail_test.verdict option;
      (** [None] when the sample is too concentrated to form excesses
          (e.g. a jitterless platform producing near-constant times) *)
  bootstrap : Repro_evt.Bootstrap.interval option;
      (** sampling-uncertainty band on the pWCET estimate, present when
          {!options.bootstrap} was set *)
}

(** Everything that can stop the protocol (or a whole campaign) from
    producing a pWCET curve.  One closed taxonomy so every layer — fitting,
    i.i.d. gating, fault-tolerant measurement — reports through the same
    typed channel instead of raising. *)
type failure =
  | Not_enough_runs of { have : int; need : int }
  | Iid_rejected of Iid.result
  | Not_converged of Repro_evt.Convergence.result
  | Invalid_sample of { index : int; value : float; reason : string }
      (** an observation is NaN, infinite or negative — a corrupted
          measurement must be rejected, not fitted *)
  | Faulted_runs of { survivors : int; required : int; total : int }
      (** resilient campaign: too many runs were quarantined for the
          surviving sample to meet the {!Resilience.policy} threshold *)

val pp_failure : Format.formatter -> failure -> unit

(** [validate_sample xs] is the sample check {!gate} runs first:
    [Some (Invalid_sample _)] naming the first NaN, infinite or negative
    value and its index, [None] when every value is finite and
    non-negative.  A caller that runs {!Iid.gate} or a convergence study
    without {!gate} runs this check first. *)
val validate_sample : float array -> failure option

(** {1 The stages}

    {!analyze} runs three stages in order.  The gate and model stages are
    exported so that a caller that reads only a verdict or an estimate
    computes only what it reads: the daemon answers an [iid] query from
    {!gate} and a [pwcet] query from {!gate} and {!model} through
    {!Repro_evt.Pwcet.estimate_of_model}. *)

(** [gate ?options ?trace xs] is the gate stage: the sample checks
    ({!Not_enough_runs}, {!Invalid_sample}), the i.i.d. gating pair
    ({!Iid.gate}) and the [gate_on_iid] check, then the convergence study
    and its gate.  It returns [Error f] exactly when {!analyze} does, with
    the same [f]: a rejected sample's {!Iid_rejected} carries the full
    {!Iid.result}, runs diagnostic included.  With [trace], it emits the
    {!Trace.Iid_result} and {!Trace.Convergence} events and bumps
    [analysis.convergence_steps], as {!analyze} does. *)
val gate :
  ?options:options -> ?trace:Trace.t -> float array -> (gate, failure) Stdlib.result

(** [model ?options gate xs] is the model stage on the sample [xs] that
    [gate] passed: block maxima over the time-ordered [xs] and a Gumbel
    or GEV fit, or, for POT and exponential POT, a GPD fit over the
    gate's sorted sample (forcing [gate.iid.sorted]).  Bit-identical to
    the model and block size of {!analyze}'s curve on the same
    arguments. *)
val model : ?options:options -> gate -> float array -> model

(** [analyze ?options ?jobs ?trace xs] runs the protocol on a collected
    sample: {!gate}, then the gate's sorted sample and the runs
    diagnostic ({!Iid.complete}), then {!model}, then the curve, the
    goodness-of-fit tests, the tail diagnostic and the bootstrap.
    [jobs] (default 1) fans the bootstrap replicates (when
    {!options.bootstrap} is set) out over the domain pool — results are
    bit-identical at every job count, the analysis-side extension of the
    campaign determinism contract.  The measurement vector is ordered
    once: the i.i.d. gate orders the two KS halves, by counting or by
    sorting ({!Repro_stats.Ks.two_halves}), and the sorted sample they
    give serves the runs-test median, the curve's ECDF, the POT
    threshold and the tail diagnostic.  Only the block maxima (a
    1/block_size share of the sample) and the convergence study's
    growing prefix are sorted apart from it.

    With [trace] attached, every intermediate verdict is also recorded as a
    trace event ({!Trace.Iid_result}, {!Trace.Convergence}, {!Trace.Evt_fit})
    and the counters [analysis.convergence_steps] /
    [analysis.bootstrap_replicates] are bumped — observation only, the
    returned analysis is unchanged.  Raises [Invalid_argument] on
    [jobs < 1]. *)
val analyze :
  ?options:options ->
  ?jobs:int ->
  ?trace:Trace.t ->
  float array ->
  (analysis, failure) Stdlib.result

(** [collect_and_analyze ?options ~runs ~measure ()] drives the measurement
    protocol itself: performs [runs] measurements by calling [measure i]
    (the harness is responsible for reseeding/flushing per run) and
    analyzes them.  Collection is {e strictly sequential} in ascending run
    order — this is the entry point for stateful measurement sources (e.g.
    a shared synthetic generator); a pure [measure] can use
    {!Campaign.run}'s domain-parallel collection instead. *)
val collect_and_analyze :
  ?options:options ->
  ?jobs:int ->
  runs:int ->
  measure:(int -> float) ->
  unit ->
  (analysis, failure) Stdlib.result

(** Standard cutoff-probability ladder of the paper's Figure 3:
    1e-6 .. 1e-15, one per decade (alternating decades: 1e-6, 1e-7, ...). *)
val standard_cutoffs : float list

(** [pwcet_table analysis] — pWCET estimate at each standard cutoff. *)
val pwcet_table : analysis -> (float * float) list

val pp_analysis : Format.formatter -> analysis -> unit
