(** The i.i.d. verification step of the MBPTA protocol.

    MBPTA requires execution times to be independent and identically
    distributed before EVT may be applied.  Exactly as in the paper
    (Section III): independence is tested with Ljung-Box and identical
    distribution with the two-sample Kolmogorov-Smirnov test on the two
    halves of the series, both at a 5% significance level; i.i.d. is
    rejected only if either p-value falls below the level.  A
    Wald-Wolfowitz runs test is run as a complementary (non-gating)
    diagnostic. *)

(** The gating pair alone: Ljung-Box on the series and KS on its two
    halves ({!Repro_stats.Ks.two_halves}).  [accepted] is the verdict
    {!check} returns; the runs diagnostic and the sorted sample are left
    out, so a caller that reads only the verdict pays for neither. *)
type gate = {
  ljung_box : Repro_stats.Ljung_box.result;
  kolmogorov_smirnov : Repro_stats.Ks.result;
  alpha : float;
  accepted : bool;  (** both gating tests passed *)
  sorted : float array Lazy.t;
      (** the sample sorted ascending in {!Repro_stats.Descriptive.sort}'s
          order, made in O(n) when first forced: written from the two
          halves' histograms, or merged from the two sorted halves *)
}

(** [gate ?alpha xs] — [alpha] defaults to 0.05. *)
val gate : ?alpha:float -> float array -> gate

type result = {
  ljung_box : Repro_stats.Ljung_box.result;
  kolmogorov_smirnov : Repro_stats.Ks.result;
  runs_diagnostic : Repro_stats.Runs_test.result;
  alpha : float;
  accepted : bool;  (** both gating tests passed *)
}

(** [complete gate xs] adds the runs diagnostic to [gate], the gate of
    the series [xs]: the full result of [check ?alpha xs] at [gate]'s
    alpha.  It forces [gate.sorted] for the median. *)
val complete : gate -> float array -> result

(** [check ?alpha xs] is [complete (gate ?alpha xs) xs]. *)
val check : ?alpha:float -> float array -> result

val pp : Format.formatter -> result -> unit
