(** The i.i.d. verification step of the MBPTA protocol.

    MBPTA requires execution times to be independent and identically
    distributed before EVT may be applied.  Exactly as in the paper
    (Section III): independence is tested with Ljung-Box and identical
    distribution with the two-sample Kolmogorov-Smirnov test on the two
    halves of the series, both at a 5% significance level; i.i.d. is
    rejected only if either p-value falls below the level.  A
    Wald-Wolfowitz runs test is run as a complementary (non-gating)
    diagnostic. *)

type result = {
  ljung_box : Repro_stats.Ljung_box.result;
  kolmogorov_smirnov : Repro_stats.Ks.result;
  runs_diagnostic : Repro_stats.Runs_test.result;
  alpha : float;
  accepted : bool;  (** both gating tests passed *)
}

(** [check ?alpha xs] — [alpha] defaults to 0.05. *)
val check : ?alpha:float -> float array -> result

(** [check_and_sort ?alpha xs] is [check ?alpha xs] together with a fresh
    copy of [xs] sorted ascending in {!Repro_stats.Descriptive.sort}'s
    order.  The KS test sorts the two halves and the sorted sample is
    their O(n) merge, so a caller that needs order statistics after the
    check gets them without sorting again. *)
val check_and_sort : ?alpha:float -> float array -> result * float array

val pp : Format.formatter -> result -> unit
