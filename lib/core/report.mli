(** The MBPTA-vs-industrial-practice comparison of the paper's Figure 3 and
    the "Average performance" paragraph, as a reusable report object. *)

type comparison = {
  det_summary : Repro_stats.Descriptive.summary;  (** DET platform times *)
  rand_summary : Repro_stats.Descriptive.summary;  (** RAND platform times *)
  average_overhead : float;
      (** RAND mean / DET mean - 1; the paper finds "no noticeable
          difference" *)
  mbta : Mbta.result;  (** industrial bound on the DET observations *)
  pwcet_at : (float * float) list;  (** MBPTA estimates at standard cutoffs *)
  margin_at_1e6 : float;
      (** pWCET(1e-6) over the highest RAND observation; the paper reports
          "an increase of 50%" at this cutoff *)
}

val compare :
  ?engineering_factor:float ->
  analysis:Protocol.analysis ->
  det_sample:float array ->
  unit ->
  comparison

(** {2 Schedule-randomization report}

    One row per shuffle policy.  [lib/core] deliberately does not see the
    TVCA layer, so rows carry pre-computed metrics (the CLI converts from
    [Rtos.randomization]). *)

type shuffle_row = {
  policy : string;  (** stable policy name: ["fixed"], ["shuffle"], ["jitter"] *)
  summary : Repro_stats.Descriptive.summary;
      (** per-run worst-case task response times *)
  pwcet_at_1e6 : float option;  (** [None] when the EVT fit was not produced *)
  analysis_note : string option;  (** gate failures etc., verbatim *)
  schedules : int;
  distinct_schedules : int;
  entropy_bits : float;  (** Shannon entropy of the realized schedules *)
  vulnerability : float;  (** attacker best-guess probability (modal schedule) *)
}

(** Renders the policy table; pWCET impact is reported relative to the
    ["fixed"] row when present. *)
val render_shuffle : shuffle_row list -> string

(** {2 Timing-leak verdict} *)

type leak_verdict = {
  label_a : string;
  label_b : string;
  welch : Repro_stats.Welch.result;
  cohens_d : float;
  leak : bool;  (** the Welch test rejected equal means at its alpha *)
}

(** [leak_verdict ?alpha ~label_a ~label_b xs ys] — Welch t-test plus
    Cohen's d over two campaigns.  Raises [Invalid_argument] (from the
    stats layer) if either sample has fewer than two observations or
    [alpha] is outside (0, 1). *)
val leak_verdict :
  ?alpha:float -> label_a:string -> label_b:string -> float array -> float array ->
  leak_verdict

(** One grep-able block; the verdict line contains ["LEAK DETECTED"] or
    ["no leak detected"]. *)
val render_leak : leak_verdict -> string

(** Full text report: i.i.d. verdicts, the pWCET table, the comparison and
    the Figure 2 plot; when the campaign ran under {!Resilience}
    supervision, a fault/retry summary table per platform is appended. *)
val render :
  analysis:Protocol.analysis ->
  comparison:comparison ->
  ?det_resilience:Resilience.report ->
  ?rand_resilience:Resilience.report ->
  unit ->
  string
