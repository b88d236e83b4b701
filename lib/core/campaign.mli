(** A full measurement campaign: the four experiments of the paper's
    evaluation (E1 i.i.d., E2 pWCET curve, E3 MBPTA-vs-DET comparison, E4
    average performance) driven end-to-end from two measurement functions.

    Workload-agnostic: the harness supplies [measure_det] and [measure_rand]
    (run index to cycles; the harness owns reseeding/flushing), keeping this
    library independent of any particular platform or application — like a
    timing-analysis tool attached to a target.

    {!run} and {!run_resilient} share one body; only the way a phase is
    measured differs.  {!run} is the fault-free fast path: it computes
    every run directly (identical to the original seed pipeline).
    {!run_resilient} supervises each measurement through
    {!Resilience}: outcomes are classified, transient failures retried
    under a deterministic reseed policy, irrecoverable runs quarantined,
    and the campaign proceeds on the surviving sample when the policy's
    survival threshold is met.  Both return a typed [result] — campaign
    failure is a {!Protocol.failure}, never an exception. *)

type input = {
  runs : int;  (** the paper uses 3,000 *)
  measure_det : int -> float;
  measure_rand : int -> float;
  options : Protocol.options;
  engineering_factor : float;  (** MBTA margin, 1.5 in the paper *)
}

val default_input : measure_det:(int -> float) -> measure_rand:(int -> float) -> input

(** Resilient campaign: outcome-typed measurement functions plus a
    {!Resilience.policy}.  [measure_*_outcome ~run_index ~attempt] performs
    attempt [attempt] of run [run_index] ([attempt = 0] is the first try;
    the harness derives retry seeds from it deterministically). *)
type resilient_input = {
  base : input;  (** [base.measure_det]/[base.measure_rand] are unused here *)
  policy : Resilience.policy;
  measure_det_outcome : run_index:int -> attempt:int -> Resilience.outcome;
  measure_rand_outcome : run_index:int -> attempt:int -> Resilience.outcome;
}

val resilient_input :
  ?policy:Resilience.policy ->
  base:input ->
  measure_det_outcome:(run_index:int -> attempt:int -> Resilience.outcome) ->
  measure_rand_outcome:(run_index:int -> attempt:int -> Resilience.outcome) ->
  unit ->
  resilient_input

type t = {
  det_sample : float array;
  rand_sample : float array;
  analysis : (Protocol.analysis, Protocol.failure) Stdlib.result;
  comparison : comparison option;
  det_resilience : Resilience.report option;  (** [Some] under {!run_resilient} *)
  rand_resilience : Resilience.report option;
}

and comparison = Report.comparison

(** Fault-free campaign.  [Error (Not_enough_runs _)] when [input.runs < 1];
    the per-run analysis verdicts stay inside [t.analysis].

    Measurements execute on a chunked domain pool ({!Parallel}; [jobs]
    defaults to [Domain.recommended_domain_count ()]).  [measure_det] and
    [measure_rand] must return a pure function of the run index — the
    contract {!Repro_tvca.Experiment} satisfies by deriving each run's seeds
    and platform instance from [(base_seed, run_index)] — and then the
    samples and analysis are {e bit-identical} at every [jobs] value.  For a
    stateful measurement source (e.g. a shared synthetic generator), pass
    [~jobs:1] or use {!Protocol.collect_and_analyze}, which is strictly
    sequential.

    With [trace] attached ({!Trace.create}), the campaign additionally
    records its full event stream — lifecycle, per-run samples, i.i.d. and
    fit verdicts — without changing a bit of the result; at the default
    trace level the trace file itself is bit-identical at every [jobs]
    value.

    With [store] attached — an open {!Store.session} for this campaign's
    configuration (opened with [resilient:false] and [runs = input.runs]) —
    both measurement phases checkpoint to the session's record at every
    chunk barrier and replay any chunks already recorded: a warm record
    calls neither measurement function at all, and an interrupted campaign
    resumed from its record returns samples bit-identical to a cold
    sequential run (the determinism contract above extends to every
    cached/computed split). *)
val run :
  ?jobs:int ->
  ?trace:Trace.t ->
  ?store:Store.session ->
  input ->
  (t, Protocol.failure) Stdlib.result

(** Supervised campaign on a fault-prone platform, driven by the same body
    as {!run}.  Fails with [Not_enough_runs] when [input.base.runs < 1],
    with {!Protocol.Faulted_runs} when a phase misses the survival
    threshold, and with [Invalid_sample] at index [-1] when the policy is
    invalid ({!Resilience.supervise}'s [Invalid_policy]).  [jobs] and
    [trace] as in {!run}; see {!Resilience.supervise} for the per-run
    fault/retry events.  [store] as in {!run}, except the session must be
    opened with [resilient:true]: whole attempt trails (not just surviving
    latencies) are checkpointed, so a resumed campaign reproduces retry
    accounting and fault records bit-identically too. *)
val run_resilient :
  ?jobs:int ->
  ?trace:Trace.t ->
  ?store:Store.session ->
  resilient_input ->
  (t, Protocol.failure) Stdlib.result

(** Shard-worker mode of the distributed campaign layer: run {e only} the
    two measurement phases, restricted to [store]'s shard span (the session
    must be opened with [Store.open_session ~shard] and [input.runs] runs),
    and skip analysis entirely.  The coordinator merges the shard records
    ({!Store.merge}) and runs the full campaign over the merged record —
    which, by the determinism contract, is byte-identical to a
    single-process record, so the final report cannot depend on the shard
    count.  [Error (Not_enough_runs _)] when [input.runs < 1]. *)
val collect_shard :
  ?jobs:int ->
  ?trace:Trace.t ->
  store:Store.session ->
  input ->
  (unit, Protocol.failure) Stdlib.result

(** {!collect_shard} for supervised campaigns: collects whole attempt
    trails ({!Resilience.trail}) under the input's retry policy.  The
    session must be opened with [resilient:true].  Retry accounting and
    survival thresholds are {e not} applied here — they replay, in run
    order, in the coordinator's final {!run_resilient} over the merged
    record. *)
val collect_shard_resilient :
  ?jobs:int ->
  ?trace:Trace.t ->
  store:Store.session ->
  resilient_input ->
  (unit, Protocol.failure) Stdlib.result

(** Trace phase and store phase of the randomized-platform measurements
    (["collect_rand"]); warm readers of a record collect under it. *)
val phase_collect_rand : string

(** [collect_phase ?jobs ?trace ?store ~phase runs measure] — one
    fault-free measurement phase exactly as {!run} collects each platform:
    inside trace phase [phase], [runs] runs measured on the domain pool
    ({!Parallel.init}) or, with [store], through {!Store.collect} under
    [phase], then one {!Trace.Run} event per run ({!Trace.emit_sample}).
    The samples and trace are bit-identical at every [jobs] value when
    [measure] is a pure function of the run index. *)
val collect_phase :
  ?jobs:int ->
  ?trace:Trace.t ->
  ?store:Store.session ->
  phase:string ->
  int ->
  (int -> float) ->
  float array

(** [analysis_phase ?trace f] runs [f] as {!run} runs its analysis: inside
    the ["analyze"] trace phase and the {!Profile.Analysis} stage. *)
val analysis_phase : ?trace:Trace.t -> (unit -> 'a) -> 'a

(** Render the whole campaign as a text report (all four experiments, plus
    the fault/retry summary when the campaign ran resiliently). *)
val render : t -> string
