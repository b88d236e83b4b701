(** One campaign specification for every front end (see DESIGN.md
    section 14.7).

    [mbpta analyze], its shard workers, [mbpta client] and the
    [mbpta serve] daemon all measure from this record, and this module is
    the only place that decides, for a campaign:
    - what its store key is ({!store_config}, {!key});
    - which values a shard worker must receive ({!to_args});
    - what counts as a valid spec ({!validate});
    - how a run becomes counters and a resilience outcome ({!measure},
      {!run}, {!collect_shard}).

    Cold, warm, resumed, sharded and daemon-served runs of one spec are
    therefore the same measurement: every path hashes it to the same key
    and measures it through the same glue. *)

module M := Repro_mbpta
module T := Repro_tvca

(** What to measure and how to analyze it.  [runs], [seed], [frames] and,
    for a {!resilient} spec, [seu_rate], [watchdog_budget] and
    [max_retries] determine the measured values; the other fields only
    steer the analysis. *)
type t = {
  runs : int;
  seed : int64;
  frames : int;
  tail : M.Protocol.tail;
  no_gates : bool;
  bootstrap : int;
  engineering_factor : float;
  seu_rate : float;
  watchdog_budget : int option;
  max_retries : int;
  min_survival : float;
}

(** The paper's protocol: 3,000 runs, seed 2017, the default frame count,
    Gumbel tail, gates on, no bootstrap, engineering factor 1.5, no fault
    injection, 2 retries, 90% survival. *)
val default : t

(** A spec measures with fault injection iff [seu_rate > 0] or a watchdog
    budget is set. *)
val resilient : t -> bool

(** Tail models by name, as [--tail] and the wire protocol spell them. *)
val tails : (string * M.Protocol.tail) list

val tail_name : M.Protocol.tail -> string

(** [Error (field, problem)] for the first field outside its domain, e.g.
    [("frames", "must lie in [1, 64] (got 65)")]: [runs >= 1],
    [1 <= frames <= Controller.history_length], [engineering_factor >= 1],
    [min_survival] in [[0, 1]], [seu_rate >= 0], [bootstrap] 0 or
    [>= 20], [max_retries >= 0] and a watchdog budget [>= 1].  A valid
    spec never makes the simulator raise. *)
val validate : t -> (unit, string * string) result

(** The store configuration of [mbpta analyze] for this spec: the campaign
    name, both platform configs, [seed], [frames], [runs], [resilient] and,
    for a resilient spec, [seu_rate], [watchdog_budget] and [max_retries].
    Analysis-only fields stay out, so re-analysis is a warm hit. *)
val store_config : t -> (string * string) list

(** [Store.key (store_config spec)]. *)
val key : t -> string

(** The store configuration of a fault-free sample on the randomized
    platform only (the one [iid] and [convergence] share): [runs], [seed]
    and [frames] of the spec. *)
val collect_rand_config : t -> (string * string) list

(** Analysis options: [tail], the i.i.d. and convergence gates (off under
    [no_gates]) and a bootstrap seeded with [seed] when [bootstrap > 0]. *)
val options : t -> M.Protocol.options

(** JSON object fields of the spec (floats round-trip via [%.17g]). *)
val json_fields : t -> (string * M.Trace.Json.t) list

(** Parse {!json_fields}; an absent field takes its {!default}.  Does not
    {!validate}. *)
val of_json : M.Trace.Json.t -> (t, string) result

(** The [mbpta analyze] options that carry exactly the fields
    {!store_config} digests: [--runs --seed=S --frames], plus for a
    resilient spec [--seu-rate] in [%h] (exact), [--max-retries] and
    [--watchdog-budget] when set.  A shard worker started with them
    writes to the coordinator's key. *)
val to_args : t -> string list

(** Run [run_index] to its cycle count.  With [counters], the run's
    metrics are added under [prefix] ([prefix ^ "runs"], ["cycles"],
    cache/TLB misses, ...); the cycle count is the same either way. *)
val measure :
  ?counters:M.Trace.Counters.t -> T.Experiment.t -> prefix:string -> int -> float

(** Run the campaign: {!Repro_mbpta.Campaign.run}, or
    {!Repro_mbpta.Campaign.run_resilient} for a {!resilient} spec.  With
    [trace], per-run metrics go to its counter registry under ["det."]
    and ["rand."].  [store] must be opened with {!store_config}, [runs]
    and [resilient spec]. *)
val run :
  ?jobs:int ->
  ?trace:M.Trace.t ->
  ?store:M.Store.session ->
  t ->
  (M.Campaign.t, M.Protocol.failure) result

(** Shard-worker mode of {!run}: {!Repro_mbpta.Campaign.collect_shard} or
    {!Repro_mbpta.Campaign.collect_shard_resilient}. *)
val collect_shard :
  ?jobs:int ->
  ?trace:M.Trace.t ->
  store:M.Store.session ->
  t ->
  (unit, M.Protocol.failure) result
