(* One campaign specification for the CLI, its shard workers and the
   daemon.  Everything that must agree byte for byte between those front
   ends — the store key, the worker argv, validation and the measurement
   glue — is defined here once. *)

module M = Repro_mbpta
module T = Repro_tvca
module P = Repro_platform
module Json = M.Trace.Json

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

let default =
  {
    runs = 3000;
    seed = 2017L;
    frames = T.Mission.default_frames;
    tail = M.Protocol.Gumbel;
    no_gates = false;
    bootstrap = 0;
    engineering_factor = 1.5;
    seu_rate = 0.;
    watchdog_budget = None;
    max_retries = 2;
    min_survival = 0.9;
  }

let resilient s = s.seu_rate > 0. || s.watchdog_budget <> None

let tails =
  [
    ("gumbel", M.Protocol.Gumbel);
    ("gev", M.Protocol.Gev);
    ("pot", M.Protocol.Pot);
    ("exp", M.Protocol.Exponential_pot);
  ]

let tail_name tail = fst (List.find (fun (_, t) -> t = tail) tails)

let tail_of_name name =
  match List.assoc_opt name tails with
  | Some t -> Ok t
  | None ->
      Error (Printf.sprintf "unknown tail model %S (expected gumbel|gev|pot|exp)" name)

(* The bounds are the simulator's own (Codegen.program, Experiment.fault_config)
   plus the analysis's, so a spec that passes never raises mid-campaign. *)
let validate s =
  let bad field fmt = Printf.ksprintf (fun problem -> Error (field, problem)) fmt in
  if s.runs < 1 then bad "runs" "must be >= 1 (got %d)" s.runs
  else if not (s.frames >= 1 && s.frames <= T.Controller.history_length) then
    bad "frames" "must lie in [1, %d] (got %d)" T.Controller.history_length s.frames
  else if not (s.engineering_factor >= 1.) then
    bad "engineering_factor" "must be >= 1 (got %g)" s.engineering_factor
  else if not (s.min_survival >= 0. && s.min_survival <= 1.) then
    bad "min_survival" "must lie in [0, 1] (got %g)" s.min_survival
  else if not (s.seu_rate >= 0.) then bad "seu_rate" "must be >= 0 (got %g)" s.seu_rate
  else if s.bootstrap <> 0 && s.bootstrap < 20 then
    bad "bootstrap" "must be 0 (off) or >= 20 replicates (got %d)" s.bootstrap
  else if s.max_retries < 0 then bad "max_retries" "must be >= 0 (got %d)" s.max_retries
  else
    match s.watchdog_budget with
    | Some b when b < 1 -> bad "watchdog_budget" "must be >= 1 (got %d)" b
    | _ -> Ok ()

(* string_of_float (%.12g) keeps every key spelled so far; a rate it
   cannot round-trip is spelled exactly in %h, so distinct rates never
   share a key. *)
let key_float r =
  let short = string_of_float r in
  if float_of_string short = r then short else Printf.sprintf "%h" r

(* The key digests only what determines a measured value; analysis-side
   knobs (tail, gates, bootstrap, engineering factor, min_survival) stay
   out so re-analysis is a cache hit. *)
let store_config s =
  let resilient = resilient s in
  [
    ("campaign", "analyze");
    ("det_config", "deterministic");
    ("rand_config", "mbpta_compliant");
    ("seed", Int64.to_string s.seed);
    ("frames", string_of_int s.frames);
    ("runs", string_of_int s.runs);
    ("resilient", string_of_bool resilient);
  ]
  @
  if resilient then
    [
      ("seu_rate", key_float s.seu_rate);
      ( "watchdog_budget",
        match s.watchdog_budget with None -> "none" | Some b -> string_of_int b );
      ("max_retries", string_of_int s.max_retries);
    ]
  else []

let key s = M.Store.key (store_config s)

let collect_rand_config s =
  [
    ("campaign", "collect_rand");
    ("rand_config", "mbpta_compliant");
    ("seed", Int64.to_string s.seed);
    ("frames", string_of_int s.frames);
    ("runs", string_of_int s.runs);
    ("resilient", "false");
  ]

let options s =
  let bootstrap =
    if s.bootstrap = 0 then None
    else
      Some
        {
          M.Protocol.default_bootstrap_options with
          M.Protocol.replicates = s.bootstrap;
          M.Protocol.bootstrap_seed = s.seed;
        }
  in
  {
    M.Protocol.default_options with
    M.Protocol.tail = s.tail;
    M.Protocol.gate_on_iid = not s.no_gates;
    M.Protocol.check_convergence = not s.no_gates;
    M.Protocol.bootstrap = bootstrap;
  }

(* ------------------------------------------------------------------ *)
(* Codecs *)

let json_fields s =
  [
    ("runs", Json.Int s.runs);
    ("seed", Json.String (Int64.to_string s.seed));
    ("frames", Json.Int s.frames);
    ("tail", Json.String (tail_name s.tail));
    ("no_gates", Json.Bool s.no_gates);
    ("bootstrap", Json.Int s.bootstrap);
    ("engineering_factor", Json.Float s.engineering_factor);
    ("seu_rate", Json.Float s.seu_rate);
    ( "watchdog_budget",
      match s.watchdog_budget with None -> Json.Null | Some b -> Json.Int b );
    ("max_retries", Json.Int s.max_retries);
    ("min_survival", Json.Float s.min_survival);
  ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let of_json j =
  let field k conv d = Option.value (Option.bind (Json.member k j) conv) ~default:d in
  let* seed =
    match Option.bind (Json.member "seed" j) Json.to_str with
    | None -> Ok default.seed
    | Some s -> (
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "malformed seed %S" s))
  in
  let* tail =
    match Option.bind (Json.member "tail" j) Json.to_str with
    | None -> Ok default.tail
    | Some s -> tail_of_name s
  in
  let watchdog_budget =
    match Json.member "watchdog_budget" j with
    | Some (Json.Int b) -> Some b
    | _ -> default.watchdog_budget
  in
  Ok
    {
      runs = field "runs" Json.to_int default.runs;
      seed;
      frames = field "frames" Json.to_int default.frames;
      tail;
      no_gates = field "no_gates" Json.to_bool default.no_gates;
      bootstrap = field "bootstrap" Json.to_int default.bootstrap;
      engineering_factor =
        field "engineering_factor" Json.to_float default.engineering_factor;
      seu_rate = field "seu_rate" Json.to_float default.seu_rate;
      watchdog_budget;
      max_retries = field "max_retries" Json.to_int default.max_retries;
      min_survival = field "min_survival" Json.to_float default.min_survival;
    }

(* The seed is glued to its flag: cmdliner reads a negative value in a
   token of its own as an unknown option. *)
let to_args s =
  [ "--runs"; string_of_int s.runs; "--seed=" ^ Int64.to_string s.seed ]
  @ [ "--frames"; string_of_int s.frames ]
  @
  if resilient s then
    (* %h round-trips the float exactly, so a worker measures with
       bit-identical fault parameters and writes to the same key *)
    [ "--seu-rate"; Printf.sprintf "%h" s.seu_rate ]
    @ [ "--max-retries"; string_of_int s.max_retries ]
    @
    match s.watchdog_budget with
    | None -> []
    | Some b -> [ "--watchdog-budget"; string_of_int b ]
  else []

(* ------------------------------------------------------------------ *)
(* Run glue: the tvca and mbpta libraries deliberately do not know about
   each other; this is the only place both sides meet. *)

(* Additions commute, so the totals are the same at every job count. *)
let record_metrics counters ~prefix (m : P.Metrics.t) =
  let add name v = M.Trace.Counters.add counters (prefix ^ name) v in
  add "runs" 1;
  add "cycles" m.P.Metrics.cycles;
  add "instructions" m.P.Metrics.instructions;
  add "il1_misses" m.P.Metrics.il1_misses;
  add "dl1_misses" m.P.Metrics.dl1_misses;
  add "itlb_misses" m.P.Metrics.itlb_misses;
  add "dtlb_misses" m.P.Metrics.dtlb_misses;
  add "bus_transactions" m.P.Metrics.bus_transactions;
  add "dram_row_misses" m.P.Metrics.dram_row_misses;
  add "faults_injected" m.P.Metrics.faults_injected

let measure ?counters exp ~prefix i =
  let m = T.Experiment.run exp ~run_index:i in
  (match counters with Some c -> record_metrics c ~prefix m | None -> ());
  float_of_int (P.Metrics.cycles m)

let resilience_outcome_of = function
  | T.Experiment.Completed { metrics; _ } ->
      M.Resilience.Completed (float_of_int (P.Metrics.cycles metrics))
  | T.Experiment.Watchdog { cycles; budget; _ } ->
      M.Resilience.Timeout
        (Printf.sprintf "watchdog fired at %d cycles (budget %d)" cycles budget)
  | T.Experiment.Runaway { program; _ } ->
      M.Resilience.Timeout ("runaway execution of " ^ program)
  | T.Experiment.Crashed { detail; _ } -> M.Resilience.Crashed detail
  | T.Experiment.Corrupted { worst_error; _ } ->
      M.Resilience.Corrupted
        (Printf.sprintf "worst output error %g" worst_error)

let input ?counters s =
  let experiment config =
    T.Experiment.create ~frames:s.frames ~config ~base_seed:s.seed ()
  in
  let det = experiment P.Config.deterministic in
  let rand = experiment P.Config.mbpta_compliant in
  let base =
    {
      M.Campaign.runs = s.runs;
      measure_det = measure ?counters det ~prefix:"det.";
      measure_rand = measure ?counters rand ~prefix:"rand.";
      options = options s;
      engineering_factor = s.engineering_factor;
    }
  in
  if not (resilient s) then `Plain base
  else begin
    let fault =
      T.Experiment.fault_config ~seu_rate:s.seu_rate ?watchdog_budget:s.watchdog_budget ()
    in
    let measure_outcome exp prefix ~run_index ~attempt =
      let outcome = T.Experiment.run_faulty exp ~fault ~attempt ~run_index () in
      (match (counters, outcome) with
      | Some counters, T.Experiment.Completed { metrics; _ } ->
          record_metrics counters ~prefix metrics
      | _ -> ());
      resilience_outcome_of outcome
    in
    let policy =
      { M.Resilience.max_retries = s.max_retries; min_survival = s.min_survival }
    in
    `Resilient
      (M.Campaign.resilient_input ~policy ~base
         ~measure_det_outcome:(measure_outcome det "det.")
         ~measure_rand_outcome:(measure_outcome rand "rand.") ())
  end

let run ?jobs ?trace ?store s =
  match input ?counters:(Option.map M.Trace.counters trace) s with
  | `Plain input -> M.Campaign.run ?jobs ?trace ?store input
  | `Resilient input -> M.Campaign.run_resilient ?jobs ?trace ?store input

let collect_shard ?jobs ?trace ~store s =
  match input ?counters:(Option.map M.Trace.counters trace) s with
  | `Plain input -> M.Campaign.collect_shard ?jobs ?trace ~store input
  | `Resilient input -> M.Campaign.collect_shard_resilient ?jobs ?trace ~store input
