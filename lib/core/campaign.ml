type input = {
  runs : int;
  measure_det : int -> float;
  measure_rand : int -> float;
  options : Protocol.options;
  engineering_factor : float;
}

let default_input ~measure_det ~measure_rand =
  {
    runs = 3000;
    measure_det;
    measure_rand;
    options = Protocol.default_options;
    engineering_factor = 1.5;
  }

type resilient_input = {
  base : input;
  policy : Resilience.policy;
  measure_det_outcome : run_index:int -> attempt:int -> Resilience.outcome;
  measure_rand_outcome : run_index:int -> attempt:int -> Resilience.outcome;
}

let resilient_input ?(policy = Resilience.default_policy) ~base ~measure_det_outcome
    ~measure_rand_outcome () =
  { base; policy; measure_det_outcome; measure_rand_outcome }

type t = {
  det_sample : float array;
  rand_sample : float array;
  analysis : (Protocol.analysis, Protocol.failure) Stdlib.result;
  comparison : comparison option;
  det_resilience : Resilience.report option;
  rand_resilience : Resilience.report option;
}

and comparison = Report.comparison

(* Phase names of the trace schema; the digest groups events by these. *)
let phase_collect_det = "collect_det"
let phase_collect_rand = "collect_rand"
let phase_analyze = "analyze"

let in_phase trace name f =
  match trace with
  | None -> f ()
  | Some t ->
      Trace.phase_start t name;
      let v = f () in
      Trace.phase_end t name;
      v

let trace_campaign_end trace result =
  match trace with
  | None -> ()
  | Some t ->
      let ok, failure =
        match result with
        | Ok _ -> (true, None)
        | Error f -> (false, Some (Format.asprintf "%a" Protocol.pp_failure f))
      in
      Trace.emit t (Trace.Campaign_end { ok; failure })

let collect_phase ?jobs ?trace ?store ~phase runs measure =
  in_phase trace phase (fun () ->
      let sample =
        match store with
        | None -> Parallel.init ?trace ?jobs runs measure
        | Some session -> Store.collect ?trace ?jobs session ~phase runs measure
      in
      (match trace with Some t -> Trace.emit_sample t ~phase sample | None -> ());
      sample)

let analysis_phase ?trace f =
  in_phase trace phase_analyze (fun () -> Profile.time Profile.Analysis f)

(* The one campaign body.  [collect phase measure] measures one platform's
   phase to its sample and, under supervision, its resilience report; runs
   are independent by construction (per-run seed derivation), so [jobs]
   only changes wall-clock time, never a bit of the result. *)
let drive ?jobs ?trace ~resilient (base : input) collect ~det ~rand =
  (match trace with
  | Some t -> Trace.emit t (Trace.Campaign_start { runs = base.runs; resilient })
  | None -> ());
  let result =
    let ( let* ) = Result.bind in
    if base.runs < 1 then Error (Protocol.Not_enough_runs { have = base.runs; need = 1 })
    else
      let* det_sample, det_resilience = collect phase_collect_det det in
      let* rand_sample, rand_resilience = collect phase_collect_rand rand in
      let analysis =
        analysis_phase ?trace (fun () ->
            Protocol.analyze ~options:base.options ?jobs ?trace rand_sample)
      in
      let comparison =
        match analysis with
        | Ok a ->
            Some
              (Report.compare ~engineering_factor:base.engineering_factor ~analysis:a
                 ~det_sample ())
        | Error _ -> None
      in
      Ok { det_sample; rand_sample; analysis; comparison; det_resilience; rand_resilience }
  in
  trace_campaign_end trace result;
  result

let run ?jobs ?trace ?store input =
  drive ?jobs ?trace ~resilient:false input
    (fun phase measure ->
      Ok (collect_phase ?jobs ?trace ?store ~phase input.runs measure, None))
    ~det:input.measure_det ~rand:input.measure_rand

let failure_of_resilience_error : Resilience.error -> Protocol.failure = function
  | Resilience.Too_few_survivors { survivors; required; total } ->
      Protocol.Faulted_runs { survivors; required; total }
  | Resilience.Invalid_policy reason ->
      Protocol.Invalid_sample { index = -1; value = Float.nan; reason }

let run_resilient ?jobs ?trace ?store input =
  let { base; policy; measure_det_outcome; measure_rand_outcome } = input in
  drive ?jobs ?trace ~resilient:true base
    (fun phase measure ->
      in_phase trace phase (fun () ->
          let store = Option.map (fun s -> (s, phase)) store in
          match
            Resilience.supervise ?jobs ?trace ?store ~policy ~runs:base.runs ~measure ()
          with
          | Ok r -> Ok (r.Resilience.sample, Some r)
          | Error e -> Error (failure_of_resilience_error e)))
    ~det:measure_det_outcome ~rand:measure_rand_outcome

(* Shard-worker mode: run only the measurement phases of the campaign,
   restricted to the store session's shard span, and skip analysis — the
   coordinator merges the shard records and runs the full campaign (with
   accounting and analysis) over the merged record.  Because chunk layout
   and per-run values are pure functions of the run index, the chunks a
   shard collects are byte-identical to the single-process record's. *)
let shard ?trace ~runs collect ~det ~rand =
  if runs < 1 then Error (Protocol.Not_enough_runs { have = runs; need = 1 })
  else begin
    in_phase trace phase_collect_det (fun () -> collect phase_collect_det det);
    in_phase trace phase_collect_rand (fun () -> collect phase_collect_rand rand);
    Ok ()
  end

let collect_shard ?jobs ?trace ~store input =
  shard ?trace ~runs:input.runs
    (fun phase measure ->
      ignore (Store.collect ?trace ?jobs store ~phase input.runs measure))
    ~det:input.measure_det ~rand:input.measure_rand

let collect_shard_resilient ?jobs ?trace ~store input =
  let { base; policy; measure_det_outcome; measure_rand_outcome } = input in
  shard ?trace ~runs:base.runs
    (fun phase measure ->
      ignore
        (Store.collect_trails ?trace ?jobs store ~phase base.runs
           (Resilience.trail ~policy ~measure)))
    ~det:measure_det_outcome ~rand:measure_rand_outcome

let render t =
  match (t.analysis, t.comparison) with
  | Ok analysis, Some comparison ->
      Report.render ~analysis ~comparison ?det_resilience:t.det_resilience
        ?rand_resilience:t.rand_resilience ()
  | Ok analysis, None -> Format.asprintf "%a" Protocol.pp_analysis analysis
  | Error f, _ -> Format.asprintf "campaign failed: %a" Protocol.pp_failure f
