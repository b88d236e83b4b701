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

let finish ?jobs ?trace ~options ~engineering_factor ~det_sample ~rand_sample
    ~det_resilience ~rand_resilience () =
  let analysis =
    in_phase trace phase_analyze (fun () ->
        Profile.time Profile.Analysis (fun () ->
            Protocol.analyze ~options ?jobs ?trace rand_sample))
  in
  let comparison =
    match analysis with
    | Ok a -> Some (Report.compare ~engineering_factor ~analysis:a ~det_sample ())
    | Error _ -> None
  in
  { det_sample; rand_sample; analysis; comparison; det_resilience; rand_resilience }

let run ?jobs ?trace ?store input =
  (match trace with
  | Some t -> Trace.emit t (Trace.Campaign_start { runs = input.runs; resilient = false })
  | None -> ());
  let result =
    if input.runs < 1 then Error (Protocol.Not_enough_runs { have = input.runs; need = 1 })
    else begin
      (* Runs are independent by construction (per-run seed derivation), so
         both platforms' samples fan out over the domain pool; [jobs] only
         changes wall-clock time, never a bit of the result.  With a store
         session attached, each phase checkpoints per chunk and replays
         cached chunks instead of measuring. *)
      let collect phase measure =
        in_phase trace phase (fun () ->
            let sample =
              match store with
              | None -> Parallel.init ?trace ?jobs input.runs measure
              | Some session ->
                  Store.collect ?trace ?jobs session ~phase input.runs measure
            in
            (match trace with
            | Some t -> Trace.emit_sample t ~phase sample
            | None -> ());
            sample)
      in
      let det_sample = collect phase_collect_det input.measure_det in
      let rand_sample = collect phase_collect_rand input.measure_rand in
      Ok
        (finish ?jobs ?trace ~options:input.options
           ~engineering_factor:input.engineering_factor ~det_sample ~rand_sample
           ~det_resilience:None ~rand_resilience:None ())
    end
  in
  trace_campaign_end trace result;
  result

(* Shard-worker mode: run only the measurement phases of the campaign,
   restricted to the store session's shard span, and skip analysis — the
   coordinator merges the shard records and runs the full campaign (with
   accounting and analysis) over the merged record.  Because chunk layout
   and per-run values are pure functions of the run index, the chunks a
   shard collects are byte-identical to the single-process record's. *)
let collect_shard ?jobs ?trace ~store input =
  if input.runs < 1 then
    Error (Protocol.Not_enough_runs { have = input.runs; need = 1 })
  else begin
    let collect phase measure =
      in_phase trace phase (fun () ->
          ignore (Store.collect ?trace ?jobs store ~phase input.runs measure))
    in
    collect phase_collect_det input.measure_det;
    collect phase_collect_rand input.measure_rand;
    Ok ()
  end

let collect_shard_resilient ?jobs ?trace ~store input =
  let { base; policy; measure_det_outcome; measure_rand_outcome } = input in
  if base.runs < 1 then Error (Protocol.Not_enough_runs { have = base.runs; need = 1 })
  else begin
    let collect phase measure =
      in_phase trace phase (fun () ->
          ignore
            (Store.collect_trails ?trace ?jobs store ~phase base.runs
               (Resilience.trail ~policy ~measure)))
    in
    collect phase_collect_det measure_det_outcome;
    collect phase_collect_rand measure_rand_outcome;
    Ok ()
  end

let failure_of_resilience_error : Resilience.error -> Protocol.failure = function
  | Resilience.Too_few_survivors { survivors; required; total } ->
      Protocol.Faulted_runs { survivors; required; total }
  | Resilience.Retry_budget_exhausted { spent; limit; runs_completed } ->
      Protocol.Budget_exhausted { spent; limit; runs_completed }
  | Resilience.Invalid_policy reason ->
      Protocol.Invalid_sample { index = -1; value = Float.nan; reason }

let run_resilient ?jobs ?trace ?store input =
  let { base; policy; measure_det_outcome; measure_rand_outcome } = input in
  (match trace with
  | Some t -> Trace.emit t (Trace.Campaign_start { runs = base.runs; resilient = true })
  | None -> ());
  let supervise phase measure =
    in_phase trace phase (fun () ->
        let store = Option.map (fun s -> (s, phase)) store in
        Resilience.supervise ?jobs ?trace ?store ~policy ~runs:base.runs
          ~measure ()
        |> Result.map_error failure_of_resilience_error)
  in
  let result =
    match supervise phase_collect_det measure_det_outcome with
    | Error _ as e -> e
    | Ok det_report -> (
        match supervise phase_collect_rand measure_rand_outcome with
        | Error _ as e -> e
        | Ok rand_report ->
            Ok
              (finish ?jobs ?trace ~options:base.options
                 ~engineering_factor:base.engineering_factor
                 ~det_sample:det_report.Resilience.sample
                 ~rand_sample:rand_report.Resilience.sample
                 ~det_resilience:(Some det_report) ~rand_resilience:(Some rand_report) ()))
  in
  trace_campaign_end trace result;
  result

let render t =
  match (t.analysis, t.comparison) with
  | Ok analysis, Some comparison ->
      Report.render ~analysis ~comparison ?det_resilience:t.det_resilience
        ?rand_resilience:t.rand_resilience ()
  | Ok analysis, None -> Format.asprintf "%a" Protocol.pp_analysis analysis
  | Error f, _ -> Format.asprintf "campaign failed: %a" Protocol.pp_failure f
