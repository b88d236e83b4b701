type outcome =
  | Completed of float
  | Timeout of { detail : string }
  | Crashed of { detail : string }
  | Corrupted of { detail : string }

type policy = { max_retries : int; max_total_retries : int option; min_survival : float }

let default_policy = { max_retries = 2; max_total_retries = None; min_survival = 0.9 }

type attempt = { attempt : int; outcome : outcome }
type record = { run_index : int; attempts : attempt list; survived : bool }

type report = {
  sample : float array;
  records : record list;
  total_runs : int;
  survivors : int;
  retried_runs : int;
  dropped_runs : int;
  total_retries : int;
}

type error =
  | Too_few_survivors of { survivors : int; required : int; total : int }
  | Retry_budget_exhausted of { spent : int; limit : int; runs_completed : int }
  | Invalid_policy of string

exception Budget_gone of { spent : int; limit : int; runs_completed : int }

let required_survivors ~policy ~runs =
  int_of_float (ceil (policy.min_survival *. float_of_int runs))

(* One run, measured to completion or quarantine.  A pure function of
   [run_index] as long as [measure] honours the determinism contract
   (outcome a pure function of [(run_index, attempt)]) — which is what lets
   the supervisor fan runs out over domains and still produce bit-identical
   reports at any job count. *)
let measure_run ~policy ~measure run_index =
  let rec attempts_loop attempt acc =
    let outcome = measure ~run_index ~attempt in
    let acc = { attempt; outcome } :: acc in
    match outcome with
    | Completed time -> (List.rev acc, Some time)
    | Timeout _ | Crashed _ | Corrupted _ ->
        if attempt >= policy.max_retries then (List.rev acc, None)
        else attempts_loop (attempt + 1) acc
  in
  attempts_loop 0 []

(* Store boundary: the measurement store persists attempt trails in its
   own dependency-free outcome type; conversion is lossless (attempt
   numbers are positional — [measure_run] numbers them 0.. by
   construction), so a cached trail replays to exactly the attempts list
   a fresh measurement would have produced. *)
let store_outcome = function
  | Completed v -> Store.Completed v
  | Timeout { detail } -> Store.Timeout detail
  | Crashed { detail } -> Store.Crashed detail
  | Corrupted { detail } -> Store.Corrupted detail

let of_store_outcome = function
  | Store.Completed v -> Completed v
  | Store.Timeout detail -> Timeout { detail }
  | Store.Crashed detail -> Crashed { detail }
  | Store.Corrupted detail -> Corrupted { detail }

let trail_of_attempts attempts =
  List.map (fun { outcome; _ } -> store_outcome outcome) attempts

(* The store-facing measurement of one run: what [supervise]'s measurement
   phase checkpoints, exposed so shard workers can collect trails without
   running the accounting phase (the coordinator's final campaign replays
   them through [supervise] for the full report). *)
let trail ~policy ~measure run_index =
  trail_of_attempts (fst (measure_run ~policy ~measure run_index))

let attempts_of_trail trail =
  let attempts =
    List.mapi (fun i o -> { attempt = i; outcome = of_store_outcome o }) trail
  in
  let time =
    match List.rev trail with Store.Completed v :: _ -> Some v | _ -> None
  in
  (attempts, time)

let outcome_kind = function
  | Completed _ -> "completed"
  | Timeout _ -> "timeout"
  | Crashed _ -> "crashed"
  | Corrupted _ -> "corrupted"

let outcome_detail = function
  | Completed _ -> ""
  | Timeout { detail } | Crashed { detail } | Corrupted { detail } -> detail

(* Per-run observability, emitted from the sequential accounting phase so
   events appear in canonical run order at any job count. *)
let trace_run trace ~run_index ~attempts ~time =
  match trace with
  | None -> ()
  | Some t ->
      let phase = Trace.current_phase t in
      List.iter
        (fun { attempt; outcome } ->
          match outcome with
          | Completed _ -> ()
          | Timeout _ | Crashed _ | Corrupted _ ->
              Trace.emit t
                (Trace.Fault
                   {
                     phase;
                     run_index;
                     attempt;
                     kind = outcome_kind outcome;
                     detail = outcome_detail outcome;
                   }))
        attempts;
      let final =
        match attempts with
        | [] -> "completed"
        | _ -> outcome_kind (List.nth attempts (List.length attempts - 1)).outcome
      in
      Trace.emit t
        (Trace.Run
           {
             phase;
             run_index;
             attempts = List.length attempts;
             outcome = final;
             latency = time;
           })

let supervise ?jobs ?trace ?store ~policy ~runs ~measure () =
  if runs < 1 then Error (Invalid_policy "runs must be >= 1")
  else if policy.max_retries < 0 then Error (Invalid_policy "max_retries must be >= 0")
  else if not (policy.min_survival >= 0. && policy.min_survival <= 1.) then
    Error (Invalid_policy "min_survival must lie in [0, 1]")
  else begin
    (* Phase 1 — measurement, embarrassingly parallel: each run retries
       locally up to [max_retries] with no global coordination.  With a
       store attached, whole attempt trails are checkpointed per chunk and
       cached trails replace the measurement entirely; both the fresh and
       the cached path go through the trail round-trip, so the accounting
       phase sees identical values either way. *)
    let outcomes =
      match store with
      | None -> Parallel.init ?trace ?jobs runs (measure_run ~policy ~measure)
      | Some (session, phase) ->
          Store.collect_trails ?trace ?jobs session ~phase runs
            (trail ~policy ~measure)
          |> Array.map attempts_of_trail
    in
    (* Phase 2 — sequential replay of the campaign accounting, in run order.
       The campaign-wide retry budget is inherently sequential (whether run
       [i] may retry depends on retries spent by runs [< i]); replaying it
       over the already-measured attempt trails reproduces the sequential
       supervisor's result exactly.  When the budget dies mid-campaign,
       later runs were measured needlessly — wasted work in a case that
       aborts the campaign anyway, never a different answer. *)
    let sample = ref [] (* survivors, newest first *) in
    let records = ref [] in
    let survivors = ref 0 in
    let retried_runs = ref 0 in
    let dropped_runs = ref 0 in
    let total_retries = ref 0 in
    let spend_retry ~runs_completed =
      total_retries := !total_retries + 1;
      match policy.max_total_retries with
      | Some limit when !total_retries > limit ->
          raise (Budget_gone { spent = limit; limit; runs_completed })
      | Some _ | None -> ()
    in
    let account run_index (attempts, time) =
      trace_run trace ~run_index ~attempts ~time;
      (* every attempt beyond the first was preceded by one retry spend *)
      List.iter
        (fun { attempt; _ } ->
          if attempt > 0 then spend_retry ~runs_completed:run_index)
        attempts;
      (match time with
      | Some v ->
          incr survivors;
          sample := v :: !sample
      | None -> incr dropped_runs);
      if List.length attempts > 1 then incr retried_runs;
      (* log only runs that faulted at least once *)
      if time = None || List.length attempts > 1 then
        records := { run_index; attempts; survived = time <> None } :: !records
    in
    match Array.iteri account outcomes with
    | exception Budget_gone { spent; limit; runs_completed } ->
        Error (Retry_budget_exhausted { spent; limit; runs_completed })
    | () ->
        let required = required_survivors ~policy ~runs in
        if !survivors < required then
          Error (Too_few_survivors { survivors = !survivors; required; total = runs })
        else
          Ok
            {
              sample = Array.of_list (List.rev !sample);
              records = List.rev !records;
              total_runs = runs;
              survivors = !survivors;
              retried_runs = !retried_runs;
              dropped_runs = !dropped_runs;
              total_retries = !total_retries;
            }
  end

let pp_outcome ppf = function
  | Completed v -> Format.fprintf ppf "completed (%.0f cycles)" v
  | Timeout { detail } -> Format.fprintf ppf "timeout: %s" detail
  | Crashed { detail } -> Format.fprintf ppf "crashed: %s" detail
  | Corrupted { detail } -> Format.fprintf ppf "corrupted: %s" detail

let pp_error ppf = function
  | Too_few_survivors { survivors; required; total } ->
      Format.fprintf ppf "too few surviving runs: %d of %d (need %d)" survivors total
        required
  | Retry_budget_exhausted { spent; limit; runs_completed } ->
      Format.fprintf ppf "campaign retry budget exhausted: %d of %d spent after %d runs"
        spent limit runs_completed
  | Invalid_policy reason -> Format.fprintf ppf "invalid resilience policy: %s" reason

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fault/retry summary: %d runs, %d survived, %d retried, %d dropped, %d retries \
     spent"
    r.total_runs r.survivors r.retried_runs r.dropped_runs r.total_retries;
  if r.records <> [] then begin
    Format.fprintf ppf "@,faulted runs:";
    List.iter
      (fun rec_ ->
        Format.fprintf ppf "@,  run %5d  %-12s" rec_.run_index
          (if rec_.survived then "recovered" else "quarantined");
        List.iter
          (fun a -> Format.fprintf ppf "  [%d] %a" a.attempt pp_outcome a.outcome)
          rec_.attempts)
      r.records
  end;
  Format.fprintf ppf "@]"
