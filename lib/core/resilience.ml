type outcome = Store.outcome =
  | Completed of float
  | Timeout of string
  | Crashed of string
  | Corrupted of string

type policy = { max_retries : int; min_survival : float }

let default_policy = { max_retries = 2; min_survival = 0.9 }

type record = { run_index : int; attempts : Store.trail; survived : bool }

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
  | Invalid_policy of string

let required_survivors ~policy ~runs =
  int_of_float (ceil (policy.min_survival *. float_of_int runs))

(* One run, measured to completion or quarantine, attempt 0 first.  A pure
   function of [run_index] as long as [measure] honours the determinism
   contract (outcome a pure function of [(run_index, attempt)]) — which is
   what lets the supervisor fan runs out over domains, and the store replay
   them, and still produce bit-identical reports at any job count. *)
let trail ~policy ~measure run_index =
  let rec go attempt acc =
    let outcome = measure ~run_index ~attempt in
    let acc = outcome :: acc in
    match outcome with
    | Completed _ -> List.rev acc
    | Timeout _ | Crashed _ | Corrupted _ ->
        if attempt >= policy.max_retries then List.rev acc else go (attempt + 1) acc
  in
  go 0 []

let outcome_kind = function
  | Completed _ -> "completed"
  | Timeout _ -> "timeout"
  | Crashed _ -> "crashed"
  | Corrupted _ -> "corrupted"

(* Per-run observability, emitted from the sequential accounting phase so
   events appear in canonical run order at any job count. *)
let trace_run trace ~run_index attempts ~time =
  match trace with
  | None -> ()
  | Some t ->
      let phase = Trace.current_phase t in
      List.iteri
        (fun attempt outcome ->
          match outcome with
          | Completed _ -> ()
          | Timeout detail | Crashed detail | Corrupted detail ->
              Trace.emit t
                (Trace.Fault
                   { phase; run_index; attempt; kind = outcome_kind outcome; detail }))
        attempts;
      let final =
        match List.rev attempts with [] -> "completed" | last :: _ -> outcome_kind last
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
       cached trails replace the measurement entirely. *)
    let trails =
      let trail = trail ~policy ~measure in
      match store with
      | None -> Parallel.init ?trace ?jobs runs trail
      | Some (session, phase) ->
          Store.collect_trails ?trace ?jobs session ~phase runs trail
    in
    (* Phase 2 — the campaign accounting, one fold in run order. *)
    let sample = ref [] (* survivors, newest first *) in
    let records = ref [] in
    let survivors = ref 0 in
    let retried_runs = ref 0 in
    let dropped_runs = ref 0 in
    let total_retries = ref 0 in
    Array.iteri
      (fun run_index attempts ->
        let time = match List.rev attempts with Completed v :: _ -> Some v | _ -> None in
        trace_run trace ~run_index attempts ~time;
        (* every attempt after the first is a retry *)
        let retries = match attempts with [] -> 0 | _ :: later -> List.length later in
        total_retries := !total_retries + retries;
        (match time with
        | Some v ->
            incr survivors;
            sample := v :: !sample
        | None -> incr dropped_runs);
        if retries > 0 then incr retried_runs;
        (* log only runs that faulted at least once *)
        if time = None || retries > 0 then
          records := { run_index; attempts; survived = time <> None } :: !records)
      trails;
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
  | (Timeout detail | Crashed detail | Corrupted detail) as o ->
      Format.fprintf ppf "%s: %s" (outcome_kind o) detail

let pp_error ppf = function
  | Too_few_survivors { survivors; required; total } ->
      Format.fprintf ppf "too few surviving runs: %d of %d (need %d)" survivors total
        required
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
        List.iteri (fun i o -> Format.fprintf ppf "  [%d] %a" i pp_outcome o) rec_.attempts)
      r.records
  end;
  Format.fprintf ppf "@]"
