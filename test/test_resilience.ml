(* Tests for the robustness layer: the widened Protocol failure taxonomy
   (invalid samples rejected with typed errors, not undefined behavior),
   the Resilience run supervisor (classify / retry / quarantine / survival
   threshold), SEU fault-injection determinism on the real TVCA workload,
   and the resilient campaign end to end. *)

module Prng = Repro_rng.Prng
module S = Repro_stats
module E = Repro_evt
module M = Repro_mbpta
module P = Repro_platform
module T = Repro_tvca
module R = M.Resilience

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf tol = Alcotest.check (Alcotest.float tol)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* [f dir] on a fresh store root, removed afterwards. *)
let with_store_root f =
  let dir = Filename.temp_file "test_resilience" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir (M.Store.open_root ~dir))

let gumbel_sample seed ~mu ~beta n =
  let g = Prng.create seed in
  let d = S.Distribution.Gumbel.create ~mu ~beta in
  Array.init n (fun _ -> S.Distribution.Gumbel.sample d g)

(* ------------------------------------------------------------------ *)
(* Protocol failure paths *)

let test_invalid_sample_nan () =
  let xs = gumbel_sample 11L ~mu:100. ~beta:5. 500 in
  xs.(123) <- Float.nan;
  match M.Protocol.analyze xs with
  | Error (M.Protocol.Invalid_sample { index; reason; _ }) ->
      checki "index" 123 index;
      Alcotest.check Alcotest.string "reason" "NaN" reason
  | Error f -> Alcotest.failf "wrong failure: %a" M.Protocol.pp_failure f
  | Ok _ -> Alcotest.fail "NaN sample must be rejected"

let test_invalid_sample_negative_and_infinite () =
  let xs = gumbel_sample 12L ~mu:100. ~beta:5. 500 in
  xs.(7) <- -1.;
  (match M.Protocol.analyze xs with
  | Error (M.Protocol.Invalid_sample { index; reason; _ }) ->
      checki "index" 7 index;
      Alcotest.check Alcotest.string "reason" "negative" reason
  | Error f -> Alcotest.failf "wrong failure: %a" M.Protocol.pp_failure f
  | Ok _ -> Alcotest.fail "negative sample must be rejected");
  xs.(7) <- Float.infinity;
  match M.Protocol.analyze xs with
  | Error (M.Protocol.Invalid_sample { reason; _ }) ->
      Alcotest.check Alcotest.string "reason" "infinite" reason
  | Error f -> Alcotest.failf "wrong failure: %a" M.Protocol.pp_failure f
  | Ok _ -> Alcotest.fail "infinite sample must be rejected"

(* The sample check alone, which mbpta iid and convergence run before
   their gate or study. *)
let test_validate_sample () =
  let xs = gumbel_sample 13L ~mu:100. ~beta:5. 500 in
  checkb "clean sample" true (Option.is_none (M.Protocol.validate_sample xs));
  List.iter
    (fun (index, value, reason) ->
      let ys = Array.copy xs in
      ys.(index) <- value;
      match M.Protocol.validate_sample ys with
      | Some (M.Protocol.Invalid_sample { index = i; reason = r; _ }) ->
          checki (reason ^ " index") index i;
          Alcotest.check Alcotest.string "reason" reason r
      | Some f -> Alcotest.failf "wrong failure: %a" M.Protocol.pp_failure f
      | None -> Alcotest.failf "a %s value must be rejected" reason)
    [ (1, Float.nan, "NaN"); (250, Float.infinity, "infinite"); (499, -1., "negative") ]

let test_not_enough_runs () =
  match M.Protocol.analyze [| 1.; 2. |] with
  | Error (M.Protocol.Not_enough_runs { have; need }) ->
      checki "have" 2 have;
      checkb "need >= 100" true (need >= 100)
  | _ -> Alcotest.fail "expected Not_enough_runs"

let test_iid_rejected () =
  let g = Prng.create 13L in
  let n = 800 in
  let xs = Array.make n 0. in
  for i = 1 to n - 1 do
    xs.(i) <- (0.9 *. xs.(i - 1)) +. Prng.gaussian g
  done;
  (* shift up so the sample is non-negative yet still autocorrelated *)
  let lo = Array.fold_left Float.min xs.(0) xs in
  let xs = Array.map (fun v -> v -. lo) xs in
  match M.Protocol.analyze xs with
  | Error (M.Protocol.Iid_rejected _) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" M.Protocol.pp_failure f
  | Ok _ -> Alcotest.fail "expected Iid_rejected"

let test_not_converged () =
  let xs = gumbel_sample 14L ~mu:1000. ~beta:50. 1000 in
  let options =
    {
      M.Protocol.default_options with
      M.Protocol.convergence_tolerance = 0.;  (* unattainable stability *)
    }
  in
  match M.Protocol.analyze ~options xs with
  | Error (M.Protocol.Not_converged c) -> checkb "flagged" false c.E.Convergence.converged
  | Error f -> Alcotest.failf "wrong failure: %a" M.Protocol.pp_failure f
  | Ok _ -> Alcotest.fail "expected Not_converged"

let test_pwcet_guards_are_not_asserts () =
  let xs = gumbel_sample 15L ~mu:100. ~beta:5. 200 in
  let model =
    E.Pwcet.Gumbel_tail (S.Distribution.Gumbel.create ~mu:100. ~beta:5.)
  in
  Alcotest.check_raises "block_size 0 rejected"
    (Invalid_argument "Pwcet.create: block_size must be >= 1") (fun () ->
      ignore (E.Pwcet.create ~model ~block_size:0 ~sample:xs));
  Alcotest.check_raises "empty sample rejected"
    (Invalid_argument "Pwcet.create: empty sample") (fun () ->
      ignore (E.Pwcet.create ~model ~block_size:1 ~sample:[||]));
  let curve = E.Pwcet.create ~model ~block_size:1 ~sample:xs in
  Alcotest.check_raises "cutoff 1.5 rejected"
    (Invalid_argument "Pwcet.estimate: cutoff_probability must lie in (0, 1)") (fun () ->
      ignore (E.Pwcet.estimate curve ~cutoff_probability:1.5))

(* Every campaign entry point answers [runs = 0] with the same typed
   failure. *)
let test_campaign_rejects_zero_runs () =
  let input =
    {
      (M.Campaign.default_input ~measure_det:(fun _ -> 1.) ~measure_rand:(fun _ -> 1.))
      with
      M.Campaign.runs = 0;
    }
  in
  let resilient =
    M.Campaign.resilient_input ~base:input
      ~measure_det_outcome:(fun ~run_index:_ ~attempt:_ -> R.Completed 1.)
      ~measure_rand_outcome:(fun ~run_index:_ ~attempt:_ -> R.Completed 1.) ()
  in
  with_store_root @@ fun _ root ->
  let store =
    match
      M.Store.open_session root ~key:(M.Store.key []) ~config:[] ~runs:0 ~resilient:false
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "open_session: %s" e
  in
  let campaigns =
    [
      ("run", fun () -> M.Campaign.run input |> Result.map ignore);
      ("run_resilient", fun () -> M.Campaign.run_resilient resilient |> Result.map ignore);
      ("collect_shard", fun () -> M.Campaign.collect_shard ~store input);
      ( "collect_shard_resilient",
        fun () -> M.Campaign.collect_shard_resilient ~store resilient );
    ]
  in
  List.iter
    (fun (name, campaign) ->
      match campaign () with
      | Error (M.Protocol.Not_enough_runs { have; need }) ->
          checki (name ^ ": have") 0 have;
          checki (name ^ ": need") 1 need
      | Error f -> Alcotest.failf "%s: wrong failure: %a" name M.Protocol.pp_failure f
      | Ok () -> Alcotest.failf "%s: runs = 0 must be a typed failure" name)
    campaigns;
  M.Store.close store

(* ------------------------------------------------------------------ *)
(* Resilience supervisor *)

let completed v = R.Completed v

let test_supervise_clean_campaign () =
  (* [measure] runs on worker domains, where Alcotest's formatter must not
     be touched: record the calls atomically and assert afterwards. *)
  let calls = Atomic.make 0 and retries = Atomic.make 0 in
  let measure ~run_index ~attempt =
    Atomic.incr calls;
    if attempt <> 0 then Atomic.incr retries;
    completed (float_of_int run_index)
  in
  match R.supervise ~policy:R.default_policy ~runs:50 ~measure () with
  | Error e -> Alcotest.failf "unexpected error: %a" R.pp_error e
  | Ok r ->
      checki "one call per run" 50 (Atomic.get calls);
      checki "first attempt only" 0 (Atomic.get retries);
      checki "all survive" 50 r.R.survivors;
      checki "none dropped" 0 r.R.dropped_runs;
      checki "no retries" 0 r.R.total_retries;
      checkb "no fault records" true (r.R.records = []);
      checkf 0. "run order preserved" 49. r.R.sample.(49)

let test_supervise_retries_transients () =
  (* every third run fails its first attempt, then recovers *)
  let measure ~run_index ~attempt =
    if run_index mod 3 = 0 && attempt = 0 then R.Timeout "transient"
    else completed 100.
  in
  match R.supervise ~policy:R.default_policy ~runs:30 ~measure () with
  | Error e -> Alcotest.failf "unexpected error: %a" R.pp_error e
  | Ok r ->
      checki "all survive" 30 r.R.survivors;
      checki "ten runs retried" 10 r.R.retried_runs;
      checki "ten retries spent" 10 r.R.total_retries;
      checki "faulted runs logged" 10 (List.length r.R.records);
      checkb "logged runs marked recovered" true
        (List.for_all (fun (rec_ : R.record) -> rec_.R.survived) r.R.records)

let test_supervise_quarantines_and_proceeds () =
  (* runs 0 and 1 are irrecoverable; threshold of 90% still met at 50 runs *)
  let measure ~run_index ~attempt:_ =
    if run_index < 2 then R.Crashed "hard fault" else completed 1.
  in
  match R.supervise ~policy:R.default_policy ~runs:50 ~measure () with
  | Error e -> Alcotest.failf "unexpected error: %a" R.pp_error e
  | Ok r ->
      checki "two dropped" 2 r.R.dropped_runs;
      checki "survivors" 48 r.R.survivors;
      checki "sample excludes quarantined" 48 (Array.length r.R.sample);
      let quarantined =
        List.filter (fun (rec_ : R.record) -> not rec_.R.survived) r.R.records
      in
      checki "both quarantined runs reported" 2 (List.length quarantined);
      (* each quarantined run burned 1 try + max_retries retries *)
      List.iter
        (fun (rec_ : R.record) ->
          checki "attempts recorded" (R.default_policy.R.max_retries + 1)
            (List.length rec_.R.attempts))
        quarantined

let test_supervise_survival_threshold () =
  let measure ~run_index ~attempt:_ =
    if run_index mod 2 = 0 then R.Corrupted "flipped" else completed 1.
  in
  match R.supervise ~policy:R.default_policy ~runs:40 ~measure () with
  | Error (R.Too_few_survivors { survivors; required; total }) ->
      checki "survivors" 20 survivors;
      checki "total" 40 total;
      checki "required = ceil(0.9 * 40)" 36 required
  | Error e -> Alcotest.failf "wrong error: %a" R.pp_error e
  | Ok _ -> Alcotest.fail "50% survival must fail a 90% threshold"

let test_supervise_invalid_policy () =
  let measure ~run_index:_ ~attempt:_ = completed 1. in
  (match R.supervise ~policy:R.default_policy ~runs:0 ~measure () with
  | Error (R.Invalid_policy _) -> ()
  | _ -> Alcotest.fail "runs 0 rejected");
  (match
     R.supervise
       ~policy:{ R.default_policy with R.max_retries = -1 }
       ~runs:10 ~measure ()
   with
  | Error (R.Invalid_policy _) -> ()
  | _ -> Alcotest.fail "negative retries rejected");
  match
    R.supervise
      ~policy:{ R.default_policy with R.min_survival = 1.5 }
      ~runs:10 ~measure ()
  with
  | Error (R.Invalid_policy _) -> ()
  | _ -> Alcotest.fail "min_survival > 1 rejected"

(* ------------------------------------------------------------------ *)
(* SEU injection on the real platform *)

let frames = 4
let seu_rate = 40.

let experiment () =
  T.Experiment.create ~frames ~config:P.Config.mbpta_compliant ~base_seed:77L ()

let test_zero_rate_bit_identical () =
  let exp = experiment () in
  let fault = T.Experiment.fault_config () in
  for run_index = 0 to 4 do
    match T.Experiment.run_faulty exp ~fault ~run_index () with
    | T.Experiment.Completed { metrics; faults } ->
        checki "no faults injected" 0 (List.length faults);
        checki "cycles identical to plain pipeline"
          (int_of_float (T.Experiment.measure exp ~run_index))
          (P.Metrics.cycles metrics);
        checki "metrics count no faults" 0 metrics.P.Metrics.faults_injected
    | o -> Alcotest.failf "rate 0 must complete: %a" T.Experiment.pp_fault_outcome o
  done

let test_fault_injection_deterministic () =
  let fault = T.Experiment.fault_config ~seu_rate ~watchdog_budget:2_000_000 () in
  let campaign_outcomes () =
    let exp = experiment () in
    List.init 20 (fun run_index -> T.Experiment.run_faulty exp ~fault ~run_index ())
  in
  let a = campaign_outcomes () and b = campaign_outcomes () in
  (* same base seed + rate: identical fault sites, instants and outcomes *)
  List.iteri
    (fun i (oa, ob) ->
      checkb
        (Printf.sprintf "run %d fault schedule identical" i)
        true
        (T.Experiment.fault_records oa = T.Experiment.fault_records ob);
      checkb
        (Printf.sprintf "run %d outcome identical" i)
        true
        (Format.asprintf "%a" T.Experiment.pp_fault_outcome oa
        = Format.asprintf "%a" T.Experiment.pp_fault_outcome ob))
    (List.combine a b)

let test_faults_actually_injected_and_counted () =
  let exp = experiment () in
  let fault = T.Experiment.fault_config ~seu_rate ~watchdog_budget:2_000_000 () in
  let total = ref 0 in
  let completed_with_faults = ref 0 in
  for run_index = 0 to 19 do
    let o = T.Experiment.run_faulty exp ~fault ~run_index () in
    let faults = T.Experiment.fault_records o in
    total := !total + List.length faults;
    match o with
    | T.Experiment.Completed { metrics; faults } ->
        checki "metrics agree with the injection log"
          (List.length faults) metrics.P.Metrics.faults_injected;
        if faults <> [] then incr completed_with_faults
    | _ -> ()
  done;
  checkb "the injector does fire at this rate" true (!total > 0);
  checkb "some runs complete despite upsets" true (!completed_with_faults > 0)

let test_retry_attempts_differ () =
  (* the deterministic reseed policy must actually change the randomization
     between attempts of the same run (else retrying an SEU-independent
     failure would loop forever) *)
  let exp = experiment () in
  let fault = T.Experiment.fault_config ~seu_rate ~watchdog_budget:2_000_000 () in
  (* run 2 is known to take upsets on attempt 0 at this seed and rate, so the
     comparison is between two non-empty schedules *)
  let schedule attempt =
    T.Experiment.fault_records (T.Experiment.run_faulty exp ~fault ~attempt ~run_index:2 ())
  in
  checkb "attempt 0 takes upsets" true (schedule 0 <> []);
  checkb "attempt 1 reseeds the fault stream" true (schedule 0 <> schedule 1);
  checkb "attempt derivation is itself deterministic" true (schedule 1 = schedule 1)

let test_watchdog_budget_fires () =
  let exp = experiment () in
  (* 1-cycle budget: every run times out immediately, fault-free or not *)
  let fault = T.Experiment.fault_config ~watchdog_budget:1 () in
  match T.Experiment.run_faulty exp ~fault ~run_index:0 () with
  | T.Experiment.Watchdog { cycles; budget; _ } ->
      checki "budget echoed" 1 budget;
      checkb "cycles past budget" true (cycles > budget)
  | o -> Alcotest.failf "expected watchdog: %a" T.Experiment.pp_fault_outcome o

(* ------------------------------------------------------------------ *)
(* Resilient campaign end to end *)

let outcome_of = function
  | T.Experiment.Completed { metrics; _ } ->
      R.Completed (float_of_int (P.Metrics.cycles metrics))
  | T.Experiment.Watchdog _ -> R.Timeout "watchdog"
  | T.Experiment.Runaway _ -> R.Timeout "runaway"
  | T.Experiment.Crashed { detail; _ } -> R.Crashed detail
  | T.Experiment.Corrupted { worst_error; _ } ->
      R.Corrupted (Printf.sprintf "error %g" worst_error)

let test_resilient_campaign_on_tvca () =
  let runs = 150 in
  let det = T.Experiment.create ~frames ~config:P.Config.deterministic ~base_seed:77L () in
  let rand = experiment () in
  let fault = T.Experiment.fault_config ~seu_rate ~watchdog_budget:2_000_000 () in
  let measure exp ~run_index ~attempt =
    outcome_of (T.Experiment.run_faulty exp ~fault ~attempt ~run_index ())
  in
  let base =
    {
      (M.Campaign.default_input
         ~measure_det:(fun i -> T.Experiment.measure det ~run_index:i)
         ~measure_rand:(fun i -> T.Experiment.measure rand ~run_index:i))
      with
      M.Campaign.runs;
      M.Campaign.options =
        {
          M.Protocol.default_options with
          M.Protocol.check_convergence = false;
          M.Protocol.gate_on_iid = false;
        };
    }
  in
  let policy = { R.max_retries = 3; R.min_survival = 0.5 } in
  match
    M.Campaign.run_resilient
      (M.Campaign.resilient_input ~policy ~base ~measure_det_outcome:(measure det)
         ~measure_rand_outcome:(measure rand) ())
  with
  | Error f -> Alcotest.failf "resilient campaign failed: %a" M.Protocol.pp_failure f
  | Ok c ->
      let rand_report =
        match c.M.Campaign.rand_resilience with
        | Some r -> r
        | None -> Alcotest.fail "resilient campaign must carry a RAND report"
      in
      checki "bookkeeping adds up" runs
        (rand_report.R.survivors + rand_report.R.dropped_runs);
      checki "sample is the survivor set" rand_report.R.survivors
        (Array.length c.M.Campaign.rand_sample);
      (match c.M.Campaign.analysis with
      | Ok a ->
          (* the surviving sample still yields a valid pWCET curve *)
          checkb "curve upper-bounds survivors" true
            (E.Pwcet.upper_bounds_observations a.M.Protocol.curve)
      | Error f ->
          Alcotest.failf "analysis on survivors failed: %a" M.Protocol.pp_failure f);
      let text = M.Campaign.render c in
      let contains ~needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      checkb "report renders the fault summary" true
        (contains ~needle:"fault/retry summary" text)

(* ------------------------------------------------------------------ *)
(* Committed transcript of a supervised, stored campaign: the report, the
   runs-level trace and the record's md5, recomputed against
   test/fixtures/resilience_golden.txt at two job counts.  A change that
   moves a report line, a Fault or Run event or a record byte shows up
   here against a fixed text, not only against another run of the same
   code. *)

let golden_fixture = Filename.concat "fixtures" "resilience_golden.txt"
let golden_output = "resilience_golden.txt"
let golden_runs = 300

(* Pure in [(run_index, attempt)], as the supervisor requires.  Every 29th
   run never completes and is quarantined after its two retries; every 7th
   times out once; every 11th crashes, then comes back corrupted, then
   completes; every 13th comes back corrupted once.  A completed attempt
   draws a Gumbel-shaped cycle count from a multiplicative hash of
   [(base, run_index, attempt)]. *)
let golden_outcome ~base ~run_index ~attempt =
  let detail what = Printf.sprintf "%s run=%d attempt=%d" what run_index attempt in
  if run_index mod 29 = 0 then
    match attempt mod 3 with
    | 0 -> R.Timeout (detail "watchdog")
    | 1 -> R.Crashed (detail "trap")
    | _ -> R.Corrupted (detail "checksum")
  else if run_index mod 7 = 3 && attempt = 0 then R.Timeout (detail "watchdog")
  else if run_index mod 11 = 5 && attempt = 0 then R.Crashed (detail "trap")
  else if run_index mod 11 = 5 && attempt = 1 then
    R.Corrupted (detail "checksum")
  else if run_index mod 13 = 6 && attempt = 0 then
    R.Corrupted (detail "checksum")
  else
    let h = ((run_index * 131) + attempt + int_of_float base) * 0x2545F4914F6CDD1D in
    let h = (h lxor (h lsr 29)) * 0x2545F4914F6CDD1D in
    let u = (float_of_int ((h lsr 23) land 0xFFFFF) +. 0.5) /. 1048576. in
    R.Completed (Float.round (base +. (800. *. -.log (-.log u))))

(* One supervised campaign into a fresh store directory: the rendered
   report (or the failure line), every runs-level trace event, and the md5
   of the record the session wrote. *)
let golden_campaign ~jobs ~min_survival =
  with_store_root @@ fun dir root ->
  let config = [ ("test", "resilience-golden"); ("runs", string_of_int golden_runs) ] in
  let key = M.Store.key ~chunk_size:64 config in
  let session =
    match
      M.Store.open_session ~chunk_size:64 root ~key ~config ~runs:golden_runs
        ~resilient:true
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "open_session: %s" e
  in
  let base =
    {
      (M.Campaign.default_input ~measure_det:(fun _ -> 0.) ~measure_rand:(fun _ -> 0.))
      with
      M.Campaign.runs = golden_runs;
      M.Campaign.options =
        {
          M.Protocol.default_options with
          M.Protocol.check_convergence = false;
          M.Protocol.gate_on_iid = false;
        };
    }
  in
  let policy = { R.max_retries = 2; R.min_survival } in
  let input =
    M.Campaign.resilient_input ~policy ~base
      ~measure_det_outcome:(golden_outcome ~base:90_000.)
      ~measure_rand_outcome:(golden_outcome ~base:100_000.) ()
  in
  let trace = M.Trace.create_mem ~level:M.Trace.Runs () in
  let result = M.Campaign.run_resilient ~jobs ~trace ~store:session input in
  M.Store.close session;
  let events = List.map M.Trace.to_line (M.Trace.drain trace) in
  let record = Filename.concat dir (key ^ ".jsonl") in
  (result, events, Digest.to_hex (Digest.file record))

let failure_line f = Format.asprintf "campaign failed: %a" M.Protocol.pp_failure f

let golden_transcript ~jobs =
  let b = Buffer.create 65536 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  (match golden_campaign ~jobs ~min_survival:0.9 with
  | Ok c, events, md5 ->
      line "== report at min_survival 0.9";
      line (M.Campaign.render c);
      line "== runs-level trace";
      List.iter line events;
      line ("== record md5 " ^ md5)
  | Error f, _, _ -> line (failure_line f));
  (match golden_campaign ~jobs ~min_survival:1.0 with
  | Ok _, _, _ -> line "campaign succeeded at min_survival 1.0"
  | Error f, _, _ ->
      line "== failure at min_survival 1.0";
      line (failure_line f));
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let test_golden_fixture () =
  let want = try Some (read_file golden_fixture) with Sys_error _ -> None in
  List.iter
    (fun jobs ->
      let got = golden_transcript ~jobs in
      match want with
      | Some want when String.equal want got -> ()
      | want ->
          let oc = open_out_bin golden_output in
          output_string oc got;
          close_out oc;
          let first_diff =
            match want with
            | None -> "fixture missing"
            | Some want ->
                let rec go i = function
                  | w :: ws, g :: gs ->
                      if String.equal w g then go (i + 1) (ws, gs) else (i, w, g)
                  | w :: _, [] -> (i, w, "<end>")
                  | [], g :: _ -> (i, "<end>", g)
                  | [], [] -> (i, "", "")
                in
                let i, w, g =
                  go 1 (String.split_on_char '\n' want, String.split_on_char '\n' got)
                in
                Printf.sprintf "line %d: fixture %S, campaign %S" i w g
          in
          Alcotest.failf
            "supervised campaign transcript at jobs=%d differs from %s (%s); the \
             recomputed transcript is in %s — copy it over test/%s if the change is \
             intended"
            jobs golden_fixture first_diff
            (Filename.concat (Sys.getcwd ()) golden_output)
            golden_fixture)
    [ 1; 4 ]

let () =
  Alcotest.run "resilience"
    [
      ( "protocol failures",
        [
          Alcotest.test_case "invalid sample: NaN" `Quick test_invalid_sample_nan;
          Alcotest.test_case "invalid sample: negative, infinite" `Quick
            test_invalid_sample_negative_and_infinite;
          Alcotest.test_case "validate_sample names the invalid value" `Quick
            test_validate_sample;
          Alcotest.test_case "not enough runs" `Quick test_not_enough_runs;
          Alcotest.test_case "iid rejected" `Quick test_iid_rejected;
          Alcotest.test_case "not converged" `Quick test_not_converged;
          Alcotest.test_case "pwcet guards survive release builds" `Quick
            test_pwcet_guards_are_not_asserts;
          Alcotest.test_case "campaign rejects zero runs" `Quick
            test_campaign_rejects_zero_runs;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "clean campaign" `Quick test_supervise_clean_campaign;
          Alcotest.test_case "retries transients" `Quick test_supervise_retries_transients;
          Alcotest.test_case "quarantines and proceeds" `Quick
            test_supervise_quarantines_and_proceeds;
          Alcotest.test_case "survival threshold" `Quick test_supervise_survival_threshold;
          Alcotest.test_case "invalid policy" `Quick test_supervise_invalid_policy;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "zero rate is bit-identical" `Quick
            test_zero_rate_bit_identical;
          Alcotest.test_case "deterministic from base seed" `Quick
            test_fault_injection_deterministic;
          Alcotest.test_case "faults injected and counted" `Quick
            test_faults_actually_injected_and_counted;
          Alcotest.test_case "retry attempts reseed" `Quick test_retry_attempts_differ;
          Alcotest.test_case "watchdog fires" `Quick test_watchdog_budget_fires;
        ] );
      ( "resilient campaign",
        [
          Alcotest.test_case "tvca under radiation" `Quick test_resilient_campaign_on_tvca;
          Alcotest.test_case "transcript = committed fixture" `Quick test_golden_fixture;
        ] );
    ]
