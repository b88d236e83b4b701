(* Tests for the deterministic domain-parallel execution layer: the static
   sharding invariants of [Repro_parallel.chunks], sequential equivalence
   of [Parallel.init] at every job count, deterministic exception
   propagation, and the campaign-level property the layer exists for —
   [jobs = 1] and [jobs = N] produce bit-identical samples, analyses and
   resilience reports, including under SEU fault injection. *)

module Prng = Repro_rng.Prng
module M = Repro_mbpta
module P = Repro_platform
module T = Repro_tvca
module R = M.Resilience

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Sharding invariants *)

let test_chunks_properties =
  qtest
    (QCheck.Test.make ~count:500 ~name:"chunks cover 0..n-1 contiguously"
       QCheck.(pair (int_range 1 32) (int_range 0 300))
       (fun (jobs, n) ->
         let cs = Repro_parallel.chunks ~jobs n in
         let lengths_ok =
           List.for_all (fun (_, len) -> len > 0) cs
           &&
           match List.map snd cs with
           | [] -> n = 0
           | lens ->
               let mn = List.fold_left min max_int lens in
               let mx = List.fold_left max 0 lens in
               mx - mn <= 1
         in
         (* contiguous ascending cover: each chunk starts where the
            previous ended, first at 0, last ends at n *)
         let rec cover expected = function
           | [] -> expected = n
           | (lo, len) :: rest -> lo = expected && cover (expected + len) rest
         in
         List.length cs <= jobs && lengths_ok && cover 0 cs))

let test_chunks_explicit () =
  checki "no chunks for n=0" 0 (List.length (Repro_parallel.chunks ~jobs:4 0));
  (match Repro_parallel.chunks ~jobs:1 10 with
  | [ (0, 10) ] -> ()
  | _ -> Alcotest.fail "jobs=1 must be one chunk");
  (* jobs > n clamps to n singleton chunks *)
  checki "jobs clamped to n" 3 (List.length (Repro_parallel.chunks ~jobs:8 3))

(* ------------------------------------------------------------------ *)
(* init: sequential equivalence and error propagation *)

let test_init_matches_sequential =
  qtest
    (QCheck.Test.make ~count:200 ~name:"init ~jobs:k = init ~jobs:1 for pure f"
       QCheck.(pair (int_range 1 16) (int_range 0 200))
       (fun (jobs, n) ->
         let f i = (i * 2654435761) land 0xFFFFFF in
         M.Parallel.init ~jobs n f = M.Parallel.init ~jobs:1 n f))

let test_init_sequential_is_ascending () =
  (* jobs=1 is the sequential reference: even a stateful f sees strictly
     ascending indices *)
  let seen = ref [] in
  let _ =
    M.Parallel.init ~jobs:1 50 (fun i ->
        seen := i :: !seen;
        i)
  in
  checkb "ascending order" true (List.rev !seen = List.init 50 Fun.id)

let test_init_edge_cases () =
  checki "n=0" 0 (Array.length (M.Parallel.init ~jobs:4 0 Fun.id));
  checki "n=1" 1 (Array.length (M.Parallel.init ~jobs:8 1 Fun.id));
  checkb "n<0 rejected" true
    (try
       ignore (M.Parallel.init ~jobs:2 (-1) Fun.id);
       false
     with Invalid_argument _ -> true);
  checkb "jobs<1 rejected" true
    (try
       ignore (M.Parallel.init ~jobs:0 10 Fun.id);
       false
     with Invalid_argument _ -> true)

let test_deterministic_exception () =
  (* f raises at indices 10 and 60; with 4 chunks of 25 both failures are
     in different chunks, and the lowest-indexed chunk's exception must win
     regardless of which domain finishes first *)
  let f i = if i = 10 || i = 60 then failwith (string_of_int i) else i in
  for _ = 1 to 10 do
    match M.Parallel.init ~jobs:4 100 f with
    | _ -> Alcotest.fail "must raise"
    | exception Failure msg -> checks "lowest failing chunk wins" "10" msg
  done

(* ------------------------------------------------------------------ *)
(* Campaign-level determinism: jobs=1 vs jobs=N bit-identical *)

let runs = 150
let frames = 4

let campaign_input () =
  let det = T.Experiment.create ~frames ~config:P.Config.deterministic ~base_seed:77L () in
  let rand =
    T.Experiment.create ~frames ~config:P.Config.mbpta_compliant ~base_seed:77L ()
  in
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

let campaign_exn ~jobs input =
  match M.Campaign.run ~jobs input with
  | Ok c -> c
  | Error f -> Alcotest.failf "campaign (jobs=%d) failed: %a" jobs M.Protocol.pp_failure f

let test_campaign_bit_identical () =
  let input = campaign_input () in
  let reference = campaign_exn ~jobs:1 input in
  List.iter
    (fun jobs ->
      let c = campaign_exn ~jobs input in
      checkb
        (Printf.sprintf "det_sample jobs=%d" jobs)
        true
        (c.M.Campaign.det_sample = reference.M.Campaign.det_sample);
      checkb
        (Printf.sprintf "rand_sample jobs=%d" jobs)
        true
        (c.M.Campaign.rand_sample = reference.M.Campaign.rand_sample);
      (* the whole rendered report — analysis verdicts, pWCET table,
         comparison — must be character-identical *)
      checks
        (Printf.sprintf "render jobs=%d" jobs)
        (M.Campaign.render reference) (M.Campaign.render c))
    [ 2; 4; 8 ]

let test_campaign_analysis_identical () =
  let input = campaign_input () in
  let a1 = campaign_exn ~jobs:1 input in
  let a4 = campaign_exn ~jobs:4 input in
  match (a1.M.Campaign.analysis, a4.M.Campaign.analysis) with
  | Ok r1, Ok r4 ->
      checkb "samples equal" true (r1.M.Protocol.sample = r4.M.Protocol.sample);
      List.iter2
        (fun (p1, v1) (p4, v4) ->
          checkb "cutoff equal" true (p1 = p4);
          checkb "pWCET estimate bit-identical" true (v1 = v4))
        (M.Protocol.pwcet_table r1) (M.Protocol.pwcet_table r4)
  | (Error f, _ | _, Error f) ->
      Alcotest.failf "analysis failed: %a" M.Protocol.pp_failure f

(* ------------------------------------------------------------------ *)
(* Resilient campaign under SEU injection: same property *)

let outcome_of = function
  | T.Experiment.Completed { metrics; _ } ->
      R.Completed (float_of_int (P.Metrics.cycles metrics))
  | T.Experiment.Watchdog _ -> R.Timeout { detail = "watchdog" }
  | T.Experiment.Runaway _ -> R.Timeout { detail = "runaway" }
  | T.Experiment.Crashed { detail; _ } -> R.Crashed { detail }
  | T.Experiment.Corrupted { worst_error; _ } ->
      R.Corrupted { detail = Printf.sprintf "error %g" worst_error }

let test_resilient_campaign_bit_identical () =
  let det = T.Experiment.create ~frames ~config:P.Config.deterministic ~base_seed:77L () in
  let rand =
    T.Experiment.create ~frames ~config:P.Config.mbpta_compliant ~base_seed:77L ()
  in
  let fault = T.Experiment.fault_config ~seu_rate:40. ~watchdog_budget:2_000_000 () in
  let measure exp ~run_index ~attempt =
    outcome_of (T.Experiment.run_faulty exp ~fault ~attempt ~run_index ())
  in
  let policy = { R.default_policy with R.max_retries = 3; R.min_survival = 0.5 } in
  let input =
    M.Campaign.resilient_input ~policy ~base:(campaign_input ())
      ~measure_det_outcome:(measure det) ~measure_rand_outcome:(measure rand) ()
  in
  let run ~jobs =
    match M.Campaign.run_resilient ~jobs input with
    | Ok c -> c
    | Error f ->
        Alcotest.failf "resilient campaign (jobs=%d) failed: %a" jobs
          M.Protocol.pp_failure f
  in
  let reference = run ~jobs:1 in
  let parallel = run ~jobs:4 in
  checkb "rand_sample identical under SEU" true
    (parallel.M.Campaign.rand_sample = reference.M.Campaign.rand_sample);
  checkb "det_sample identical under SEU" true
    (parallel.M.Campaign.det_sample = reference.M.Campaign.det_sample);
  (* resilience reports are plain data: full structural equality, covering
     survivors, retry counts and the per-run audit trail *)
  checkb "rand resilience report identical" true
    (parallel.M.Campaign.rand_resilience = reference.M.Campaign.rand_resilience);
  checkb "det resilience report identical" true
    (parallel.M.Campaign.det_resilience = reference.M.Campaign.det_resilience);
  checks "render identical" (M.Campaign.render reference) (M.Campaign.render parallel)

(* ------------------------------------------------------------------ *)
(* Supervisor determinism on a synthetic pure outcome function *)

(* Pure in (run_index, attempt) by construction — the contract the
   parallel supervisor requires. *)
let synthetic_outcome ~run_index ~attempt =
  let h = (run_index * 1103515245) + (attempt * 12345) in
  let h = h land 0xFF in
  if h < 24 && attempt = 0 then R.Timeout { detail = "transient" }
  else if h < 6 then R.Crashed { detail = "hard" }
  else R.Completed (float_of_int (1000 + h))

let test_supervise_identical_across_jobs () =
  let policy = { R.default_policy with R.max_retries = 2; R.min_survival = 0.5 } in
  let supervise jobs =
    match R.supervise ~jobs ~policy ~runs:200 ~measure:synthetic_outcome () with
    | Ok r -> r
    | Error e -> Alcotest.failf "supervise (jobs=%d) failed: %a" jobs R.pp_error e
  in
  let reference = supervise 1 in
  checkb "some runs retried (test is non-trivial)" true (reference.R.retried_runs > 0);
  List.iter
    (fun jobs ->
      let r = supervise jobs in
      checkb (Printf.sprintf "report identical jobs=%d" jobs) true (r = reference))
    [ 3; 8 ]

let test_budget_exhaustion_identical_across_jobs () =
  (* every attempt times out; the campaign-wide budget is replayed in run
     order, so the error fields must not depend on the job count *)
  let measure ~run_index:_ ~attempt:_ = R.Timeout { detail = "dead" } in
  let policy =
    { R.max_retries = 5; R.max_total_retries = Some 7; R.min_survival = 0.1 }
  in
  let supervise jobs = R.supervise ~jobs ~policy ~runs:10 ~measure () in
  match (supervise 1, supervise 5) with
  | ( Error
        (R.Retry_budget_exhausted
           { spent = s1; limit = l1; runs_completed = r1 }),
      Error
        (R.Retry_budget_exhausted
           { spent = s5; limit = l5; runs_completed = r5 }) ) ->
      checki "spent" s1 s5;
      checki "limit" l1 l5;
      checki "runs_completed" r1 r5
  | _ -> Alcotest.fail "both job counts must exhaust the budget identically"

(* ------------------------------------------------------------------ *)
(* Schedule-randomization and fixed-input campaigns: the [mbpta shuffle]
   and [mbpta leak] measurement kernels must also be bit-identical at any
   job count — their randomness comes only from per-run derived seeds. *)

let test_shuffle_campaign_bit_identical () =
  let e = T.Experiment.create ~frames:4 ~config:P.Config.mbpta_compliant ~base_seed:99L () in
  List.iter
    (fun policy ->
      let collect jobs =
        M.Parallel.init ~jobs 12 (fun i ->
            T.Experiment.run_schedule e ~policy ~period:60_000 ~max_jitter:2_000
              ~horizon:120_000 ~run_index:i ())
      in
      let reference = collect 1 in
      checkb (T.Rtos.policy_name policy ^ " jobs=4 = jobs=1") true (collect 4 = reference);
      (* pure in [(base_seed, run_index)]: a second pass reproduces it *)
      checkb (T.Rtos.policy_name policy ^ " repeatable") true (collect 1 = reference))
    T.Rtos.all_policies

let test_fixed_scenario_bit_identical () =
  let e = T.Experiment.create ~frames:4 ~config:P.Config.mbpta_compliant ~base_seed:99L () in
  let collect jobs =
    M.Parallel.init ~jobs 24 (fun i ->
        T.Experiment.measure_fixed_scenario e ~scenario_index:0 ~run_index:i)
  in
  let reference = collect 1 in
  checkb "fixed-input sample jobs=4 = jobs=1" true (collect 4 = reference);
  (* the input is pinned, but platform randomization still varies per run *)
  checkb "platform noise varies across runs" true
    (Array.exists (fun v -> v <> reference.(0)) reference)

let () =
  Alcotest.run "repro_parallel"
    [
      ( "sharding",
        [
          test_chunks_properties;
          Alcotest.test_case "explicit chunk shapes" `Quick test_chunks_explicit;
        ] );
      ( "init",
        [
          test_init_matches_sequential;
          Alcotest.test_case "jobs=1 is ascending" `Quick test_init_sequential_is_ascending;
          Alcotest.test_case "edge cases" `Quick test_init_edge_cases;
          Alcotest.test_case "deterministic exception" `Quick test_deterministic_exception;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "bit-identical at any job count" `Slow
            test_campaign_bit_identical;
          Alcotest.test_case "analysis identical jobs=1 vs 4" `Slow
            test_campaign_analysis_identical;
          Alcotest.test_case "resilient + SEU identical jobs=1 vs 4" `Slow
            test_resilient_campaign_bit_identical;
          Alcotest.test_case "shuffle campaign identical jobs=1 vs 4" `Slow
            test_shuffle_campaign_bit_identical;
          Alcotest.test_case "fixed-input sample identical jobs=1 vs 4" `Slow
            test_fixed_scenario_bit_identical;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "report identical across jobs" `Quick
            test_supervise_identical_across_jobs;
          Alcotest.test_case "budget exhaustion identical" `Quick
            test_budget_exhaustion_identical_across_jobs;
        ] );
    ]
