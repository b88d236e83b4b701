(* Fault-tolerant distributed campaigns: shard layout purity, supervision
   policy (retry/backoff/graceful degradation), and the end-to-end contract
   — a sharded campaign, under any injected failure pattern this suite can
   produce, yields reports bit-identical to a single-process run.

   Workers here run in-process (the supervision loop takes a [run_shard]
   callback), so crashes are injected deterministically with
   [Store.set_fail_after] instead of killing real processes; the CLI smoke
   tests in CI exercise the [run_worker] process path. *)

module M = Repro_mbpta
module Store = M.Store
module Coordinator = M.Coordinator

let temp_dir () =
  let f = Filename.temp_file "coord_test" "" in
  Sys.remove f;
  f

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dirs n f =
  let dirs = List.init n (fun _ -> temp_dir ()) in
  Fun.protect ~finally:(fun () -> List.iter rm_rf dirs) (fun () -> f dirs)

let check_bits name expected actual =
  let b a = Array.to_list (Array.map Int64.bits_of_float a) in
  Alcotest.(check (list int64)) name (b expected) (b actual)

(* ------------------------------------------------------------------ *)
(* shard layout *)

let test_shard_spans_properties () =
  List.iter
    (fun (shards, chunk_size, runs) ->
      let spans = Coordinator.shard_spans ~shards ~chunk_size ~runs in
      (* spans tile [0, runs) exactly once, in order *)
      let covered =
        List.fold_left
          (fun pos (lo, hi) ->
            Alcotest.(check int)
              (Printf.sprintf "contiguous at %d (s=%d c=%d r=%d)" pos shards chunk_size
                 runs)
              pos lo;
            Alcotest.(check bool) "nonempty span" true (hi > lo);
            (* every boundary except the last lands on a chunk multiple *)
            Alcotest.(check int) "chunk-aligned lo" 0 (lo mod chunk_size);
            if hi <> runs then Alcotest.(check int) "chunk-aligned hi" 0 (hi mod chunk_size);
            hi)
          0 spans
      in
      Alcotest.(check int) "spans cover all runs" runs covered;
      Alcotest.(check bool) "at most one span per shard" true
        (List.length spans <= shards))
    [
      (1, 8, 30);
      (3, 8, 30);
      (4, 8, 32);
      (7, 8, 30) (* more shards than chunks: empty shards dropped *);
      (3, 256, 600);
      (16, 256, 3000);
      (2, 1, 1);
    ];
  Alcotest.(check (list (pair int int)))
    "3 shards over 4 chunks of 8" [ (0, 16); (16, 24); (24, 30) ]
    (Coordinator.shard_spans ~shards:3 ~chunk_size:8 ~runs:30);
  Alcotest.(check (list (pair int int)))
    "zero runs, zero spans" []
    (Coordinator.shard_spans ~shards:3 ~chunk_size:8 ~runs:0);
  match Coordinator.shard_spans ~shards:0 ~chunk_size:8 ~runs:10 with
  | _ -> Alcotest.fail "shards=0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_backoff_deterministic () =
  let policy = { (Coordinator.default_policy ~shards:2) with Coordinator.backoff = 0.5 } in
  List.iter
    (fun (attempt, expected) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "attempt %d" attempt)
        expected
        (Coordinator.backoff_delay ~policy ~attempt))
    [ (0, 0.5); (1, 1.0); (2, 2.0); (4, 8.0); (5, 8.0) (* capped *); (10, 8.0) ]

(* ------------------------------------------------------------------ *)
(* supervision *)

let no_wait policy = { policy with Coordinator.backoff = 0.0 }

let test_supervise_retries_and_degrades () =
  (* shard 1 completes first try; shard 2 needs two retries; shard 3 never
     completes — reported unrecoverable, not raised *)
  let policy = no_wait (Coordinator.default_policy ~shards:3) in
  let run_shard ~shard ~span:_ ~attempt =
    match shard with
    | 1 -> Ok ()
    | 2 -> if attempt >= 2 then Ok () else Error (Coordinator.Crashed "flaky")
    | _ -> Error (Coordinator.Crashed "dead on arrival")
  in
  let report = Coordinator.supervise ~policy ~chunk_size:8 ~runs:30 ~run_shard () in
  Alcotest.(check int) "total runs" 30 report.Coordinator.total_runs;
  Alcotest.(check int) "retries counted" 4 report.Coordinator.retries;
  Alcotest.(check int) "one unrecoverable shard" 1 report.Coordinator.unrecoverable;
  let r = report.Coordinator.shard_reports in
  Alcotest.(check (list int)) "reports in shard order" [ 1; 2; 3 ]
    (List.map (fun s -> s.Coordinator.shard) r);
  Alcotest.(check (list bool)) "completion per shard" [ true; true; false ]
    (List.map (fun s -> s.Coordinator.completed) r);
  Alcotest.(check (list int)) "attempts per shard" [ 1; 3; 3 ]
    (List.map (fun s -> s.Coordinator.attempts) r);
  (* the failure transcript is deterministic: counter-based, in order *)
  let failed = List.nth r 2 in
  Alcotest.(check (list int)) "failed attempts recorded" [ 0; 1; 2 ]
    (List.map (fun f -> f.Coordinator.attempt) failed.Coordinator.failures)

(* ------------------------------------------------------------------ *)
(* end-to-end: sharded collection + merge = single-process campaign *)

let runs = 30
let chunk_size = 8
let config = [ ("scenario", "coordinator-test"); ("seed", "9") ]
let key = Store.key ~chunk_size config

let measure_det i = (float_of_int i *. 19.5) +. sin (float_of_int i) +. 1400.
let measure_rand i = (float_of_int i *. 12.75) +. cos (float_of_int (i * 5)) +. 1400.

let campaign_input =
  { (M.Campaign.default_input ~measure_det ~measure_rand) with M.Campaign.runs }

let campaign_samples = function
  | Ok (c : M.Campaign.t) -> (c.det_sample, c.rand_sample)
  | Error f -> Alcotest.failf "campaign failed: %a" M.Protocol.pp_failure f

(* One in-process worker attempt over its shard store; [fail_after] injects
   a mid-shard crash on selected (shard, attempt) pairs. *)
let worker_attempt ?fail_after dir ~shard ~span ~attempt =
  let root = Store.open_root ~dir in
  match
    Store.open_session ~chunk_size ~resume:true ~shard:span root ~key ~config ~runs
      ~resilient:false
  with
  | Error e -> Error (Coordinator.Crashed e)
  | Ok s -> (
      (match Option.bind fail_after (fun f -> f ~shard ~attempt) with
      | Some budget -> Store.set_fail_after s budget
      | None -> ());
      match
        List.iter
          (fun input_phase ->
            let measure = if input_phase = "collect_det" then measure_det else measure_rand in
            ignore (Store.collect s ~jobs:1 ~phase:input_phase runs measure))
          [ "collect_det"; "collect_rand" ]
      with
      | () ->
          Store.close s;
          Ok ()
      | exception Store.Injected_crash _ ->
          Store.close s;
          Error (Coordinator.Crashed "injected crash"))

let run_distributed ?fail_after ?(worker_retries = 2) ~shards ~jobs dst_dir shard_dirs =
  let policy =
    no_wait
      { (Coordinator.default_policy ~shards) with Coordinator.max_retries = worker_retries }
  in
  let dir_of shard = List.nth shard_dirs (shard - 1) in
  let run_shard ~shard ~span ~attempt =
    worker_attempt ?fail_after (dir_of shard) ~shard ~span ~attempt
  in
  let report = Coordinator.supervise ~policy ~chunk_size ~runs ~run_shard () in
  let src = List.map (fun dir -> Store.open_root ~dir) shard_dirs in
  let dst = Store.open_root ~dir:dst_dir in
  (match Store.merge ~src dst with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "merge: %s" e);
  (* final campaign over the merged record, resuming any coverage gap *)
  let session =
    match
      Store.open_session ~chunk_size ~resume:true dst ~key ~config ~runs
        ~resilient:false
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "resume over merged record: %s" e
  in
  let result = M.Campaign.run ~jobs ~store:session campaign_input in
  Store.close session;
  (report, campaign_samples result)

let test_distributed_equals_single_process () =
  let det_cold, rand_cold = campaign_samples (M.Campaign.run ~jobs:1 campaign_input) in
  List.iter
    (fun (shards, jobs) ->
      with_dirs (shards + 1) @@ fun dirs ->
      let dst_dir, shard_dirs = (List.hd dirs, List.tl dirs) in
      let report, (det, rand) = run_distributed ~shards ~jobs dst_dir shard_dirs in
      Alcotest.(check int)
        (Printf.sprintf "no failures (shards=%d jobs=%d)" shards jobs)
        0 report.Coordinator.unrecoverable;
      check_bits (Printf.sprintf "det: shards=%d jobs=%d = cold" shards jobs) det_cold det;
      check_bits (Printf.sprintf "rand: shards=%d jobs=%d = cold" shards jobs) rand_cold
        rand)
    [ (1, 1); (2, 4); (4, 1); (4, 4) ]

let test_distributed_with_worker_crashes () =
  let det_cold, rand_cold = campaign_samples (M.Campaign.run ~jobs:1 campaign_input) in
  (* every shard's first attempt dies after one checkpoint chunk; shard 2's
     second attempt dies too — retries resume from the shard record *)
  let fail_after ~shard ~attempt =
    if attempt = 0 || (shard = 2 && attempt = 1) then Some 1 else None
  in
  with_dirs 4 @@ fun dirs ->
  let dst_dir, shard_dirs = (List.hd dirs, List.tl dirs) in
  let report, (det, rand) =
    run_distributed ~fail_after ~shards:3 ~jobs:4 dst_dir shard_dirs
  in
  Alcotest.(check int) "all shards recovered" 0 report.Coordinator.unrecoverable;
  Alcotest.(check bool) "retries were spent" true (report.Coordinator.retries >= 3);
  check_bits "det sample bit-identical despite crashes" det_cold det;
  check_bits "rand sample bit-identical despite crashes" rand_cold rand

let test_unrecoverable_shard_degrades () =
  let det_cold, rand_cold = campaign_samples (M.Campaign.run ~jobs:1 campaign_input) in
  (* shard 2 dies before persisting anything, on every attempt: its span is a
     coverage gap the final campaign recomputes in-process — slower, never
     wrong *)
  let fail_after ~shard ~attempt:_ = if shard = 2 then Some 0 else None in
  with_dirs 4 @@ fun dirs ->
  let dst_dir, shard_dirs = (List.hd dirs, List.tl dirs) in
  let report, (det, rand) =
    run_distributed ~fail_after ~worker_retries:1 ~shards:3 ~jobs:1 dst_dir shard_dirs
  in
  Alcotest.(check int) "shard 2 reported unrecoverable" 1
    report.Coordinator.unrecoverable;
  Alcotest.(check bool) "shard 2 is the failed one" true
    (List.exists
       (fun s -> s.Coordinator.shard = 2 && not s.Coordinator.completed)
       report.Coordinator.shard_reports);
  check_bits "det sample survives the dead shard" det_cold det;
  check_bits "rand sample survives the dead shard" rand_cold rand

(* ------------------------------------------------------------------ *)
(* resilient sharded campaigns: trails collected by shard workers replay
   through the coordinator's final accounting bit-identically *)

let outcome_of ~base ~run_index ~attempt : M.Resilience.outcome =
  match ((run_index * 7) + attempt) mod 11 with
  | 0 when attempt < 2 -> Timeout (Printf.sprintf "wd %d/%d" run_index attempt)
  | 5 when attempt < 1 -> Crashed (Printf.sprintf "trap %d" run_index)
  | _ -> Completed (base +. (float_of_int run_index *. 9.5) +. (float_of_int attempt *. 0.25))

let resilient_input =
  M.Campaign.resilient_input ~base:campaign_input
    ~measure_det_outcome:(outcome_of ~base:1600.)
    ~measure_rand_outcome:(outcome_of ~base:1900.) ()

let test_resilient_distributed_equals_single_process () =
  let cold = M.Campaign.run_resilient ~jobs:1 resilient_input in
  let det_cold, rand_cold = campaign_samples cold in
  with_dirs 4 @@ fun dirs ->
  let dst_dir, shard_dirs = (List.hd dirs, List.tl dirs) in
  let policy = no_wait (Coordinator.default_policy ~shards:3) in
  let run_shard ~shard ~span ~attempt:_ =
    let root = Store.open_root ~dir:(List.nth shard_dirs (shard - 1)) in
    match
      Store.open_session ~chunk_size ~resume:true ~shard:span root ~key ~config ~runs
        ~resilient:true
    with
    | Error e -> Error (Coordinator.Crashed e)
    | Ok s -> (
        match M.Campaign.collect_shard_resilient ~jobs:1 ~store:s resilient_input with
        | Ok () ->
            Store.close s;
            Ok ()
        | Error f ->
            Store.close s;
            Error (Coordinator.Crashed (Format.asprintf "%a" M.Protocol.pp_failure f)))
  in
  let report = Coordinator.supervise ~policy ~chunk_size ~runs ~run_shard () in
  Alcotest.(check int) "all shards completed" 0 report.Coordinator.unrecoverable;
  let src = List.map (fun dir -> Store.open_root ~dir) shard_dirs in
  let dst = Store.open_root ~dir:dst_dir in
  (match Store.merge ~src dst with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "merge: %s" e);
  let session =
    match
      Store.open_session ~chunk_size ~resume:true dst ~key ~config ~runs ~resilient:true
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "resume: %s" e
  in
  let resumed = M.Campaign.run_resilient ~jobs:4 ~store:session resilient_input in
  Store.close session;
  let det, rand = campaign_samples resumed in
  check_bits "resilient det: sharded = single-process" det_cold det;
  check_bits "resilient rand: sharded = single-process" rand_cold rand;
  (* retry accounting replays from the merged trails identically too *)
  match (cold, resumed) with
  | Ok c, Ok r ->
      Alcotest.(check bool) "det resilience report identical" true
        (c.det_resilience = r.det_resilience);
      Alcotest.(check bool) "rand resilience report identical" true
        (c.rand_resilience = r.rand_resilience)
  | _ -> Alcotest.fail "campaigns must succeed"

(* ------------------------------------------------------------------ *)
(* coordinator crash mid-merge *)

let test_coordinator_dies_mid_merge () =
  let det_cold, rand_cold = campaign_samples (M.Campaign.run ~jobs:1 campaign_input) in
  with_dirs 4 @@ fun dirs ->
  let dst_dir, shard_dirs = (List.hd dirs, List.tl dirs) in
  let policy = no_wait (Coordinator.default_policy ~shards:3) in
  let run_shard ~shard ~span ~attempt =
    worker_attempt (List.nth shard_dirs (shard - 1)) ~shard ~span ~attempt
  in
  ignore (Coordinator.supervise ~policy ~chunk_size ~runs ~run_shard ());
  let src = List.map (fun dir -> Store.open_root ~dir) shard_dirs in
  let dst = Store.open_root ~dir:dst_dir in
  (* the coordinator is killed while writing the merged record *)
  (match Store.merge ~fail_after:3 ~src dst with
  | _ -> Alcotest.fail "expected Injected_crash"
  | exception Store.Injected_crash _ -> ());
  Alcotest.(check bool) "tmp+rename left no torn destination" false
    (Sys.file_exists (Filename.concat dst_dir (key ^ ".jsonl")));
  (* a restarted coordinator re-merges and completes the campaign *)
  (match Store.merge ~src dst with
  | Ok m -> Alcotest.(check int) "re-merge lands the record" 1 m.Store.records_merged
  | Error e -> Alcotest.failf "re-merge: %s" e);
  let session =
    match
      Store.open_session ~chunk_size ~resume:true dst ~key ~config ~runs
        ~resilient:false
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "resume: %s" e
  in
  let det, rand = campaign_samples (M.Campaign.run ~jobs:1 ~store:session campaign_input) in
  Store.close session;
  check_bits "det sample after coordinator restart" det_cold det;
  check_bits "rand sample after coordinator restart" rand_cold rand

(* ------------------------------------------------------------------ *)
(* Worker deadlines on an injectable clock.  Deadlines used to be measured
   on [Unix.gettimeofday]: an NTP step forward could kill a healthy worker
   and a step backward could spare a stalled one forever.  [run_worker]'s
   [?now] hook simulates exactly those clock behaviors. *)

let stepping_clock step =
  let t = ref 0. in
  fun () ->
    let v = !t in
    t := v +. step;
    v

let test_worker_deadline_on_stepped_clock () =
  (* A worker that would sleep 30 s: with the mocked clock advancing 6 s
     per reading, the 10 s deadline trips after two polls — the test
     itself finishes in milliseconds of real time. *)
  match
    Coordinator.run_worker ~now:(stepping_clock 6.) ~deadline:(Some 10.)
      ~poll_interval:0.01
      ~argv:[| "/bin/sh"; "-c"; "sleep 30" |]
      ()
  with
  | Error (Coordinator.Stalled d) ->
      Alcotest.(check bool) "reports the configured deadline" true (d = 10.)
  | Error (Coordinator.Crashed e) -> Alcotest.failf "expected Stalled, got Crashed %s" e
  | Ok () -> Alcotest.fail "expected the stalled worker to be killed"

let test_worker_survives_frozen_clock () =
  (* A healthy worker under a clock that never advances (the monotonic
     equivalent of a backwards NTP step): elapsed time stays 0, so even a
     tight deadline cannot kill it and it completes normally. *)
  match
    Coordinator.run_worker ~now:(stepping_clock 0.) ~deadline:(Some 0.05)
      ~poll_interval:0.005
      ~argv:[| "/bin/sh"; "-c"; "true" |]
      ()
  with
  | Ok () -> ()
  | Error f -> Alcotest.failf "healthy worker killed: %a" Coordinator.pp_failure f

let () =
  Alcotest.run "coordinator"
    [
      ( "layout",
        [
          Alcotest.test_case "shard_spans properties" `Quick test_shard_spans_properties;
          Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "retries and graceful degradation" `Quick
            test_supervise_retries_and_degrades;
          Alcotest.test_case "deadline on stepped clock" `Quick
            test_worker_deadline_on_stepped_clock;
          Alcotest.test_case "frozen clock spares healthy worker" `Quick
            test_worker_survives_frozen_clock;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "sharded = single-process" `Quick
            test_distributed_equals_single_process;
          Alcotest.test_case "worker crashes mid-shard" `Quick
            test_distributed_with_worker_crashes;
          Alcotest.test_case "unrecoverable shard degrades" `Quick
            test_unrecoverable_shard_degrades;
          Alcotest.test_case "resilient sharded campaign" `Quick
            test_resilient_distributed_equals_single_process;
          Alcotest.test_case "coordinator dies mid-merge" `Quick
            test_coordinator_dies_mid_merge;
        ] );
    ]
