(* Tests for the observability layer (Trace): JSONL schema round-trips,
   counter registry semantics, and the determinism contract — a traced
   campaign produces bit-identical results to an untraced one, and the
   default-level trace file itself is byte-identical at every job count. *)

module M = Repro_mbpta
module Trace = M.Trace

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int

let temp_path () =
  let path = Filename.temp_file "test_trace" ".jsonl" in
  Sys.remove path;
  path

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Event serialization *)

let all_events =
  [
    Trace.Meta { schema = "trace/v1"; level = "runs" };
    Trace.Config [ ("seed", "2017"); ("tail", "gumbel") ];
    Trace.Config [];
    Trace.Campaign_start { runs = 3000; resilient = false };
    Trace.Campaign_end { ok = true; failure = None };
    Trace.Campaign_end { ok = false; failure = Some "i.i.d. rejected" };
    Trace.Phase_start { phase = "collect_rand" };
    Trace.Phase_end { phase = "collect_rand"; wall_ns = None };
    Trace.Phase_end { phase = "collect_rand"; wall_ns = Some 123_456_789 };
    Trace.Run
      { phase = "collect_det"; run_index = 0; attempts = 1; outcome = "completed";
        latency = Some 220150.;
      };
    Trace.Run
      { phase = "collect_det"; run_index = 7; attempts = 3; outcome = "crashed";
        latency = None;
      };
    Trace.Fault
      { phase = "collect_rand"; run_index = 5; attempt = 1; kind = "timeout";
        detail = "watchdog fired at 400000 cycles (budget 300000)";
      };
    Trace.Chunk { phase = "collect_det"; chunk_index = 2; lo = 1500; len = 750 };
    Trace.Iid_result
      { lb_stat = 25.386; lb_p = 0.1871; ks_stat = 0.14; ks_p = 0.6779; accepted = true };
    Trace.Convergence { converged = true; runs_used = 2400 };
    Trace.Evt_fit
      {
        tail = "gumbel";
        block_size = 32;
        params = [ ("mu", 222600.25); ("beta", 2214.0) ];
        gof_ks_p = 0.6811;
        gof_ad_stat = 0.793;
      };
    Trace.Counter { name = "rand.cycles"; value = 22218998 };
    Trace.Note "hello \"quoted\" \\ backslash\nnewline\ttab";
  ]

let test_round_trip () =
  List.iter
    (fun e ->
      let line = Trace.to_line e in
      match Trace.of_line line with
      | Error msg -> Alcotest.failf "of_line failed on %s: %s" line msg
      | Ok e' ->
          if e <> e' then Alcotest.failf "round-trip changed event: %s" line)
    all_events

let test_round_trip_special_floats () =
  (* Non-finite latencies serialize to null and come back as None. *)
  let e =
    Trace.Run
      { phase = "p"; run_index = 0; attempts = 1; outcome = "completed";
        latency = Some Float.nan;
      }
  in
  (match Trace.of_line (Trace.to_line e) with
  | Ok (Trace.Run { latency = None; _ }) -> ()
  | Ok _ -> Alcotest.fail "NaN latency should parse back as None"
  | Error msg -> Alcotest.fail msg);
  (* Exact float round-trip, including awkward values. *)
  List.iter
    (fun x ->
      let e =
        Trace.Run
          { phase = "p"; run_index = 0; attempts = 1; outcome = "ok"; latency = Some x }
      in
      match Trace.of_line (Trace.to_line e) with
      | Ok (Trace.Run { latency = Some y; _ }) ->
          if Int64.bits_of_float x <> Int64.bits_of_float y then
            Alcotest.failf "float %h did not round-trip (got %h)" x y
      | Ok _ -> Alcotest.fail "wrong event shape"
      | Error msg -> Alcotest.fail msg)
    [ 0.; -0.; 1.5; 0.1; 1e-300; 1.7976931348623157e308; 220150.; 3.7798198192164671e-09 ]

let test_of_line_rejects_garbage () =
  List.iter
    (fun s ->
      match Trace.of_line s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "of_line accepted %S" s)
    [ ""; "not json"; "{}"; "{\"kind\":\"nope\"}"; "[1,2,3]"; "{\"kind\":\"run\"}" ]

(* The meta line names the trace level with the words the CLI's
   [--trace-level] accepts, one per level, and reads back unchanged. *)
let test_meta_level_names () =
  List.iter
    (fun (level, name) ->
      match Trace.drain (Trace.create_mem ~level ()) with
      | (Trace.Meta { level = written; _ } as meta) :: _ -> (
          checks "meta level name" name written;
          match Trace.of_line (Trace.to_line meta) with
          | Ok e -> checkb "meta line round-trip" true (e = meta)
          | Error msg -> Alcotest.fail msg)
      | _ -> Alcotest.fail "first event must be Meta")
    [ (Trace.Summary, "summary"); (Trace.Runs, "runs"); (Trace.Debug, "debug") ]

(* Nesting depth: [Json.of_string] accepts [Json.max_depth] levels and
   rejects the next one with a typed error, at once and with little
   allocation.  The hostile case is the longest line the daemon reads,
   4 MiB of '[': unbounded, the parser would recurse once per byte. *)

(* [depth] containers, alternating arrays and objects when [mixed]. *)
let nested ?(mixed = false) depth =
  let rec go d =
    if d = 0 then "1"
    else if mixed && d mod 2 = 0 then "{\"k\":" ^ go (d - 1) ^ "}"
    else "[" ^ go (d - 1) ^ "]"
  in
  go depth

let too_deep = Printf.sprintf "nesting deeper than %d at offset %d" Trace.Json.max_depth

let test_json_depth_bound () =
  let n = Trace.Json.max_depth in
  checki "the bound" 64 n;
  List.iter
    (fun mixed ->
      (match Trace.Json.of_string (nested ~mixed n) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%d levels (mixed=%b) should parse: %s" n mixed e);
      match Trace.Json.of_string (nested ~mixed (n + 1)) with
      | Ok _ -> Alcotest.failf "%d levels (mixed=%b) should be rejected" (n + 1) mixed
      | Error e ->
          (* The 64 outer levels take one byte each as '[' and five as
             {"k": when the levels alternate. *)
          checks "one level too deep" (too_deep (if mixed then 3 * n else n)) e)
    [ false; true ]

let test_json_hostile_line_fast () =
  let line = String.make ((4 * 1024 * 1024) - 1) '[' in
  let t0 = Unix.gettimeofday () and b0 = Gc.allocated_bytes () in
  let result = Trace.Json.of_string line in
  let elapsed = Unix.gettimeofday () -. t0 and bytes = Gc.allocated_bytes () -. b0 in
  (match result with
  | Ok _ -> Alcotest.fail "4 MiB of '[' parsed"
  | Error e -> checks "typed error" (too_deep Trace.Json.max_depth) e);
  if elapsed >= 1. then Alcotest.failf "rejecting 4 MiB of '[' took %.2f s, want < 1 s" elapsed;
  if bytes >= 65_536. then
    Alcotest.failf "rejecting 4 MiB of '[' allocated %.0f bytes, want < 64 KiB" bytes

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counters () =
  let c = Trace.Counters.create () in
  Trace.Counters.add c "b.cycles" 10;
  Trace.Counters.incr c "a.runs";
  Trace.Counters.add c "b.cycles" 32;
  Trace.Counters.incr c "a.runs";
  Alcotest.(check (list (pair string int)))
    "snapshot sorted by name"
    [ ("a.runs", 2); ("b.cycles", 42) ]
    (Trace.Counters.snapshot c)

let test_counters_cross_domain () =
  let c = Trace.Counters.create () in
  let worker lo =
    Domain.spawn (fun () ->
        for i = lo to lo + 999 do
          Trace.Counters.add c "sum" i
        done)
  in
  let d1 = worker 0 and d2 = worker 1000 in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check (list (pair string int)))
    "commutative total" [ ("sum", 1999000) ] (Trace.Counters.snapshot c)

(* Per-request scoping: the daemon hands every request its own registry,
   parented on the process total.  Additions must stay isolated between
   siblings while rolling up into the parent — and a parentless registry
   (the back-compat process-total view) must behave exactly as before. *)
let test_counters_scoped () =
  let total = Trace.Counters.create () in
  let req_a = Trace.Counters.create ~parent:total () in
  let req_b = Trace.Counters.create ~parent:total () in
  Trace.Counters.add req_a "rand.cycles" 100;
  Trace.Counters.incr req_a "cache.runs_simulated";
  Trace.Counters.add req_b "rand.cycles" 7;
  Alcotest.(check (list (pair string int)))
    "request A sees only its own additions"
    [ ("cache.runs_simulated", 1); ("rand.cycles", 100) ]
    (Trace.Counters.snapshot req_a);
  Alcotest.(check (list (pair string int)))
    "request B isolated from A"
    [ ("rand.cycles", 7) ]
    (Trace.Counters.snapshot req_b);
  Alcotest.(check (list (pair string int)))
    "process total rolls both up"
    [ ("cache.runs_simulated", 1); ("rand.cycles", 107) ]
    (Trace.Counters.snapshot total);
  (* totals may also be written directly (daemon-level serve.* counters)
     without touching any request's view *)
  Trace.Counters.incr total "serve.requests";
  Alcotest.(check (option int))
    "parent-only counter invisible to children" None
    (List.assoc_opt "serve.requests" (Trace.Counters.snapshot req_a))

(* In-memory traces (the daemon's per-request kind): events stream to the
   [on_event] hook as they are emitted, [drain] returns them in order,
   and nothing touches the filesystem. *)
let test_mem_trace_stream_and_drain () =
  let streamed = ref [] in
  let t =
    Trace.create_mem ~level:Trace.Runs ~on_event:(fun e -> streamed := e :: !streamed) ()
  in
  Trace.phase_start t "collect_rand";
  Trace.emit_sample t ~phase:"collect_rand" [| 1.5; 2.5 |];
  Trace.phase_end t "collect_rand";
  Trace.flush t;
  let drained = Trace.drain t in
  Alcotest.(check bool) "drain keeps the meta header" true
    (match drained with Trace.Meta _ :: _ -> true | _ -> false);
  Alcotest.(check int) "all events drained (meta + 4)" 5 (List.length drained);
  Alcotest.(check int) "hook saw every emitted event" 4 (List.length !streamed);
  Alcotest.(check bool) "hook preserves emission order" true
    (match List.rev !streamed with
    | Trace.Phase_start _ :: _ -> true
    | _ -> false)

(* The stage profiler counts the minor-heap words a stage allocates, folds
   them into the trace as profile.<stage>_minor_words, and the summary
   prints them per call beside the time. *)
let test_profile_minor_words () =
  let module P = M.Profile in
  let was_enabled = P.enabled () in
  P.reset ();
  P.set_enabled true;
  Fun.protect ~finally:(fun () ->
      P.set_enabled was_enabled;
      P.reset ())
  @@ fun () ->
  for _ = 1 to 4 do
    (* 101 words: a header and 100 fields *)
    P.time P.Scenario (fun () -> ignore (Sys.opaque_identity (Array.make 100 0)))
  done;
  let e = List.find (fun (e : P.entry) -> e.P.stage = P.Scenario) (P.snapshot ()) in
  checki "calls" 4 e.P.calls;
  checkb
    (Printf.sprintf "4 x 101 words, little else (got %d)" e.P.minor_words)
    true
    (e.P.minor_words >= 404 && e.P.minor_words < 450);
  let path = temp_path () in
  let t = Trace.create ~path () in
  P.record_counters (Trace.counters t);
  Trace.close t;
  let events =
    match Trace.read_file path with
    | Ok events -> events
    | Error e -> Alcotest.failf "read_file: %s" e
  in
  Sys.remove path;
  checkb "counter in the trace" true
    (List.exists
       (function
         | Trace.Counter { name = "profile.scenario_minor_words"; value } ->
             value = e.P.minor_words
         | _ -> false)
       events);
  let row =
    List.find_opt
      (fun l -> String.length l > 10 && String.sub l 0 10 = "  scenario")
      (String.split_on_char '\n' (Trace.summarize events))
  in
  match row with
  | Some l ->
      let per_call = Printf.sprintf "%.1f words/call" (float_of_int e.P.minor_words /. 4.) in
      checkb (Printf.sprintf "%S ends with %S" l per_call) true
        (String.ends_with ~suffix:per_call l)
  | None -> Alcotest.fail "no scenario row in the summary's stage profile"

(* ------------------------------------------------------------------ *)
(* File round-trip *)

let test_file_round_trip () =
  let path = temp_path () in
  let t = Trace.create ~path () in
  Trace.emit t (Trace.Config [ ("seed", "7") ]);
  Trace.phase_start t "collect_det";
  Trace.emit_sample t ~phase:"collect_det" [| 100.; 200.; 300. |];
  Trace.phase_end t "collect_det";
  Trace.Counters.add (Trace.counters t) "det.cycles" 600;
  Trace.close t;
  (match Trace.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok events ->
      (match events with
      | Trace.Meta { schema; _ } :: _ -> checks "schema" "trace/v1" schema
      | _ -> Alcotest.fail "first event must be Meta");
      checki "run events" 3
        (List.length
           (List.filter (function Trace.Run _ -> true | _ -> false) events));
      checkb "counter flushed" true
        (List.exists
           (function
             | Trace.Counter { name = "det.cycles"; value = 600 } -> true
             | _ -> false)
           events));
  Sys.remove path

let test_level_filtering () =
  (* Summary level drops Run events; Chunk events only appear at Debug. *)
  let at level =
    let path = temp_path () in
    let t = Trace.create ~level ~path () in
    Trace.emit_sample t ~phase:"p" [| 1.; 2. |];
    Trace.emit t (Trace.Chunk { phase = "p"; chunk_index = 0; lo = 0; len = 2 });
    Trace.close t;
    let events = match Trace.read_file path with Ok es -> es | Error m -> failwith m in
    Sys.remove path;
    let count p = List.length (List.filter p events) in
    ( count (function Trace.Run _ -> true | _ -> false),
      count (function Trace.Chunk _ -> true | _ -> false) )
  in
  Alcotest.(check (pair int int)) "summary" (0, 0) (at Trace.Summary);
  Alcotest.(check (pair int int)) "runs" (2, 0) (at Trace.Runs);
  Alcotest.(check (pair int int)) "debug" (2, 1) (at Trace.Debug)

(* ------------------------------------------------------------------ *)
(* Determinism contract on a synthetic campaign.  The measure functions
   are pure in the run index (the same contract the real experiment
   provides), so the campaign is deterministic by construction; these
   tests check that attaching a trace observes without perturbing, and
   that the default-level trace is byte-identical across job counts. *)

let synth_measure salt i =
  (* Spread deterministically; strictly positive so validation passes. *)
  let h = Hashtbl.hash (salt, i) in
  1000. +. float_of_int (h land 0xFFF)

let synth_input ~runs =
  {
    (M.Campaign.default_input ~measure_det:(synth_measure 1) ~measure_rand:(synth_measure 2))
    with
    M.Campaign.runs;
    M.Campaign.options =
      {
        M.Protocol.default_options with
        M.Protocol.gate_on_iid = false;
        M.Protocol.check_convergence = false;
      };
  }

let samples_of = function
  | Ok c -> (c.M.Campaign.det_sample, c.M.Campaign.rand_sample)
  | Error f -> Format.kasprintf failwith "campaign failed: %a" M.Protocol.pp_failure f

let test_traced_equals_untraced () =
  let input = synth_input ~runs:128 in
  let plain = samples_of (M.Campaign.run ~jobs:2 input) in
  let path = temp_path () in
  let t = Trace.create ~path () in
  let traced = samples_of (M.Campaign.run ~jobs:2 ~trace:t input) in
  Trace.close t;
  Sys.remove path;
  checkb "samples bit-identical with tracing on" true (plain = traced)

let test_trace_identical_across_jobs () =
  let input = synth_input ~runs:128 in
  let trace_with jobs =
    let path = temp_path () in
    let t = Trace.create ~path () in
    let samples = samples_of (M.Campaign.run ~jobs ~trace:t input) in
    Trace.close t;
    let contents = read_all path in
    Sys.remove path;
    (samples, contents)
  in
  let s1, c1 = trace_with 1 in
  let s4, c4 = trace_with 4 in
  checkb "samples identical" true (s1 = s4);
  checks "trace files byte-identical at jobs 1 vs 4" c1 c4

let test_trace_records_campaign () =
  let input = synth_input ~runs:128 in
  let path = temp_path () in
  let t = Trace.create ~path () in
  ignore (samples_of (M.Campaign.run ~jobs:2 ~trace:t input));
  Trace.close t;
  let events = match Trace.read_file path with Ok es -> es | Error m -> failwith m in
  Sys.remove path;
  let runs =
    List.filter (function Trace.Run { phase = "collect_det"; _ } -> true | _ -> false) events
  in
  checki "one Run event per det run" 128 (List.length runs);
  (* Canonical order: run_index strictly increasing within the phase. *)
  let indices =
    List.filter_map
      (function Trace.Run { phase = "collect_det"; run_index; _ } -> Some run_index | _ -> None)
      events
  in
  checkb "canonically ordered" true (indices = List.init 128 Fun.id);
  checkb "campaign end ok" true
    (List.exists (function Trace.Campaign_end { ok = true; _ } -> true | _ -> false) events);
  checkb "evt fit recorded" true
    (List.exists (function Trace.Evt_fit _ -> true | _ -> false) events)

(* ------------------------------------------------------------------ *)
(* Monotonic phase timing: the phase clock is injectable; durations are
   exact deltas of it, and clamped at zero if the clock ever steps
   backwards (the wall-clock regression this replaced — an NTP step could
   produce negative phase durations in the trace). *)

let mock_clock values =
  let remaining = ref values in
  fun () ->
    match !remaining with
    | [] -> Alcotest.fail "mock clock exhausted"
    | v :: rest ->
        remaining := rest;
        v

let phase_end_durations events =
  List.filter_map
    (function Trace.Phase_end { wall_ns; _ } -> Some wall_ns | _ -> None)
    events

let test_phase_duration_from_injected_clock () =
  let t = Trace.create_mem ~level:Trace.Debug ~clock:(mock_clock [ 1_000L; 3_500L ]) () in
  Trace.phase_start t "analysis";
  Trace.phase_end t "analysis";
  match phase_end_durations (Trace.drain t) with
  | [ Some d ] -> checki "wall_ns = clock delta" 2_500 d
  | _ -> Alcotest.fail "expected exactly one timed phase_end"

let test_phase_duration_clamped_on_backwards_step () =
  let t = Trace.create_mem ~level:Trace.Debug ~clock:(mock_clock [ 5_000L; 1_000L ]) () in
  Trace.phase_start t "analysis";
  Trace.phase_end t "analysis";
  match phase_end_durations (Trace.drain t) with
  | [ Some d ] -> checki "duration clamped, never negative" 0 d
  | _ -> Alcotest.fail "expected exactly one timed phase_end"

let test_phase_duration_only_at_debug () =
  (* Below Debug only the start timestamp is read; no duration is emitted. *)
  let t = Trace.create_mem ~level:Trace.Runs ~clock:(mock_clock [ 1_000L ]) () in
  Trace.phase_start t "analysis";
  Trace.phase_end t "analysis";
  match phase_end_durations (Trace.drain t) with
  | [ None ] -> ()
  | _ -> Alcotest.fail "expected an untimed phase_end below Debug"

let () =
  Alcotest.run "trace"
    [
      ( "schema",
        [
          Alcotest.test_case "event round-trip" `Quick test_round_trip;
          Alcotest.test_case "special floats" `Quick test_round_trip_special_floats;
          Alcotest.test_case "rejects garbage" `Quick test_of_line_rejects_garbage;
          Alcotest.test_case "meta level names" `Quick test_meta_level_names;
          Alcotest.test_case "json nesting bound" `Quick test_json_depth_bound;
          Alcotest.test_case "4 MiB of '[' rejected in < 1 s" `Quick
            test_json_hostile_line_fast;
        ] );
      ( "counters",
        [
          Alcotest.test_case "accumulate & sort" `Quick test_counters;
          Alcotest.test_case "cross-domain totals" `Quick test_counters_cross_domain;
          Alcotest.test_case "per-request scoping" `Quick test_counters_scoped;
          Alcotest.test_case "in-memory stream & drain" `Quick
            test_mem_trace_stream_and_drain;
          Alcotest.test_case "stage profile minor words" `Quick test_profile_minor_words;
        ] );
      ( "file",
        [
          Alcotest.test_case "write/read round-trip" `Quick test_file_round_trip;
          Alcotest.test_case "level filtering" `Quick test_level_filtering;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "traced = untraced" `Quick test_traced_equals_untraced;
          Alcotest.test_case "jobs-invariant trace" `Quick test_trace_identical_across_jobs;
          Alcotest.test_case "campaign events" `Quick test_trace_records_campaign;
        ] );
      ( "clock",
        [
          Alcotest.test_case "duration = injected clock delta" `Quick
            test_phase_duration_from_injected_clock;
          Alcotest.test_case "backwards step clamps to 0" `Quick
            test_phase_duration_clamped_on_backwards_step;
          Alcotest.test_case "untimed below Debug" `Quick test_phase_duration_only_at_debug;
        ] );
    ]
