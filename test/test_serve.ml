(* The [mbpta serve] daemon: admission control, dedup/coalescing,
   warm-vs-cold classification, warm-only queries, graceful shutdown —
   and the bit-identity contract across all serving paths.

   Servers run in-process (threads over a Unix socket in a temp dir);
   clients talk to them through the real wire protocol, so every byte
   crosses the same boundary the CLI uses. *)

module M = Repro_mbpta
module T = Repro_tvca
module P = Repro_platform
module S = Repro_serve
module Sp = S.Serve_protocol
module Cs = S.Campaign_spec

let temp_dir () =
  let f = Filename.temp_file "serve_test" "" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_server ?(jobs = 2) ?(max_queue = 4) ?(max_clients = 16) ?on_job_start f =
  let dir = temp_dir () in
  let sock = Filename.concat dir "d.sock" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cfg =
    {
      S.Server.socket_path = sock;
      store_dir = Filename.concat dir "store";
      jobs;
      max_queue;
      max_clients;
      trace = None;
    }
  in
  match S.Server.start ?on_job_start cfg with
  | Error e -> Alcotest.failf "server start: %s" e
  | Ok srv -> Fun.protect ~finally:(fun () -> S.Server.stop srv) (fun () -> f srv sock)

let request ?on_event sock req =
  match S.Client.request ?on_event ~socket_path:sock req with
  | Ok r -> r
  | Error e -> Alcotest.failf "client request: %s" e

(* Small but real campaign — distinct seeds per test keep store keys from
   colliding even though every test gets its own directory anyway. *)
let spec ~seed = { Cs.default with runs = 120; seed; frames = 2; no_gates = true }

(* The sequential in-process reference: same measurement and analysis
   glue as the daemon (and the CLI), no store, [jobs = 1].  The daemon's
   reports must match this byte for byte on every serving path. *)
let direct_render (spec : Cs.t) =
  let experiment config =
    T.Experiment.create ~frames:spec.frames ~config ~base_seed:spec.seed ()
  in
  let det = experiment P.Config.deterministic in
  let rand = experiment P.Config.mbpta_compliant in
  let measure e i = T.Experiment.measure e ~run_index:i in
  let input =
    {
      M.Campaign.runs = spec.runs;
      measure_det = measure det;
      measure_rand = measure rand;
      options = Cs.options spec;
      engineering_factor = spec.engineering_factor;
    }
  in
  match M.Campaign.run ~jobs:1 input with
  | Ok c -> M.Campaign.render c
  | Error f -> Alcotest.failf "direct campaign failed: %a" M.Protocol.pp_failure f

let counter counters name = List.assoc_opt name counters

(* ------------------------------------------------------------------ *)

let test_cold_warm_bit_identical () =
  let spec = spec ~seed:4101L in
  let reference = direct_render spec in
  with_server @@ fun _srv sock ->
  let events = ref 0 in
  (match
     request ~on_event:(fun _ -> incr events) sock (Sp.Campaign { spec; events = true })
   with
  | Sp.Report { served = Sp.Cold; report; counters; _ } ->
      Alcotest.(check string) "cold report equals sequential reference" reference report;
      (match counter counters "cache.runs_simulated" with
      | Some n when n > 0 -> ()
      | c -> Alcotest.failf "cold request should simulate (got %a)" Fmt.(option int) c);
      Alcotest.(check bool) "events streamed while computing" true (!events > 0)
  | r -> Alcotest.failf "expected a cold report, got %s" (Sp.response_to_line r));
  match request sock (Sp.Campaign { spec; events = false }) with
  | Sp.Report { served = Sp.Warm; report; counters; _ } ->
      Alcotest.(check string) "warm report bit-identical" reference report;
      Alcotest.(check (option int))
        "warm request simulates nothing" (Some 0)
        (counter counters "cache.runs_simulated")
  | r -> Alcotest.failf "expected a warm report, got %s" (Sp.response_to_line r)

let test_concurrent_coalesced () =
  let identical = spec ~seed:4102L in
  let distinct = spec ~seed:4103L in
  let reference = direct_render identical in
  let release = Atomic.make false in
  let hook _key = while not (Atomic.get release) do Thread.delay 0.005 done in
  with_server ~on_job_start:hook @@ fun srv sock ->
  let n = 3 in
  let results = Array.make (n + 1) None in
  let client i sp () =
    results.(i) <- Some (S.Client.request ~socket_path:sock (Sp.Campaign { spec = sp; events = false }))
  in
  let threads =
    List.init n (fun i -> Thread.create (client i identical) ())
    @ [ Thread.create (client n distinct) () ]
  in
  (* The hook stalls the first job, so the other identical requests must
     coalesce onto it (and the distinct one must not) before we let any
     campaign compute. *)
  let deadline = Unix.gettimeofday () +. 20. in
  let coalesced () =
    counter (M.Trace.Counters.snapshot (S.Server.counters srv)) "serve.dedup_coalesced"
  in
  while coalesced () <> Some (n - 1) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check (option int)) "identical requests coalesced" (Some (n - 1)) (coalesced ());
  Atomic.set release true;
  List.iter Thread.join threads;
  let served_of = function
    | Some (Ok (Sp.Report { served; report; _ })) ->
        Alcotest.(check string) "every waiter gets the reference bytes" reference report;
        served
    | Some (Ok r) -> Alcotest.failf "expected a report, got %s" (Sp.response_to_line r)
    | Some (Error e) -> Alcotest.failf "client failed: %s" e
    | None -> Alcotest.fail "client never completed"
  in
  let identical_served = List.init n (fun i -> served_of results.(i)) in
  Alcotest.(check int) "exactly one computed cold" 1
    (List.length (List.filter (fun s -> s = Sp.Cold) identical_served));
  Alcotest.(check int) "the rest coalesced" (n - 1)
    (List.length (List.filter (fun s -> s = Sp.Coalesced) identical_served));
  match results.(n) with
  | Some (Ok (Sp.Report { served = Sp.Cold; report; _ })) ->
      Alcotest.(check string) "distinct spec computed its own report"
        (direct_render distinct) report
  | _ -> Alcotest.fail "distinct spec should have computed cold"

let test_overload_rejected () =
  let blocked = spec ~seed:4104L in
  let refused = spec ~seed:4105L in
  let release = Atomic.make false in
  let started = Atomic.make false in
  let hook _key =
    Atomic.set started true;
    while not (Atomic.get release) do Thread.delay 0.005 done
  in
  (* max_queue 0: one campaign may compute, nothing may wait. *)
  with_server ~max_queue:0 ~on_job_start:hook @@ fun _srv sock ->
  let first = ref None in
  let th =
    Thread.create
      (fun () ->
        first := Some (S.Client.request ~socket_path:sock (Sp.Campaign { spec = blocked; events = false })))
      ()
  in
  let deadline = Unix.gettimeofday () +. 20. in
  while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Alcotest.(check bool) "first campaign admitted" true (Atomic.get started);
  (* The daemon is saturated: a distinct campaign must be refused with a
     typed rejection immediately — not hang behind the blocked job. *)
  (match request sock (Sp.Campaign { spec = refused; events = false }) with
  | Sp.Rejected { reason; _ } ->
      Alcotest.(check string) "typed overload reason" Sp.reason_overloaded reason
  | r -> Alcotest.failf "expected overload rejection, got %s" (Sp.response_to_line r));
  Atomic.set release true;
  Thread.join th;
  match !first with
  | Some (Ok (Sp.Report { served = Sp.Cold; _ })) -> ()
  | _ -> Alcotest.fail "the admitted campaign should still complete cold"

let test_warm_queries () =
  let spec = spec ~seed:4106L in
  with_server @@ fun _srv sock ->
  (* Nothing recorded yet: warm-only queries must miss, never compute. *)
  (match request sock (Sp.Query { spec; query = Sp.Pwcet 1e-9 }) with
  | Sp.Miss _ -> ()
  | r -> Alcotest.failf "expected a miss on a cold store, got %s" (Sp.response_to_line r));
  (match request sock (Sp.Campaign { spec; events = false }) with
  | Sp.Report { served = Sp.Cold; _ } -> ()
  | r -> Alcotest.failf "expected a cold report, got %s" (Sp.response_to_line r));
  (match request sock (Sp.Query { spec; query = Sp.Pwcet 1e-9 }) with
  | Sp.Answer { value = M.Trace.Json.Float v; counters; _ } ->
      Alcotest.(check bool) "pWCET estimate is a positive finite float" true
        (Float.is_finite v && v > 0.);
      Alcotest.(check (option int))
        "warm query simulates nothing (counter-proved)" (Some 0)
        (counter counters "cache.runs_simulated")
  | r -> Alcotest.failf "expected a warm pWCET answer, got %s" (Sp.response_to_line r));
  match request sock (Sp.Query { spec; query = Sp.Iid_verdict }) with
  | Sp.Answer { value = M.Trace.Json.Obj fields; counters; _ } ->
      Alcotest.(check bool) "verdict carries accepted" true
        (match List.assoc_opt "accepted" fields with
        | Some (M.Trace.Json.Bool _) -> true
        | _ -> false);
      Alcotest.(check (option int))
        "i.i.d. query simulates nothing" (Some 0)
        (counter counters "cache.runs_simulated")
  | r -> Alcotest.failf "expected an i.i.d. answer, got %s" (Sp.response_to_line r)

(* ------------------------------------------------------------------ *)
(* Warm answers equal a direct analysis.  Each sample is written as the
   collect_rand record of a spec through the public store API, as a
   finished campaign leaves it; every spec of the grid then queries it
   warm, and the answer must be what [Protocol.analyze] gives on the same
   sample: the same value bits, or the same [Failed] text. *)

let store_dir_of sock = Filename.concat (Filename.dirname sock) "store"

let write_record ~sock (spec : Cs.t) xs =
  let store = M.Store.open_root ~dir:(store_dir_of sock) in
  match
    M.Store.open_session store ~key:(Cs.key spec) ~config:(Cs.store_config spec)
      ~runs:spec.runs ~resilient:false
  with
  | Error e -> Alcotest.failf "open_session: %s" e
  | Ok session ->
      Fun.protect
        ~finally:(fun () -> M.Store.close session)
        (fun () ->
          ignore
            (M.Store.collect ~jobs:1 session ~phase:M.Campaign.phase_collect_rand spec.runs
               (fun i -> xs.(i))))

(* Cycle-count-like draws: rounded Gumbel values, plus [slope] cycles a
   run ([slope] > 0 is a trend the i.i.d. gate rejects). *)
let synthetic ~seed ~slope n =
  let prng = Repro_rng.Prng.create seed in
  let d = Repro_stats.Distribution.Gumbel.create ~mu:220_000. ~beta:900. in
  Array.init n (fun i ->
      Float.round (Repro_stats.Distribution.Gumbel.sample d prng +. (slope *. float_of_int i)))

(* A JSON number as a float: an integral float crosses the wire as an
   integer. *)
let number = function
  | M.Trace.Json.Float f -> Some f
  | M.Trace.Json.Int i -> Some (float_of_int i)
  | _ -> None

let rec same_value a b =
  match (a, b) with
  | M.Trace.Json.Obj xs, M.Trace.Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (k', y) -> String.equal k k' && same_value x y) xs ys
  | _ -> (
      match (number a, number b) with
      | Some x, Some y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      | _ -> a = b)

let expected_answer query = function
  | Error f -> Error (Format.asprintf "analysis failed: %a" M.Protocol.pp_failure f)
  | Ok (a : M.Protocol.analysis) ->
      Ok
        (match query with
        | Sp.Pwcet p ->
            M.Trace.Json.Float (Repro_evt.Pwcet.estimate a.curve ~cutoff_probability:p)
        | Sp.Iid_verdict ->
            M.Trace.Json.Obj
              [
                ("accepted", M.Trace.Json.Bool a.iid.M.Iid.accepted);
                ( "lb_p",
                  M.Trace.Json.Float a.iid.M.Iid.ljung_box.Repro_stats.Ljung_box.p_value );
                ( "ks_p",
                  M.Trace.Json.Float a.iid.M.Iid.kolmogorov_smirnov.Repro_stats.Ks.p_value );
              ])

let test_warm_answers_direct () =
  (* an accepted sample that converges, a trend, and a sample too short
     to converge (3 estimates cannot make a streak of 3 stable steps) *)
  let samples =
    [
      ("i.i.d.", 4111L, synthetic ~seed:4111L ~slope:0. 1500, "analyzed");
      ("trend", 4112L, synthetic ~seed:4112L ~slope:20. 600, "i.i.d. rejected");
      ("short", 4113L, synthetic ~seed:4113L ~slope:0. 300, "not converged");
    ]
  in
  let outcome = function
    | Ok _ -> "analyzed"
    | Error (M.Protocol.Iid_rejected _) -> "i.i.d. rejected"
    | Error (M.Protocol.Not_converged _) -> "not converged"
    | Error f -> Format.asprintf "%a" M.Protocol.pp_failure f
  in
  with_server @@ fun _srv sock ->
  List.iter
    (fun (name, seed, xs, gated) ->
      let base = { Cs.default with runs = Array.length xs; seed; frames = 2 } in
      write_record ~sock base xs;
      List.iter
        (fun ((_, tail), no_gates, bootstrap) ->
          let spec = { base with tail; no_gates; bootstrap } in
          let counters = M.Trace.Counters.create () in
          let trace = M.Trace.create_mem ~level:M.Trace.Summary ~counters () in
          let direct = M.Protocol.analyze ~options:(Cs.options spec) ~trace xs in
          let steps = counter (M.Trace.Counters.snapshot counters) "analysis.convergence_steps" in
          let what =
            Printf.sprintf "%s, tail %s, gates %b, bootstrap %d" name (Cs.tail_name tail)
              (not no_gates) bootstrap
          in
          Alcotest.(check string)
            (what ^ ": direct outcome")
            (if no_gates then "analyzed" else gated)
            (outcome direct);
          List.iter
            (fun query ->
              let label = Printf.sprintf "%s, %s" what (Sp.request_to_line (Sp.Query { spec; query })) in
              match (request sock (Sp.Query { spec; query }), expected_answer query direct) with
              | Sp.Answer { value; counters; _ }, Ok want ->
                  if not (same_value value want) then
                    Alcotest.failf "%s: answered %s, a direct analysis gives %s" label
                      (M.Trace.Json.to_string value) (M.Trace.Json.to_string want);
                  Alcotest.(check (option int))
                    (label ^ ": nothing simulated") (Some 0)
                    (counter counters "cache.runs_simulated");
                  Alcotest.(check (option int))
                    (label ^ ": convergence steps") steps
                    (counter counters "analysis.convergence_steps")
              | Sp.Failed got, Error want -> Alcotest.(check string) label want got
              | r, _ -> Alcotest.failf "%s: unexpected %s" label (Sp.response_to_line r))
            [ Sp.Pwcet 1e-9; Sp.Pwcet 1e-3; Sp.Iid_verdict ])
        (List.concat_map
           (fun tail ->
             List.concat_map
               (fun no_gates -> List.map (fun b -> (tail, no_gates, b)) [ 0; 50 ])
               [ false; true ])
           Cs.tails))
    samples

(* A cutoff at or above a POT model's exceedance rate has no estimate:
   the daemon answers a typed failure that names the limit, instead of
   losing the handler thread, and keeps serving. *)
let test_pot_limit_failed () =
  let xs = synthetic ~seed:4114L ~slope:0. 300 in
  let spec =
    {
      Cs.default with
      runs = 300;
      seed = 4114L;
      frames = 2;
      tail = M.Protocol.Pot;
      no_gates = true;
    }
  in
  let limit =
    match M.Protocol.analyze ~options:(Cs.options spec) xs with
    | Ok a -> Repro_evt.Pwcet.cutoff_probability_limit a.curve
    | Error f -> Alcotest.failf "direct analysis failed: %a" M.Protocol.pp_failure f
  in
  Alcotest.(check bool) "0.5 lies past the limit" true (limit <= 0.5);
  with_server @@ fun _srv sock ->
  write_record ~sock spec xs;
  (match request sock (Sp.Query { spec; query = Sp.Pwcet 0.5 }) with
  | Sp.Failed msg ->
      Alcotest.(check string)
        "typed failure"
        (Printf.sprintf
           "pWCET(0.5) is undefined: the pot tail model answers cutoff probabilities below \
            %g only"
           limit)
        msg
  | r -> Alcotest.failf "expected a typed failure, got %s" (Sp.response_to_line r));
  (match request sock (Sp.Query { spec; query = Sp.Pwcet 1e-9 }) with
  | Sp.Answer _ -> ()
  | r -> Alcotest.failf "expected a pWCET answer, got %s" (Sp.response_to_line r));
  match request sock Sp.Status with
  | Sp.Status_report _ -> ()
  | r -> Alcotest.failf "expected a status report, got %s" (Sp.response_to_line r)

let test_shutdown_drains () =
  let in_flight = spec ~seed:4107L in
  let queued = spec ~seed:4108L in
  let release = Atomic.make false in
  let started = Atomic.make false in
  let hook _key =
    Atomic.set started true;
    while not (Atomic.get release) do Thread.delay 0.005 done
  in
  with_server ~max_queue:2 ~on_job_start:hook @@ fun srv sock ->
  let answers = Array.make 2 None in
  let submit i sp =
    Thread.create
      (fun () ->
        answers.(i) <- Some (S.Client.request ~socket_path:sock (Sp.Campaign { spec = sp; events = false })))
      ()
  in
  let t0 = submit 0 in_flight in
  let deadline = Unix.gettimeofday () +. 20. in
  while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  let t1 = submit 1 queued in
  let requests () =
    counter (M.Trace.Counters.snapshot (S.Server.counters srv)) "serve.requests"
  in
  while requests () < Some 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  (match request sock Sp.Shutdown with
  | Sp.Shutdown_ack -> ()
  | r -> Alcotest.failf "expected a shutdown ack, got %s" (Sp.response_to_line r));
  (* Release the in-flight campaign into the raised shutdown flag: it
     checkpoints at its first chunk barrier; the queued job is rejected
     without ever starting. *)
  Atomic.set release true;
  Thread.join t0;
  Thread.join t1;
  Array.iter
    (fun a ->
      match a with
      | Some (Ok (Sp.Rejected { reason; _ })) ->
          Alcotest.(check string) "typed shutdown rejection" Sp.reason_shutting_down
            reason
      | Some (Ok r) ->
          Alcotest.failf "expected shutdown rejection, got %s" (Sp.response_to_line r)
      | Some (Error e) -> Alcotest.failf "client failed: %s" e
      | None -> Alcotest.fail "client never completed")
    answers;
  S.Server.wait srv;
  Alcotest.(check bool) "socket file removed on drain" false (Sys.file_exists sock);
  match S.Client.request ~socket_path:sock Sp.Status with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a drained daemon must not answer"

let test_protocol_roundtrip () =
  let spec = { (spec ~seed:4109L) with seu_rate = 0.25; watchdog_budget = Some 90_000 } in
  let reqs =
    [
      Sp.Campaign { spec; events = true };
      Sp.Query { spec; query = Sp.Pwcet 1e-9 };
      Sp.Query { spec; query = Sp.Iid_verdict };
      Sp.Status;
      Sp.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Sp.request_of_line (Sp.request_to_line r) with
      | Ok r' ->
          Alcotest.(check string) "request round-trips" (Sp.request_to_line r)
            (Sp.request_to_line r')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    reqs;
  (* The store key must survive the wire: a spec parsed back from JSON
     addresses the same record (floats travel as %.17g). *)
  match Sp.request_of_line (Sp.request_to_line (Sp.Campaign { spec; events = false })) with
  | Ok (Sp.Campaign { spec = spec'; _ }) ->
      Alcotest.(check string) "store key stable across the wire" (Cs.key spec)
        (Cs.key spec')
  | _ -> Alcotest.fail "campaign request did not round-trip"

(* Specs outside the simulator's or the analysis's domain never reach the
   queue: the decoder rejects them and names the field. *)
let test_invalid_specs_rejected () =
  let base = spec ~seed:4110L in
  List.iter
    (fun (field, bad) ->
      List.iter
        (fun req ->
          match Sp.request_of_line (Sp.request_to_line req) with
          | Error e when String.starts_with ~prefix:(field ^ " ") e -> ()
          | Error e -> Alcotest.failf "%s: rejected for the wrong reason: %s" field e
          | Ok _ -> Alcotest.failf "%s: invalid spec accepted" field)
        [
          Sp.Campaign { spec = bad; events = false };
          Sp.Query { spec = bad; query = Sp.Iid_verdict };
        ])
    [
      ("runs", { base with runs = 0 });
      ("frames", { base with frames = 0 });
      ("frames", { base with frames = T.Controller.history_length + 1 });
      ("engineering_factor", { base with engineering_factor = 0.5 });
      ("min_survival", { base with min_survival = 1.5 });
      ("seu_rate", { base with seu_rate = -1. });
      ("bootstrap", { base with bootstrap = 5 });
      ("max_retries", { base with seu_rate = 1.; max_retries = -1 });
      ("watchdog_budget", { base with watchdog_budget = Some 0 });
    ]

(* The key spells the SEU rate exactly: rates 1 ulp apart address different
   records, while a rate string_of_float round-trips keeps its old key. *)
let test_key_spells_rate_exactly () =
  let key seu_rate = Cs.key { Cs.default with seu_rate } in
  Alcotest.(check bool) "0.1 and its successor differ" false
    (String.equal (key 0.1) (key (Float.succ 0.1)));
  Alcotest.(check string) "0.25 keeps its key" "37e8c831a0a8c8a0acfbd368b3b16234" (key 0.25)

(* ------------------------------------------------------------------ *)
(* The committed spec fixture: for every spec of a grid, the request line,
   the analyze store config and key, the collect_rand key and the shard
   worker's argv (without argv.(0) and the worker-only flags).  On a
   mismatch the recomputed transcript is written next to the test
   executable; copy it over the fixture only for an intended change. *)

let golden_fixture = Filename.concat "fixtures" "spec_golden.txt"
let golden_output = "spec_golden.txt"

(* Plain, SEU-resilient and watchdog-only specs, each at four seeds, with
   runs, frames, tail, gates and bootstrap cycling through their values. *)
let golden_specs =
  let faults =
    [
      (0., None, 2);
      (0.25, None, 0);
      (0.3, Some 140_000, 3);
      (12.3456789012345, None, 3);
      (1. /. 3., Some 140_000, 0);
      (0., Some 140_000, 3);
    ]
  in
  let seeds = [ 2017L; 0L; -1L; Int64.max_int ] in
  let tails = Array.of_list (List.map snd Cs.tails) in
  List.concat_map (fun f -> List.map (fun s -> (f, s)) seeds) faults
  |> List.mapi (fun i ((seu_rate, watchdog_budget, max_retries), seed) ->
         {
           Cs.default with
           runs = [| 1; 4096; 4097 |].(i mod 3);
           seed;
           frames = [| 1; 8; 64 |].(i / 2 mod 3);
           tail = tails.(i / 3 mod 4);
           no_gates = i mod 2 = 1;
           bootstrap = (if i / 4 mod 2 = 0 then 0 else 50);
           seu_rate;
           watchdog_budget;
           max_retries;
         })

let golden_transcript () =
  let b = Buffer.create 16_384 in
  Buffer.add_string b "# request\tstore config\tkey\tcollect_rand key\tworker argv\n";
  List.iter
    (fun spec ->
      Printf.bprintf b "%s\t%s\t%s\t%s\t%s\n"
        (Sp.request_to_line (Sp.Campaign { spec; events = false }))
        (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (Cs.store_config spec)))
        (Cs.key spec)
        (M.Store.key (Cs.collect_rand_config spec))
        (String.concat " " ("analyze" :: Cs.to_args spec)))
    golden_specs;
  Buffer.contents b

let test_spec_golden () =
  let got = golden_transcript () in
  let want =
    try Some (In_channel.with_open_bin golden_fixture In_channel.input_all)
    with Sys_error _ -> None
  in
  if want <> Some got then begin
    Out_channel.with_open_bin golden_output (fun oc -> output_string oc got);
    let rec first_diff i = function
      | w :: ws, g :: gs -> if String.equal w g then first_diff (i + 1) (ws, gs) else (i, w, g)
      | w :: _, [] -> (i, w, "<end>")
      | [], g :: _ -> (i, "<end>", g)
      | [], [] -> (i, "", "")
    in
    let i, w, g =
      first_diff 1
        (String.split_on_char '\n' (Option.value want ~default:""), String.split_on_char '\n' got)
    in
    Alcotest.failf
      "spec transcript differs from %s at line %d:\n  fixture %S\n  spec    %S\nthe recomputed \
       transcript is in %s — copy it over test/%s if the change is intended"
      golden_fixture i w g
      (Filename.concat (Sys.getcwd ()) golden_output)
      golden_fixture
  end

(* ------------------------------------------------------------------ *)
(* Hostile request lines: the JSON nesting bound.  A line of 4 MiB - 1
   '[' is the longest the daemon reads; unbounded, the parser would
   recurse once per byte and hold the connection for seconds. *)

let hostile_line = String.make ((4 * 1024 * 1024) - 1) '['
let max_depth = M.Trace.Json.max_depth

(* A status request whose ignored "pad" field brings the line to [depth]
   levels of nesting, the request object included. *)
let status_nested depth =
  Printf.sprintf {|{"req":"status","pad":%s1%s}|}
    (String.make (depth - 1) '[')
    (String.make (depth - 1) ']')

let test_hostile_line_rejected () =
  let t0 = Unix.gettimeofday () in
  let result = Sp.request_of_line hostile_line in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match result with
  | Ok _ -> Alcotest.fail "4 MiB of '[' accepted as a request"
  | Error e ->
      Alcotest.(check string)
        "typed error"
        (Printf.sprintf "malformed JSON: nesting deeper than %d at offset %d" max_depth max_depth)
        e);
  if elapsed >= 1. then Alcotest.failf "rejecting 4 MiB of '[' took %.2f s, want < 1 s" elapsed;
  (match Sp.request_of_line (status_nested max_depth) with
  | Ok Sp.Status -> ()
  | Ok _ -> Alcotest.fail "expected a status request"
  | Error e -> Alcotest.failf "%d levels should parse: %s" max_depth e);
  match Sp.request_of_line (status_nested (max_depth + 1)) with
  | Ok _ -> Alcotest.failf "%d levels should be rejected" (max_depth + 1)
  | Error e ->
      Alcotest.(check string)
        "one level too deep"
        (Printf.sprintf "malformed JSON: nesting deeper than %d at offset %d" max_depth
           (String.length {|{"req":"status","pad":|} + max_depth - 1))
        e

(* The same line over the socket: a bad-request answer within 5 s, and
   the daemon still answers the next client. *)
let test_hostile_line_served () =
  with_server @@ fun _srv sock ->
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let response =
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX sock);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
    let t0 = Unix.gettimeofday () in
    S.Serve_io.write_line fd hostile_line;
    let line = S.Serve_io.read_line (S.Serve_io.reader fd) in
    (line, Unix.gettimeofday () -. t0)
  in
  (match response with
  | Ok line, elapsed -> (
      if elapsed >= 5. then Alcotest.failf "the answer took %.2f s, want < 5 s" elapsed;
      match Sp.response_of_line line with
      | Ok (Sp.Failed msg) ->
          Alcotest.(check string)
            "bad request"
            (Printf.sprintf "bad request: malformed JSON: nesting deeper than %d at offset %d"
               max_depth max_depth)
            msg
      | _ -> Alcotest.failf "expected a bad-request error, got %s" line)
  | Error e, _ -> Alcotest.failf "no answer to the hostile line: %s" e);
  match request sock Sp.Status with
  | Sp.Status_report _ -> ()
  | r -> Alcotest.failf "expected a status report, got %s" (Sp.response_to_line r)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip + key stability" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "invalid specs are rejected" `Quick test_invalid_specs_rejected;
          Alcotest.test_case "key spells the SEU rate exactly" `Quick
            test_key_spells_rate_exactly;
          Alcotest.test_case "spec transcript = committed fixture" `Quick test_spec_golden;
        ] );
      ( "serving",
        [
          Alcotest.test_case "cold/warm bit-identical to sequential" `Quick
            test_cold_warm_bit_identical;
          Alcotest.test_case "concurrent identical requests coalesce" `Quick
            test_concurrent_coalesced;
          Alcotest.test_case "warm-only queries" `Quick test_warm_queries;
          Alcotest.test_case "warm answers = a direct analysis" `Quick
            test_warm_answers_direct;
          Alcotest.test_case "pwcet past the POT limit fails typed" `Quick
            test_pot_limit_failed;
        ] );
      ( "admission",
        [ Alcotest.test_case "overload gets a typed rejection" `Quick
            test_overload_rejected ] );
      ( "shutdown",
        [ Alcotest.test_case "drain rejects queued, checkpoints in-flight" `Quick
            test_shutdown_drains ] );
      (* Alcotest pads every test name to the longest group name and cuts
         the name at the terminal width; a group name longer than
         "admission" would shorten the printed names of the tests above. *)
      ( "hostile",
        [
          Alcotest.test_case "4 MiB of '[' rejected in < 1 s; depth bound" `Quick
            test_hostile_line_rejected;
          Alcotest.test_case "daemon answers the 4 MiB line, then status" `Quick
            test_hostile_line_served;
        ] );
    ]
