(* mbpta_cli: command-line front end to the whole reproduction.

   Subcommands:
     analyze      full campaign (DET + RAND, i.i.d., pWCET, comparison)
     iid          i.i.d. verification only
     convergence  pWCET-estimate convergence study
     qualify      PRNG qualification battery
     plot         Figure 2 exceedance plot only
     shuffle      schedule-randomization campaigns (pWCET impact + entropy)
     leak         two-campaign timing-leak test (Welch's t + Cohen's d)
     trace        inspect JSONL traces written with --trace
     cache        inspect/maintain the measurement store (--cache-dir)
     serve        long-running campaign daemon on a Unix socket
     client       send one request to a running daemon

   Examples:
     dune exec bin/mbpta_cli.exe -- analyze --runs 3000
     dune exec bin/mbpta_cli.exe -- iid --runs 1000 --seed 7
     dune exec bin/mbpta_cli.exe -- qualify --algorithm lfsr64
     dune exec bin/mbpta_cli.exe -- analyze --runs 500 --trace run.jsonl
     dune exec bin/mbpta_cli.exe -- trace summary run.jsonl
     dune exec bin/mbpta_cli.exe -- analyze --runs 3000 --cache-dir .mbpta-cache
     dune exec bin/mbpta_cli.exe -- analyze --runs 3000 --cache-dir .mbpta-cache --resume
     dune exec bin/mbpta_cli.exe -- cache ls .mbpta-cache *)

module P = Repro_platform
module T = Repro_tvca
module M = Repro_mbpta
module E = Repro_evt
module Prng = Repro_rng.Prng
module Quality = Repro_rng.Quality
module Srv = Repro_serve
module Cs = Repro_serve.Campaign_spec
open Cmdliner

(* --------------------------- common options --------------------------- *)

let runs_arg =
  let doc = "Number of measurement runs per platform configuration." in
  Arg.(value & opt int Cs.default.runs & info [ "r"; "runs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Base seed of the campaign (all randomness derives from it)." in
  Arg.(value & opt int64 Cs.default.seed & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let frames_arg =
  let doc = "Frames (task activations) per measured run." in
  Arg.(value & opt int Cs.default.frames & info [ "frames" ] ~docv:"K" ~doc)

let tail_arg =
  let doc = "Tail model: gumbel (default), gev, pot or exp." in
  Arg.(value & opt (enum Cs.tails) Cs.default.tail & info [ "tail" ] ~docv:"MODEL" ~doc)

let no_gates_arg =
  let doc = "Report the i.i.d./convergence verdicts but do not fail on them." in
  Arg.(value & flag & info [ "no-gates" ] ~doc)

(* The campaign spec of `analyze` and `client`: one term, so both front
   ends parse the same flags with the same defaults. *)
let spec_term =
  let bootstrap =
    let doc =
      "Bootstrap replicates for a sampling-uncertainty interval on the pWCET estimate \
       (0 disables, minimum 20).  Replicates fan out over --jobs with bit-identical \
       intervals at any job count."
    in
    Arg.(
      value & opt int Cs.default.bootstrap & info [ "bootstrap" ] ~docv:"REPLICATES" ~doc)
  in
  let engineering_factor =
    let doc = "Engineering factor of the industrial MBTA baseline." in
    Arg.(
      value
      & opt float Cs.default.engineering_factor
      & info [ "engineering-factor" ] ~docv:"F" ~doc)
  in
  let seu_rate =
    let doc =
      "Inject single-event upsets at $(docv) expected upsets per million retired \
       instructions (0 disables injection; the pipeline is then bit-identical to the \
       fault-free one)."
    in
    Arg.(value & opt float Cs.default.seu_rate & info [ "seu-rate" ] ~docv:"RATE" ~doc)
  in
  let watchdog_budget =
    let doc = "Watchdog cycle budget per run; a run exceeding it is a timeout." in
    Arg.(value & opt (some int) None & info [ "watchdog-budget" ] ~docv:"CYCLES" ~doc)
  in
  let max_retries =
    let doc = "Retries allowed per faulted run before it is quarantined." in
    Arg.(value & opt int Cs.default.max_retries & info [ "max-retries" ] ~docv:"N" ~doc)
  in
  let min_survival =
    let doc = "Fraction of runs that must survive for the campaign to proceed." in
    Arg.(
      value & opt float Cs.default.min_survival & info [ "min-survival" ] ~docv:"FRAC" ~doc)
  in
  let spec runs seed frames tail no_gates bootstrap engineering_factor seu_rate
      watchdog_budget max_retries min_survival =
    {
      Cs.runs;
      seed;
      frames;
      tail;
      no_gates;
      bootstrap;
      engineering_factor;
      seu_rate;
      watchdog_budget;
      max_retries;
      min_survival;
    }
  in
  Term.(
    const spec $ runs_arg $ seed_arg $ frames_arg $ tail_arg $ no_gates_arg $ bootstrap
    $ engineering_factor $ seu_rate $ watchdog_budget $ max_retries $ min_survival)

let jobs_arg =
  let doc =
    "Measurement runs execute on $(docv) domains (0 = one per core).  Per-run seed \
     derivation makes the samples and the analysis bit-identical at any job count; \
     --jobs 1 is the sequential reference."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let resolve_jobs = function
  | 0 -> M.Parallel.default_jobs ()
  | j when j >= 1 -> j
  | j ->
      Format.eprintf "mbpta_cli: --jobs must be >= 0 (got %d)@." j;
      exit 2

(* Usage errors share one shape: message on stderr, exit 2 (the cmdliner
   convention resolve_jobs established). *)
let usage_error fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "mbpta_cli: %s@." msg;
      exit 2)
    fmt

(* Every subcommand's spec fields go through [Campaign_spec.validate], so
   the simulator's bounds are checked before anything runs. *)
let validated spec =
  match Cs.validate spec with
  | Ok () -> spec
  | Error (field, problem) ->
      usage_error "--%s %s" (String.map (function '_' -> '-' | c -> c) field) problem

let sample_spec ~runs ~seed ~frames = validated { Cs.default with runs; seed; frames }

let validate_probability p =
  if not (p > 0. && p < 1.) then usage_error "--probability must lie in (0, 1) (got %g)" p

let profile_arg =
  let doc =
    "Enable the stage-resolved micro-profiler: campaign wall time and minor-heap words \
     are attributed to pipeline stages (codegen, decode, execute, flush, seed \
     derivation, trace, store, analysis) and the table is printed after the report.  With --trace the totals are \
     also recorded as profile.* counters, rendered by `trace summary` as the \
     stage-profile section."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

(* ------------------------------ tracing ------------------------------- *)

let trace_arg =
  let doc = "Append a JSONL event trace of this invocation to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_level_arg =
  let levels =
    [ ("summary", M.Trace.Summary); ("runs", M.Trace.Runs); ("debug", M.Trace.Debug) ]
  in
  let doc =
    "Trace verbosity: summary (lifecycle + verdicts), runs (default; adds one event \
     per measured run), debug (adds chunk scheduling and wall times — the only \
     level whose trace varies with --jobs)."
  in
  Arg.(value & opt (enum levels) M.Trace.Runs & info [ "trace-level" ] ~docv:"LEVEL" ~doc)

(* [with_trace ~path ~level ~config f] runs [f (Some t)] against an open
   trace — emitting the harness [Config] context first and flushing on the
   way out, even on exceptions.  Without [--trace] it is exactly [f None]:
   the measurement closures are the original untraced ones. *)
let with_trace ~path ~level ~config f =
  match path with
  | None -> f None
  | Some path ->
      let t =
        (* [Trace.create] touches the file eagerly, so a bad destination is
           a usage error here — not a lost trace after the campaign ran. *)
        try M.Trace.create ~level ~path ()
        with Sys_error e -> usage_error "%s" e
      in
      M.Trace.emit t (M.Trace.Config config);
      Fun.protect ~finally:(fun () -> M.Trace.close t) (fun () -> f (Some t))

(* --------------------------- measurement store ------------------------ *)

let cache_dir_arg =
  let doc =
    "Persist measurements to a content-addressed store under $(docv) and replay any \
     already recorded there.  The record key digests everything that determines a \
     measured value (platform configs, seed, frames, runs, fault settings) — \
     analysis-only flags (--tail, --no-gates, --engineering-factor, --jobs) reuse \
     the same record."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Continue an interrupted campaign from its last complete checkpoint chunk in the \
     store (requires --cache-dir).  Without this flag a partial record is discarded \
     and the campaign starts cold; a complete record is always reused."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let no_cache_arg =
  let doc = "Ignore --cache-dir for this invocation (measure everything afresh)." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_sync_arg =
  let doc =
    "fsync the store record at every checkpoint barrier, so an acknowledged chunk \
     survives power loss as well as a process kill.  Off by default: the durability \
     unit is the chunk, and campaigns tolerate losing the tail chunk."
  in
  Arg.(value & flag & info [ "cache-sync" ] ~doc)

(* [with_store ... f] runs [f (Some session)] against an open store session
   (closed on the way out, even on exceptions) — or [f None] when no cache
   directory was given.  A record whose metadata disagrees with this
   campaign is a usage error, pointing at `cache ls`/`cache gc`. *)
let with_store ~cache_dir ~resume ~no_cache ~sync ~config ~runs ~resilient f =
  match cache_dir with
  | None -> f None
  | Some _ when no_cache -> f None
  | Some dir -> (
      let store = try M.Store.open_root ~dir with Sys_error e -> usage_error "%s" e in
      let key = M.Store.key config in
      match M.Store.open_session ~resume ~sync store ~key ~config ~runs ~resilient with
      | Error e -> usage_error "%s" e
      | Ok session ->
          Fun.protect
            ~finally:(fun () -> M.Store.close session)
            (fun () -> f (Some session)))

(* With a store session attached, SIGINT/SIGTERM must checkpoint — not
   kill mid-write: install the cooperative handlers ({!M.Shutdown}) and
   translate the resulting [Interrupted] into the conventional exit code
   (130/143) plus a hint that the record resumes.  Without a store the
   default signal disposition is kept (nothing to checkpoint). *)
let with_graceful_shutdown ~enabled f =
  if not enabled then f ()
  else begin
    M.Shutdown.install ();
    match f () with
    | code -> code
    | exception (M.Shutdown.Interrupted reason as e) ->
        Format.eprintf
          "mbpta_cli: interrupted by %s; the campaign checkpointed at its last chunk \
           barrier — rerun with --resume to continue where it stopped@."
          reason;
        M.Shutdown.exit_code e
  end

(* ------------------------ distributed campaigns ------------------------ *)

let shard_arg =
  let doc =
    "Worker mode: compute only shard $(docv) (written k/N, 1-based) of the campaign's \
     checkpoint-chunk span into the store and exit without running analysis.  \
     Requires --cache-dir; shard records recombine with `cache merge` (or are spawned \
     and merged automatically by --workers)."
  in
  Arg.(value & opt (some string) None & info [ "shard" ] ~docv:"K/N" ~doc)

let workers_arg =
  let doc =
    "Coordinator mode: spawn $(docv) worker processes (one per shard, re-invoking this \
     executable with --shard k/N into per-shard store directories), supervise them \
     with retry/timeout/backoff, merge the shard stores into --cache-dir, and run the \
     analysis over the merged record — byte-identical to a single-process run.  \
     Requires --cache-dir; values below 2 disable coordination."
  in
  Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)

let worker_deadline_arg =
  let doc =
    "Kill a worker that has not finished after $(docv) seconds (counts as a failed \
     attempt; the retry resumes from the shard record's last checkpoint)."
  in
  Arg.(value & opt (some float) None & info [ "worker-deadline" ] ~docv:"SECONDS" ~doc)

let worker_retries_arg =
  let doc =
    "Extra attempts per shard after the first; a shard that exhausts them is reported \
     as unrecoverable and its uncovered span is computed in-process after the merge."
  in
  Arg.(value & opt int 2 & info [ "worker-retries" ] ~docv:"N" ~doc)

let worker_backoff_arg =
  let doc =
    "Base backoff before retry k is $(docv)*2^k seconds (capped at 8s) — deterministic \
     by construction, so supervision transcripts are reproducible."
  in
  Arg.(value & opt float 0.5 & info [ "worker-backoff" ] ~docv:"SECONDS" ~doc)

let parse_shard s =
  match String.split_on_char '/' s with
  | [ k; n ] -> (
      match (int_of_string_opt k, int_of_string_opt n) with
      | Some k, Some n when n >= 1 && k >= 1 && k <= n -> (k, n)
      | _ -> usage_error "--shard expects k/N with 1 <= k <= N (got %s)" s)
  | _ -> usage_error "--shard expects k/N (got %s)" s

(* The RAND phase of a campaign, alone, for the single-platform
   subcommands. *)
let collect_par ?trace ?store ~jobs exp ~runs =
  M.Campaign.collect_phase ?trace ?store ~jobs ~phase:M.Campaign.phase_collect_rand runs
    (Cs.measure ?counters:(Option.map M.Trace.counters trace) exp ~prefix:"rand.")

let experiment ~config ~seed ~frames =
  T.Experiment.create ~frames ~config ~base_seed:seed ()

let base_config ~subcommand ~runs ~seed ~frames =
  [
    ("subcommand", subcommand);
    ("runs", string_of_int runs);
    ("seed", Int64.to_string seed);
    ("frames", string_of_int frames);
  ]

(* ------------------------------ analyze ------------------------------ *)

let analyze spec csv_dir jobs profile trace_path trace_level cache_dir resume no_cache
    cache_sync shard workers worker_deadline worker_retries worker_backoff =
  let jobs = resolve_jobs jobs in
  if profile then M.Profile.set_enabled true;
  let spec = validated spec in
  let runs = spec.Cs.runs in
  let shard = Option.map parse_shard shard in
  if workers < 1 then usage_error "--workers must be >= 1 (got %d)" workers;
  if shard <> None && workers > 1 then
    usage_error "--shard and --workers are mutually exclusive";
  if (shard <> None || workers > 1) && cache_dir = None then
    usage_error "%s requires --cache-dir (shard records live in the store)"
      (if shard <> None then "--shard" else "--workers");
  if (shard <> None || workers > 1) && no_cache then
    usage_error "distributed campaigns need the store; drop --no-cache";
  if worker_retries < 0 then
    usage_error "--worker-retries must be >= 0 (got %d)" worker_retries;
  if not (worker_backoff >= 0.) then
    usage_error "--worker-backoff must be >= 0 (got %g)" worker_backoff;
  (match worker_deadline with
  | Some d when not (d > 0.) ->
      usage_error "--worker-deadline must be > 0 (got %g)" d
  | _ -> ());
  let resilient = Cs.resilient spec in
  let store_config = Cs.store_config spec in
  let config =
    base_config ~subcommand:"analyze" ~runs ~seed:spec.seed ~frames:spec.frames
    @ [ ("tail", Cs.tail_name spec.tail); ("seu_rate", string_of_float spec.seu_rate) ]
  in
  with_graceful_shutdown ~enabled:(cache_dir <> None && not no_cache) @@ fun () ->
  with_trace ~path:trace_path ~level:trace_level ~config @@ fun trace ->
  (* Coordinator mode: spawn one worker process per shard (this executable,
     re-invoked with --shard k/N into a per-shard store directory),
     supervise them with retry/timeout/backoff, then merge the shard stores
     into [dir].  The caller falls through to the normal campaign with
     resume on, so any span an unrecoverable or quarantined shard left
     uncovered is recomputed in-process — degraded wall-clock and an
     explicit coverage report, never a silently wrong answer. *)
  let coordinate dir =
    let chunk_size = M.Store.default_chunk_size in
    let spans = M.Coordinator.shard_spans ~shards:workers ~chunk_size ~runs in
    let nspans = List.length spans in
    if nspans < workers then
      Format.eprintf
        "mbpta_cli: %d runs hold only %d checkpoint chunk%s; spawning %d worker%s@." runs
        nspans
        (if nspans = 1 then "" else "s")
        nspans
        (if nspans = 1 then "" else "s");
    (* Workers recompute the same layout from k/N, so N stays the requested
       worker count even when trailing shards are empty. *)
    let shard_dir k = Filename.concat dir (Printf.sprintf "shard-%d-of-%d" k workers) in
    let worker_argv k =
      Array.of_list
        ((Sys.executable_name :: "analyze" :: Cs.to_args spec)
        @ [ "--jobs"; string_of_int jobs ]
        @ [ "--shard"; Printf.sprintf "%d/%d" k workers; "--cache-dir"; shard_dir k ]
        @ if cache_sync then [ "--cache-sync" ] else [])
    in
    List.iteri (fun i _ -> M.Trace.ensure_dir (shard_dir (i + 1))) spans;
    let policy =
      {
        (M.Coordinator.default_policy ~shards:workers) with
        M.Coordinator.deadline = worker_deadline;
        max_retries = worker_retries;
        backoff = worker_backoff;
      }
    in
    let run_shard ~shard ~span:_ ~attempt:_ =
      M.Coordinator.run_worker
        ~log:(Filename.concat (shard_dir shard) "worker.log")
        ~deadline:worker_deadline ~poll_interval:policy.M.Coordinator.poll_interval
        ~argv:(worker_argv shard) ()
    in
    let report = M.Coordinator.supervise ?trace ~policy ~chunk_size ~runs ~run_shard () in
    Format.eprintf "%a@." M.Coordinator.pp_report report;
    let src = List.mapi (fun i _ -> M.Store.open_root ~dir:(shard_dir (i + 1))) spans in
    let dst = try M.Store.open_root ~dir with Sys_error e -> usage_error "%s" e in
    match M.Store.merge ?trace ~sync:cache_sync ~src dst with
    | Error e -> usage_error "%s" e
    | Ok m ->
        List.iter
          (fun (file, reason) ->
            Format.eprintf "mbpta_cli: quarantined %s: %s@." file reason)
          m.M.Store.quarantined;
        let shards_merged =
          List.mapi (fun i _ -> shard_dir (i + 1)) spans
          |> List.filter (fun d ->
                 List.exists (fun f -> Filename.dirname f = d) m.M.Store.contributed)
          |> List.length
        in
        (match trace with
        | Some t ->
            M.Trace.Counters.add (M.Trace.counters t) "campaign.shards_merged"
              shards_merged
        | None -> ());
        let covered =
          match List.assoc_opt (Cs.key spec) m.M.Store.coverage with
          | Some c -> c
          | None -> 0
        in
        if covered < runs then
          Format.eprintf
            "mbpta_cli: partial coverage after merging %d shard store%s: %d/%d runs; \
             the remainder is computed in-process@."
            shards_merged
            (if shards_merged = 1 then "" else "s")
            covered runs
        else
          Format.eprintf "mbpta_cli: merged %d shard store%s; all %d runs covered@."
            shards_merged
            (if shards_merged = 1 then "" else "s")
            runs
  in
  let exit_code =
    match shard with
  | Some (k, n) ->
      (* Worker mode: compute just this shard's span into the store record
         and exit — no analysis, no report.  Always resumes (a retried
         worker continues from its last checkpoint chunk); a record it
         cannot resume is quarantined and the span recomputed, so retries
         converge instead of wedging.  A record that another process is
         still writing is never quarantined: the worker fails on its lock
         (exit 2) and leaves it alone. *)
      let dir = Option.get cache_dir in
      let spans =
        M.Coordinator.shard_spans ~shards:n ~chunk_size:M.Store.default_chunk_size ~runs
      in
      if k > List.length spans then begin
        Format.printf "shard %d/%d: empty span (campaign has %d checkpoint chunk%s)@." k
          n (List.length spans)
          (if List.length spans = 1 then "" else "s");
        0
      end
      else begin
        let ((lo, hi) as span) = List.nth spans (k - 1) in
        let store = try M.Store.open_root ~dir with Sys_error e -> usage_error "%s" e in
        let key = Cs.key spec in
        let open_session () =
          M.Store.open_session ~resume:true ~sync:cache_sync ~shard:span store ~key
            ~config:store_config ~runs ~resilient
        in
        let session =
          match open_session () with
          | Ok s -> s
          | Error e -> (
              match M.Store.quarantine store ~key with
              | Error q -> usage_error "%s" q
              | Ok () -> (
                  Format.eprintf "mbpta_cli: %s; quarantined it, recomputing the shard@." e;
                  match open_session () with Ok s -> s | Error e -> usage_error "%s" e))
        in
        Fun.protect ~finally:(fun () -> M.Store.close session) @@ fun () ->
        match Cs.collect_shard ~jobs ?trace ~store:session spec with
        | Error f ->
            Format.eprintf "shard %d/%d failed: %a@." k n M.Protocol.pp_failure f;
            1
        | Ok () ->
            Format.printf "shard %d/%d: runs [%d, %d) of %d recorded in %s@." k n lo hi
              runs dir;
            0
      end
  | None -> (
      let resume =
        if workers > 1 then begin
          coordinate (Option.get cache_dir);
          true
        end
        else resume
      in
      with_store ~cache_dir ~resume ~no_cache ~sync:cache_sync ~config:store_config
        ~runs ~resilient
      @@ fun store ->
      match Cs.run ~jobs ?trace ?store spec with
  | Error f ->
      Format.eprintf "campaign failed: %a@." M.Protocol.pp_failure f;
      1
  | Ok campaign -> (
      print_endline (M.Campaign.render campaign);
      match
        match csv_dir with
        | None -> ()
        | Some dir ->
            let write name contents =
              M.Export.to_file ~path:(Filename.concat dir name) contents
            in
            write "det_samples.csv"
              (M.Export.samples_csv ~label:"DET" campaign.M.Campaign.det_sample);
            write "rand_samples.csv"
              (M.Export.samples_csv ~label:"RAND" campaign.M.Campaign.rand_sample);
            write "rand_ecdf.csv" (M.Export.ecdf_csv campaign.M.Campaign.rand_sample);
            (match campaign.M.Campaign.analysis with
            | Ok a -> write "pwcet_curve.csv" (M.Export.curve_csv a.M.Protocol.curve)
            | Error _ -> ());
            (match campaign.M.Campaign.comparison with
            | Some c -> write "comparison.csv" (M.Export.comparison_csv c)
            | None -> ());
            Format.printf "CSV data written to %s/@." dir
      with
      | exception Sys_error e ->
          Format.eprintf "mbpta_cli: cannot write CSV: %s@." e;
          1
      | () ->
          (* measurements succeeded (samples are printed/exported either
             way), but a failed analysis is still a failed campaign to the
             caller *)
          (match campaign.M.Campaign.analysis with Ok _ -> 0 | Error _ -> 1)))
  in
  (* Fold the profile into the trace (while it is still open) and print
     the table — worker shards included, so a distributed campaign's
     per-process profiles land in the per-shard logs. *)
  (match trace with
  | Some t when profile -> M.Profile.record_counters (M.Trace.counters t)
  | _ -> ());
  if profile then begin
    match M.Profile.report () with
    | "" -> print_endline "stage profile: (profiler enabled, nothing recorded)"
    | table ->
        print_newline ();
        print_endline "stage profile:";
        print_string table
  end;
  exit_code

let analyze_cmd =
  let csv_dir =
    let doc = "Also write samples/ECDF/curve/comparison CSV files to $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv-dir" ] ~docv:"DIR" ~doc)
  in
  let doc = "run the full measurement campaign and print the report" in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const analyze $ spec_term $ csv_dir $ jobs_arg $ profile_arg $ trace_arg
      $ trace_level_arg $ cache_dir_arg $ resume_arg $ no_cache_arg $ cache_sync_arg
      $ shard_arg $ workers_arg $ worker_deadline_arg $ worker_retries_arg
      $ worker_backoff_arg)

(* -------------------------------- iid -------------------------------- *)

(* [iid] and [convergence] analyze a sample without [Protocol.gate], so
   they run its sample check first and fail as [analyze] does. *)
let with_valid_sample xs k =
  match M.Protocol.validate_sample xs with
  | Some f ->
      Format.eprintf "campaign failed: %a@." M.Protocol.pp_failure f;
      1
  | None -> k ()

(* iid and convergence measure the same thing — runs on the randomized
   platform — so they share one store key ([Campaign_spec.collect_rand_config]):
   a sample recorded by either is a warm hit for the other. *)
let iid runs seed frames jobs trace_path trace_level cache_dir resume no_cache cache_sync
    =
  let spec = sample_spec ~runs ~seed ~frames in
  let config = base_config ~subcommand:"iid" ~runs ~seed ~frames in
  with_graceful_shutdown ~enabled:(cache_dir <> None && not no_cache) @@ fun () ->
  with_trace ~path:trace_path ~level:trace_level ~config @@ fun trace ->
  with_store ~cache_dir ~resume ~no_cache ~sync:cache_sync
    ~config:(Cs.collect_rand_config spec) ~runs ~resilient:false
  @@ fun store ->
  let rand = experiment ~config:P.Config.mbpta_compliant ~seed ~frames in
  let xs = collect_par ?trace ?store ~jobs:(resolve_jobs jobs) rand ~runs in
  with_valid_sample xs @@ fun () ->
  let gate, verdict =
    M.Campaign.analysis_phase ?trace (fun () ->
        let gate = M.Iid.gate xs in
        (gate, M.Iid.complete gate xs))
  in
  (match trace with Some t -> M.Trace.emit t (M.Trace.iid_event gate) | None -> ());
  Format.printf "%a@." M.Iid.pp verdict;
  0

let iid_cmd =
  let doc = "collect runs on the randomized platform and verify i.i.d." in
  Cmd.v (Cmd.info "iid" ~doc)
    Term.(
      const iid $ runs_arg $ seed_arg $ frames_arg $ jobs_arg $ trace_arg
      $ trace_level_arg $ cache_dir_arg $ resume_arg $ no_cache_arg $ cache_sync_arg)

(* ---------------------------- convergence ---------------------------- *)

let convergence runs seed frames probability jobs trace_path trace_level cache_dir resume
    no_cache cache_sync =
  let spec = sample_spec ~runs ~seed ~frames in
  validate_probability probability;
  let config =
    base_config ~subcommand:"convergence" ~runs ~seed ~frames
    @ [ ("probability", string_of_float probability) ]
  in
  with_graceful_shutdown ~enabled:(cache_dir <> None && not no_cache) @@ fun () ->
  with_trace ~path:trace_path ~level:trace_level ~config @@ fun trace ->
  (* probability is an analysis knob — the measurement key is the shared
     randomized-platform one, so iid/convergence reuse each other's runs *)
  with_store ~cache_dir ~resume ~no_cache ~sync:cache_sync
    ~config:(Cs.collect_rand_config spec) ~runs ~resilient:false
  @@ fun store ->
  let rand = experiment ~config:P.Config.mbpta_compliant ~seed ~frames in
  let xs = collect_par ?trace ?store ~jobs:(resolve_jobs jobs) rand ~runs in
  with_valid_sample xs @@ fun () ->
  let c =
    M.Campaign.analysis_phase ?trace (fun () -> E.Convergence.study ~probability xs)
  in
  (match trace with
  | Some t ->
      M.Trace.Counters.add (M.Trace.counters t) "analysis.convergence_steps"
        (List.length c.E.Convergence.history);
      M.Trace.emit t
        (M.Trace.Convergence
           { converged = c.E.Convergence.converged; runs_used = c.E.Convergence.runs_used })
  | None -> ());
  Format.printf "%a@.@." E.Convergence.pp_result c;
  print_string (M.Ascii_plot.convergence_plot c.E.Convergence.history);
  0

let convergence_cmd =
  let probability =
    let doc = "Reference exceedance probability of the tracked estimate." in
    Arg.(value & opt float 1e-9 & info [ "probability" ] ~docv:"P" ~doc)
  in
  let doc = "study how the pWCET estimate stabilizes as runs accumulate" in
  Cmd.v
    (Cmd.info "convergence" ~doc)
    Term.(
      const convergence $ runs_arg $ seed_arg $ frames_arg $ probability $ jobs_arg
      $ trace_arg $ trace_level_arg $ cache_dir_arg $ resume_arg $ no_cache_arg
      $ cache_sync_arg)

(* ------------------------------ qualify ------------------------------ *)

let qualify algorithm draws seed trace_path trace_level =
  let config =
    [
      ("subcommand", "qualify");
      ("seed", Int64.to_string seed);
      ("draws", string_of_int draws);
    ]
  in
  with_trace ~path:trace_path ~level:trace_level ~config @@ fun trace ->
  let algorithms =
    match algorithm with
    | Some a -> [ a ]
    | None -> Prng.all_algorithms
  in
  List.iter
    (fun algorithm ->
      let prng = Prng.create ~algorithm seed in
      let verdicts = Quality.qualify ~alpha:0.001 ~draws prng in
      let passed = Quality.all_passed verdicts in
      (match trace with
      | Some t ->
          M.Trace.emit t
            (M.Trace.Note
               (Printf.sprintf "qualify %s: %s" (Prng.algorithm_name algorithm)
                  (if passed then "QUALIFIED" else "REJECTED")))
      | None -> ());
      Format.printf "%-14s %s@." (Prng.algorithm_name algorithm)
        (if passed then "QUALIFIED" else "REJECTED");
      List.iter (fun (n, v) -> Format.printf "  %-24s %a@." n Quality.pp_verdict v) verdicts)
    algorithms;
  0

let qualify_cmd =
  let algorithm =
    let algs =
      [
        ("xorshift128+", Prng.Xorshift128p);
        ("pcg32", Prng.Pcg32);
        ("lfsr64", Prng.Lfsr64);
        ("mwc32", Prng.Mwc32);
      ]
    in
    let doc = "Qualify only this generator (default: all)." in
    Arg.(value & opt (some (enum algs)) None & info [ "algorithm" ] ~docv:"ALG" ~doc)
  in
  let draws =
    let doc = "Draws per statistical test." in
    Arg.(value & opt int 20_000 & info [ "draws" ] ~docv:"N" ~doc)
  in
  let doc = "run the statistical qualification battery on the PRNGs" in
  Cmd.v (Cmd.info "qualify" ~doc)
    Term.(const qualify $ algorithm $ draws $ seed_arg $ trace_arg $ trace_level_arg)

(* -------------------------------- plot -------------------------------- *)

let plot runs seed frames tail qq trace_path trace_level =
  let spec = validated { Cs.default with runs; seed; frames; tail; no_gates = true } in
  let config =
    base_config ~subcommand:"plot" ~runs ~seed ~frames @ [ ("tail", Cs.tail_name tail) ]
  in
  with_trace ~path:trace_path ~level:trace_level ~config @@ fun trace ->
  let rand = experiment ~config:P.Config.mbpta_compliant ~seed ~frames in
  let xs = collect_par ?trace ~jobs:1 rand ~runs in
  (match M.Protocol.analyze ~options:(Cs.options spec) ?trace xs with
  | Ok a ->
      print_string (M.Ascii_plot.exceedance_plot a.M.Protocol.curve);
      if qq then begin
        let curve = a.M.Protocol.curve in
        let quantile =
          match Repro_evt.Pwcet.model curve with
          | Repro_evt.Pwcet.Gumbel_tail g -> Some (Repro_stats.Distribution.Gumbel.quantile g)
          | Repro_evt.Pwcet.Gev_tail g -> Some (Repro_stats.Distribution.Gev.quantile g)
          | Repro_evt.Pwcet.Pot_tail _ -> None
        in
        match quantile with
        | Some quantile ->
            let maxima =
              Repro_evt.Block_maxima.extract
                ~block_size:(Repro_evt.Pwcet.block_size curve)
                xs
            in
            print_newline ();
            print_string (M.Ascii_plot.qq_plot ~data:maxima ~quantile ())
        | None -> Format.printf "(QQ plot only available for block-maxima tails)@."
      end
  | Error f -> Format.printf "analysis failed: %a@." M.Protocol.pp_failure f);
  0

let plot_cmd =
  let qq =
    let doc = "Also print the quantile-quantile diagnostic of the tail fit." in
    Arg.(value & flag & info [ "qq" ] ~doc)
  in
  let doc = "print the Figure 2 exceedance plot for a fresh measurement set" in
  Cmd.v (Cmd.info "plot" ~doc)
    Term.(
      const plot $ runs_arg $ seed_arg $ frames_arg $ tail_arg $ qq $ trace_arg
      $ trace_level_arg)

(* -------------------------------- trace -------------------------------- *)

let trace_summary file =
  match M.Trace.read_file file with
  | Error e ->
      Format.eprintf "mbpta_cli: %s@." e;
      1
  | Ok events ->
      print_string (M.Trace.summarize events);
      0

let trace_cmd =
  let file_pos =
    let doc = "JSONL trace file produced with --trace." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let summary_cmd =
    let doc = "digest a trace: per-phase runs and timing, faults, verdicts, counters" in
    Cmd.v (Cmd.info "summary" ~doc) Term.(const trace_summary $ file_pos)
  in
  let doc = "inspect JSONL campaign traces" in
  Cmd.group (Cmd.info "trace" ~doc) [ summary_cmd ]

(* -------------------------------- cache -------------------------------- *)

(* Every cache subcommand shares one error contract: a nonexistent,
   unreadable or non-directory store path is a usage error (stderr + exit
   2), while an existing-but-empty directory is a valid empty store.  The
   wrapper also catches [Sys_error] raised while the body scans the
   directory, so a permission change between open and read degrades to the
   same shape instead of an uncaught exception. *)
let with_cache_root dir f =
  if not (Sys.file_exists dir) then usage_error "cache directory %s does not exist" dir;
  if not (Sys.is_directory dir) then usage_error "cache path %s is not a directory" dir;
  let root = try M.Store.open_root ~dir with Sys_error e -> usage_error "%s" e in
  try f root with Sys_error e -> usage_error "%s" e

let cache_ls dir =
  with_cache_root dir @@ fun root ->
  (* header-only listing: index sidecars stand in for the payload scan, so
     ls on a million-run store reads a few lines per record, not gigabytes;
     `cache verify` remains the full-validation pass *)
  let entries = M.Store.ls ~deep:false root in
  if entries = [] then print_endline "cache is empty"
  else
    List.iter (fun e -> Format.printf "%a@." M.Store.pp_entry e) entries;
  0

let cache_verify dir =
  with_cache_root dir @@ fun root ->
  let entries = M.Store.ls root in
  let bad =
    List.filter (fun e -> match e.M.Store.status with M.Store.Corrupt _ -> true | _ -> false) entries
  in
  List.iter (fun e -> Format.printf "%a@." M.Store.pp_entry e) entries;
  Format.printf "%d record%s, %d corrupt@." (List.length entries)
    (if List.length entries = 1 then "" else "s")
    (List.length bad);
  if bad = [] then 0 else 1

let cache_gc partial dir =
  with_cache_root dir @@ fun root ->
  let removed, freed = M.Store.gc ~partial root in
  List.iter (fun e -> Format.printf "removed %a@." M.Store.pp_entry e) removed;
  Format.printf "%d record%s removed, %d bytes freed@." (List.length removed)
    (if List.length removed = 1 then "" else "s")
    freed;
  0

let cache_merge trace_path trace_level sync dirs =
  match List.rev dirs with
  | [] | [ _ ] -> usage_error "cache merge expects SRC... DST (at least two directories)"
  | dst_dir :: rev_src_dirs ->
      let src_dirs = List.rev rev_src_dirs in
      (* sources must exist; the destination is created like --cache-dir *)
      List.iter
        (fun d ->
          if not (Sys.file_exists d) then
            usage_error "cache directory %s does not exist" d;
          if not (Sys.is_directory d) then usage_error "cache path %s is not a directory" d)
        src_dirs;
      let config =
        [ ("subcommand", "cache merge"); ("dst", dst_dir) ]
        @ List.mapi (fun i d -> (Printf.sprintf "src%d" i, d)) src_dirs
      in
      with_trace ~path:trace_path ~level:trace_level ~config @@ fun trace ->
      let open_root d = try M.Store.open_root ~dir:d with Sys_error e -> usage_error "%s" e in
      let src = List.map open_root src_dirs in
      let dst = open_root dst_dir in
      (match M.Store.merge ?trace ~sync ~src dst with
      | Error e -> usage_error "%s" e
      | Ok m ->
          Format.printf "merged %d record%s (%d chunk%s) into %s@." m.M.Store.records_merged
            (if m.M.Store.records_merged = 1 then "" else "s")
            m.M.Store.chunks_merged
            (if m.M.Store.chunks_merged = 1 then "" else "s")
            dst_dir;
          List.iter
            (fun (key, covered) ->
              Format.printf "  %s  contiguous coverage: %d run%s@." key covered
                (if covered = 1 then "" else "s"))
            m.M.Store.coverage;
          List.iter
            (fun (file, reason) -> Format.printf "  quarantined %s: %s@." file reason)
            m.M.Store.quarantined;
          List.iter
            (fun (file, reason) -> Format.printf "  skipped %s: %s@." file reason)
            m.M.Store.skipped;
          (* quarantining is graceful degradation, not failure: the merged
             record stays valid and `cache verify` reports the quarantine *)
          0)

let cache_export out dir skey =
  with_cache_root dir @@ fun root ->
  (* stream the record to the sink in bounded memory — export never holds
     more than one copy buffer of a million-run record at once *)
  let to_channel oc = M.Store.export_to root ~key:skey oc in
  match out with
  | None -> (
      match to_channel stdout with
      | Error e -> usage_error "%s" e
      | Ok () ->
          flush stdout;
          0)
  | Some path -> (
      let oc = try open_out_bin path with Sys_error e -> usage_error "%s" e in
      let r = to_channel oc in
      close_out oc;
      match r with
      | Error e ->
          (try Sys.remove path with Sys_error _ -> ());
          usage_error "%s" e
      | Ok () ->
          Format.printf "exported %s to %s@." skey path;
          0)

let cache_cmd =
  let dir_pos =
    let doc = "Store directory (the one passed to --cache-dir)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let ls_cmd =
    let doc = "list every record: key, run count, coverage, size, status" in
    Cmd.v (Cmd.info "ls" ~doc) Term.(const cache_ls $ dir_pos)
  in
  let verify_cmd =
    let doc =
      "fully validate every record (per-record checksums, chunk layout, content digest \
       vs filename); exit 1 if any record is corrupt"
    in
    Cmd.v (Cmd.info "verify" ~doc) Term.(const cache_verify $ dir_pos)
  in
  let gc_cmd =
    let partial =
      let doc =
        "Also remove partial (interrupted but resumable) records, not just corrupt \
         ones."
      in
      Arg.(value & flag & info [ "partial" ] ~doc)
    in
    let doc = "remove corrupt records (and, with --partial, interrupted ones)" in
    Cmd.v (Cmd.info "gc" ~doc) Term.(const cache_gc $ partial $ dir_pos)
  in
  let merge_cmd =
    let dirs_pos =
      let doc =
        "Source store directories followed by the destination (the last argument)."
      in
      Arg.(non_empty & pos_all string [] & info [] ~docv:"DIR" ~doc)
    in
    let doc =
      "merge shard stores: for every key, verify each candidate record's integrity \
       (quarantining any that fail — bit flips, truncation, foreign records), union \
       their chunks, and write the maximal contiguous record into DST atomically \
       (tmp+rename); byte-identical to a single-process record and idempotent"
    in
    Cmd.v (Cmd.info "merge" ~doc)
      Term.(const cache_merge $ trace_arg $ trace_level_arg $ cache_sync_arg $ dirs_pos)
  in
  let export_cmd =
    let key_pos =
      let doc = "Record key (the filename stem shown by `cache ls`)." in
      Arg.(required & pos 1 (some string) None & info [] ~docv:"KEY" ~doc)
    in
    let out =
      let doc = "Write to $(docv) instead of stdout." in
      Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
    in
    let doc =
      "print a record's verified content (meta line plus valid chunk lines, verbatim) \
       — the transport format for moving records between stores by hand"
    in
    Cmd.v (Cmd.info "export" ~doc) Term.(const cache_export $ out $ dir_pos $ key_pos)
  in
  let doc = "inspect and maintain the content-addressed measurement store" in
  Cmd.group (Cmd.info "cache" ~doc)
    [ ls_cmd; verify_cmd; gc_cmd; merge_cmd; export_cmd ]

(* ------------------------------- serve -------------------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on (client: connects to)." in
  Arg.(
    required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve socket cache_dir jobs max_queue max_clients trace_path trace_level =
  let jobs = resolve_jobs jobs in
  if max_queue < 0 then usage_error "--max-queue must be >= 0 (got %d)" max_queue;
  if max_clients < 1 then usage_error "--max-clients must be >= 1 (got %d)" max_clients;
  let config =
    [ ("subcommand", "serve"); ("socket", socket); ("cache_dir", cache_dir) ]
  in
  with_trace ~path:trace_path ~level:trace_level ~config @@ fun trace ->
  M.Shutdown.install ();
  let cfg =
    {
      Srv.Server.socket_path = socket;
      store_dir = cache_dir;
      jobs;
      max_queue;
      max_clients;
      trace;
    }
  in
  match Srv.Server.start cfg with
  | Error e -> usage_error "%s" e
  | Ok server ->
      Format.eprintf
        "mbpta serve: listening on %s (store %s, %d jobs, queue %d, %d clients)@." socket
        cache_dir jobs max_queue max_clients;
      Srv.Server.wait server;
      Format.eprintf "mbpta serve: drained (%s)@."
        (match M.Shutdown.reason () with Some r -> r | None -> "stopped");
      0

let serve_cmd =
  let cache_dir =
    let doc = "Store root the daemon records to and serves warm answers from." in
    Arg.(required & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let max_queue =
    let doc =
      "Cold campaigns allowed to wait behind the one in flight; further campaign \
       requests are rejected immediately with a typed overload response."
    in
    Arg.(value & opt int 8 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let max_clients =
    let doc = "Concurrent client connections; the rest are rejected, never queued." in
    Arg.(value & opt int 32 & info [ "max-clients" ] ~docv:"N" ~doc)
  in
  let doc = "run the campaign daemon (deduplicating, store-backed, drains on SIGTERM)" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket_arg $ cache_dir $ jobs_arg $ max_queue $ max_clients
      $ trace_arg $ trace_level_arg)

(* ------------------------------- client ------------------------------- *)

(* Report text goes to stdout (so CI can diff it against `analyze` byte
   for byte); serving metadata — how it was served, the per-request
   counters — goes to stderr where the smoke test greps it. *)
let client_render_counters counters =
  List.iter (fun (k, v) -> Format.eprintf "mbpta client: counter %s = %d@." k v) counters

let client socket action spec probability events =
  let spec = validated spec in
  let req =
    match action with
    | "campaign" -> Srv.Serve_protocol.Campaign { spec; events }
    | "pwcet" ->
        validate_probability probability;
        Srv.Serve_protocol.Query { spec; query = Srv.Serve_protocol.Pwcet probability }
    | "iid" -> Srv.Serve_protocol.Query { spec; query = Srv.Serve_protocol.Iid_verdict }
    | "status" -> Srv.Serve_protocol.Status
    | "shutdown" -> Srv.Serve_protocol.Shutdown
    | a -> usage_error "unknown action %s (expected campaign|pwcet|iid|status|shutdown)" a
  in
  let on_event e =
    Format.eprintf "mbpta client: event %s@."
      (M.Trace.Json.to_string (M.Trace.json_of_event e))
  in
  match Srv.Client.request ~on_event ~socket_path:socket req with
  | Error e ->
      Format.eprintf "mbpta client: %s@." e;
      1
  | Ok (Srv.Serve_protocol.Report { key; served; report; counters }) ->
      Format.eprintf "mbpta client: served %s (key %s)@."
        (Srv.Serve_protocol.served_name served)
        key;
      client_render_counters counters;
      print_string report;
      print_newline ();
      0
  | Ok (Srv.Serve_protocol.Answer { key; query; value; counters }) ->
      Format.eprintf "mbpta client: answered warm (key %s)@." key;
      client_render_counters counters;
      (match (query, value) with
      | Srv.Serve_protocol.Pwcet p, M.Trace.Json.Float v ->
          Format.printf "pWCET(%.3g) = %.17g cycles@." p v
      | _, v -> Format.printf "%s@." (M.Trace.Json.to_string v));
      0
  | Ok (Srv.Serve_protocol.Miss { key; reason }) ->
      Format.eprintf "mbpta client: miss for key %s: %s@." key reason;
      3
  | Ok (Srv.Serve_protocol.Rejected { reason; detail }) ->
      Format.eprintf "mbpta client: rejected (%s): %s@." reason detail;
      3
  | Ok
      (Srv.Serve_protocol.Status_report
        { queue_depth; in_flight; clients; max_queue; max_clients; counters }) ->
      Format.printf "queue %d/%d, in flight %d, clients %d/%d@." queue_depth max_queue
        in_flight clients max_clients;
      client_render_counters counters;
      0
  | Ok Srv.Serve_protocol.Shutdown_ack ->
      Format.printf "shutdown requested; the daemon drains and exits@.";
      0
  | Ok (Srv.Serve_protocol.Failed msg) ->
      Format.eprintf "mbpta client: request failed: %s@." msg;
      1
  | Ok (Srv.Serve_protocol.Event _) ->
      (* the client library consumes events; a trailing one is a protocol bug *)
      Format.eprintf "mbpta client: protocol error: dangling event line@.";
      1

let client_cmd =
  let action =
    let doc =
      "What to ask the daemon: campaign (full report, computed or warm), pwcet \
       (warm-only estimate at --probability), iid (warm-only i.i.d. verdict), status, \
       or shutdown."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ACTION" ~doc)
  in
  let probability =
    let doc = "Cutoff probability of the pwcet query." in
    Arg.(value & opt float 1e-9 & info [ "probability" ] ~docv:"P" ~doc)
  in
  let events =
    let doc = "Stream the campaign's trace events to stderr while it computes." in
    Arg.(value & flag & info [ "events" ] ~doc)
  in
  let doc = "send one request to a running [mbpta serve] daemon" in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const client $ socket_arg $ action $ spec_term $ probability $ events)

(* ------------------------------- shuffle ------------------------------- *)

(* One campaign per schedule-randomization policy: measure worst-case task
   response times under the randomized schedule, analyze them like any
   other MBPTA sample, and report schedule-diversity metrics next to the
   pWCET impact.  Every schedule derives from [Experiment.schedule_seed],
   a pure function of [(base_seed, run_index)], so the whole subcommand is
   bit-identical at any --jobs. *)
let shuffle runs seed frames tail no_gates jobs period max_jitter horizon context_switch
    policies trace_path trace_level =
  let jobs = resolve_jobs jobs in
  let spec = validated { Cs.default with runs; seed; frames; tail; no_gates } in
  if period < 1 then usage_error "--period must be >= 1 (got %d)" period;
  if max_jitter < 0 then usage_error "--max-jitter must be >= 0 (got %d)" max_jitter;
  if horizon < period then
    usage_error "--horizon must cover at least one period (got %d < %d)" horizon period;
  if context_switch < 0 then
    usage_error "--context-switch must be >= 0 (got %d)" context_switch;
  let policies = match policies with [] -> T.Rtos.all_policies | ps -> ps in
  let config =
    base_config ~subcommand:"shuffle" ~runs ~seed ~frames
    @ [
        ("tail", Cs.tail_name tail);
        ("period", string_of_int period);
        ("max_jitter", string_of_int max_jitter);
        ("horizon", string_of_int horizon);
        ("policies", String.concat "," (List.map T.Rtos.policy_name policies));
      ]
  in
  with_trace ~path:trace_path ~level:trace_level ~config @@ fun trace ->
  let exp = experiment ~config:P.Config.mbpta_compliant ~seed ~frames in
  let options = Cs.options spec in
  let campaign policy =
    let name = T.Rtos.policy_name policy in
    let phase = "shuffle_" ^ name in
    (match trace with Some t -> M.Trace.phase_start t phase | None -> ());
    let results =
      M.Parallel.init ?trace ~jobs runs (fun i ->
          T.Experiment.run_schedule exp ~context_switch ~policy ~period ~max_jitter
            ~horizon ~run_index:i ())
    in
    let sample = Array.map (fun r -> r.T.Experiment.worst_response) results in
    let rnd =
      T.Rtos.randomization_of_signatures
        (Array.to_list (Array.map (fun r -> r.T.Experiment.signature) results))
    in
    (match trace with
    | Some t ->
        M.Trace.emit_sample t ~phase sample;
        let c = M.Trace.counters t in
        let add k v = M.Trace.Counters.add c (Printf.sprintf "shuffle.%s.%s" name k) v in
        add "runs" rnd.T.Rtos.schedules;
        add "distinct_schedules" rnd.T.Rtos.distinct;
        add "entropy_millibits"
          (int_of_float (Float.round (rnd.T.Rtos.entropy_bits *. 1000.)));
        add "vulnerability_ppm"
          (int_of_float (Float.round (rnd.T.Rtos.vulnerability *. 1e6)));
        Array.iter
          (fun r ->
            add "preemptions" r.T.Experiment.preemptions;
            add "skipped_releases" r.T.Experiment.skipped_releases)
          results;
        M.Trace.phase_end t phase
    | None -> ());
    let analysis =
      M.Campaign.analysis_phase ?trace (fun () ->
          M.Protocol.analyze ~options ~jobs ?trace sample)
    in
    let pwcet_at_1e6, analysis_note =
      match analysis with
      | Ok a ->
          (Some (E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:1e-6), None)
      | Error f -> (None, Some (Format.asprintf "%a" M.Protocol.pp_failure f))
    in
    ( analysis,
      {
        M.Report.policy = name;
        summary = Repro_stats.Descriptive.summarize sample;
        pwcet_at_1e6;
        analysis_note;
        schedules = rnd.T.Rtos.schedules;
        distinct_schedules = rnd.T.Rtos.distinct;
        entropy_bits = rnd.T.Rtos.entropy_bits;
        vulnerability = rnd.T.Rtos.vulnerability;
      } )
  in
  let outcomes = List.map campaign policies in
  print_endline (M.Report.render_shuffle (List.map snd outcomes));
  if List.for_all (fun (a, _) -> Result.is_ok a) outcomes then 0 else 1

let shuffle_cmd =
  let period =
    let doc = "Release period of the three TVCA tasks, cycles." in
    Arg.(value & opt int 60_000 & info [ "period" ] ~docv:"CYCLES" ~doc)
  in
  let max_jitter =
    let doc = "Upper bound of the per-task release delay drawn by the jitter policy." in
    Arg.(value & opt int 2_000 & info [ "max-jitter" ] ~docv:"CYCLES" ~doc)
  in
  let horizon =
    let doc = "Cycles simulated per run (jobs in flight at the horizon are abandoned)." in
    Arg.(value & opt int 240_000 & info [ "horizon" ] ~docv:"CYCLES" ~doc)
  in
  let context_switch =
    let doc = "Cycles charged whenever the running job changes." in
    Arg.(value & opt int 40 & info [ "context-switch" ] ~docv:"CYCLES" ~doc)
  in
  let policies =
    let policy =
      Arg.conv
        ( (fun s -> Result.map_error (fun e -> `Msg e) (T.Rtos.policy_of_string s)),
          fun ppf p -> Format.pp_print_string ppf (T.Rtos.policy_name p) )
    in
    let doc =
      "Run only this schedule-randomization policy (repeatable): fixed, shuffle or \
       jitter.  Default: all three."
    in
    Arg.(value & opt_all policy [] & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let doc =
    "campaign per schedule-randomization policy: pWCET impact + schedule entropy"
  in
  Cmd.v (Cmd.info "shuffle" ~doc)
    Term.(
      const shuffle $ runs_arg $ seed_arg $ frames_arg $ tail_arg $ no_gates_arg
      $ jobs_arg $ period $ max_jitter $ horizon $ context_switch $ policies $ trace_arg
      $ trace_level_arg)

(* -------------------------------- leak --------------------------------- *)

(* Two-sample timing-leak comparator (dudect-style): collect two campaigns
   — each either varying its input scenario per run ("random class") or
   pinning it to one scenario index (a "fixed class", the secret-dependent
   variant) on a DET or RAND platform — and test whether their
   execution-time means are distinguishable (Welch's t) and by how much
   (Cohen's d).  The canonical protocols: two fixed classes with different
   indices on DET expose the input through timing; the same pair on RAND
   shows the randomized platform masking it. *)
let leak runs seed seed_b frames alpha platform_a platform_b fixed_a fixed_b jobs
    trace_path trace_level =
  let jobs = resolve_jobs jobs in
  ignore (sample_spec ~runs ~seed ~frames);
  if runs < 2 then usage_error "--runs must be >= 2 for a two-sample test (got %d)" runs;
  if not (alpha > 0. && alpha < 1.) then
    usage_error "--alpha must lie in (0, 1) (got %g)" alpha;
  (match (fixed_a, fixed_b) with
  | Some i, _ when i < 0 -> usage_error "--fixed-input-a must be >= 0 (got %d)" i
  | _, Some i when i < 0 -> usage_error "--fixed-input-b must be >= 0 (got %d)" i
  | _ -> ());
  let seed_b = match seed_b with Some s -> s | None -> seed in
  let platform_config = function
    | "det" -> P.Config.deterministic
    | "rand" -> P.Config.mbpta_compliant
    | p -> usage_error "unknown platform %s (expected det|rand)" p
  in
  let label platform fixed s =
    Printf.sprintf "%s/%s/seed=%Ld" platform
      (match fixed with
      | Some i -> Printf.sprintf "input-%d" i
      | None -> "varying-input")
      s
  in
  let config =
    base_config ~subcommand:"leak" ~runs ~seed ~frames
    @ [
        ("alpha", string_of_float alpha);
        ("a", label platform_a fixed_a seed);
        ("b", label platform_b fixed_b seed_b);
      ]
  in
  with_trace ~path:trace_path ~level:trace_level ~config @@ fun trace ->
  let collect which ~platform ~fixed ~seed =
    let exp = experiment ~config:(platform_config platform) ~seed ~frames in
    M.Campaign.collect_phase ?trace ~jobs ~phase:("leak_" ^ which) runs
      (match fixed with
      | Some scenario_index ->
          fun i -> T.Experiment.measure_fixed_scenario exp ~scenario_index ~run_index:i
      | None ->
          Cs.measure ?counters:(Option.map M.Trace.counters trace) exp ~prefix:(which ^ "."))
  in
  let xs = collect "a" ~platform:platform_a ~fixed:fixed_a ~seed in
  let ys = collect "b" ~platform:platform_b ~fixed:fixed_b ~seed:seed_b in
  let verdict =
    M.Campaign.analysis_phase ?trace (fun () ->
        M.Report.leak_verdict ~alpha ~label_a:(label platform_a fixed_a seed)
          ~label_b:(label platform_b fixed_b seed_b)
          xs ys)
  in
  (match trace with
  | Some t ->
      let c = M.Trace.counters t in
      M.Trace.Counters.add c "leak.detected" (if verdict.M.Report.leak then 1 else 0);
      M.Trace.Counters.add c "leak.p_ppm"
        (int_of_float
           (Float.round (verdict.M.Report.welch.Repro_stats.Welch.p_value *. 1e6)))
  | None -> ());
  print_endline (M.Report.render_leak verdict);
  0

let leak_cmd =
  let seed_b =
    let doc =
      "Base seed of campaign B (default: the same --seed; give a different one to \
       compare two independent samplings of the same configuration)."
    in
    Arg.(value & opt (some int64) None & info [ "seed-b" ] ~docv:"SEED" ~doc)
  in
  let alpha =
    let doc = "Significance level of the Welch test (reject equal means below it)." in
    Arg.(value & opt float 0.05 & info [ "alpha" ] ~docv:"ALPHA" ~doc)
  in
  let platform = Arg.enum [ ("det", "det"); ("rand", "rand") ] in
  let platform_a =
    let doc = "Platform of campaign A: det or rand." in
    Arg.(value & opt platform "rand" & info [ "platform-a" ] ~docv:"PLATFORM" ~doc)
  in
  let platform_b =
    let doc = "Platform of campaign B: det or rand." in
    Arg.(value & opt platform "rand" & info [ "platform-b" ] ~docv:"PLATFORM" ~doc)
  in
  let fixed_a =
    let doc =
      "Pin campaign A's input scenario to index $(docv) (a secret-dependent class); \
       platform randomization still varies per run.  Default: a fresh scenario per \
       run (the random class)."
    in
    Arg.(value & opt (some int) None & info [ "fixed-input-a" ] ~docv:"INDEX" ~doc)
  in
  let fixed_b =
    let doc = "Pin campaign B's input scenario to index $(docv)." in
    Arg.(value & opt (some int) None & info [ "fixed-input-b" ] ~docv:"INDEX" ~doc)
  in
  let doc = "two-campaign timing-leak test (Welch's t + Cohen's d, typed verdict)" in
  Cmd.v (Cmd.info "leak" ~doc)
    Term.(
      const leak $ runs_arg $ seed_arg $ seed_b $ frames_arg $ alpha $ platform_a
      $ platform_b $ fixed_a $ fixed_b $ jobs_arg $ trace_arg $ trace_level_arg)

(* -------------------------------- main -------------------------------- *)

let () =
  let doc =
    "measurement-based probabilistic timing analysis on a time-randomized platform"
  in
  let info = Cmd.info "mbpta_cli" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        analyze_cmd;
        iid_cmd;
        convergence_cmd;
        qualify_cmd;
        plot_cmd;
        shuffle_cmd;
        leak_cmd;
        trace_cmd;
        cache_cmd;
        serve_cmd;
        client_cmd;
      ]
  in
  exit (Cmd.eval' group)
