module Platform = Repro_platform
module Isa = Repro_isa
module Profile = Repro_profile

type t = {
  frames : int;
  gains : Controller.gains;
  contenders : float list;
  config : Platform.Config.t;
  base_seed : int64;
  program : Isa.Program.t;
  layout : Isa.Layout.t;
  decoded : Isa.Executor.Decoded.t;
}

(* ---- per-run seed derivation -----------------------------------------

   Every seed below is a {e pure function} of [(base_seed, run_index,
   attempt)]: derivation creates a fresh Splitmix stream per call and never
   threads a shared mutable [Prng.t] across runs.  This is the property the
   parallel campaign layer ({!Repro_mbpta.Parallel}) relies on — runs can
   execute in any order, on any domain, and still see exactly the seeds the
   sequential campaign would have handed them.  When auditing a new
   measurement site, route it through {!scenario_seed}, {!platform_seed} or
   {!fault_seed} instead of drawing from a long-lived generator. *)

(* Derive independent per-run seeds for scenario (stream 0) and platform
   (stream 1): one splitmix stream per run, indexed in counter mode. *)
let derive_seed base run stream =
  let sm = Repro_rng.Splitmix.create base in
  (* O(1) counter-mode jump: [Splitmix.skip] lands on exactly the state
     that [(run * 2) + stream] discarded draws would have reached, so seeds
     are bit-identical to the retired draw-and-ignore loop at any index. *)
  Repro_rng.Splitmix.skip sm ((run * 2) + stream);
  Repro_rng.Splitmix.next sm

(* Fault-injection stream: a salted family so the scenario/platform streams
   above are untouched (bit-identical seeds when injection is off). *)
let fault_salt = 0x5851F42D4C957F2DL

let derive_fault_seed base run = derive_seed (Int64.logxor base fault_salt) run 0

(* Retry reseed policy: attempt 0 is the canonical run; attempt [a > 0]
   re-derives the platform and fault streams from a salted base while the
   scenario (the run's input) stays fixed — a retry repeats the same
   measurement under fresh randomization, deterministically. *)
let retry_salt = 0x14057B7EF767814FL

let attempt_base base ~attempt =
  if attempt = 0 then base
  else
    Repro_rng.Splitmix.next
      (Repro_rng.Splitmix.create
         (Int64.logxor base (Int64.mul (Int64.of_int attempt) retry_salt)))

(* Schedule-randomization stream: its own salted family, so adding shuffle
   campaigns leaves every existing seed (and measurement) untouched. *)
let schedule_salt = 0x9E3779B97F4A7C15L

let derive_schedule_seed base run = derive_seed (Int64.logxor base schedule_salt) run 0

(* ---- decode cache ----------------------------------------------------

   TVCA codegen is a pure function of (variant, gains, frames) — the
   platform config and seeds never touch the program text — so the
   generated program, its sequential layout and the pre-decoded executable
   form are shared process-wide across experiments (the DET and RAND
   experiments of one campaign always share one entry).  Guarded by a
   mutex: create-time only, never on the per-run path. *)

type codegen_key = {
  key_frames : int;
  key_gains : Controller.gains;
  key_variant : Codegen.variant;
}

type decode_entry = {
  de_value : Isa.Program.t * Isa.Layout.t * Isa.Executor.Decoded.t;
  mutable de_stamp : int;  (* recency: the logical clock at last use *)
}

let decode_cache : (codegen_key, decode_entry) Hashtbl.t = Hashtbl.create 8
let decode_cache_mutex = Mutex.create ()
let decode_cache_clock = ref 0

(* A long-lived process (the [mbpta serve] daemon) sees an unbounded
   stream of distinct (frames, gains, variant) configs; without a cap
   every one of them would pin a decoded program forever.  The default
   cap comfortably covers a campaign's working set (one entry per config;
   the DET and RAND experiments share it) while bounding the daemon. *)
let default_decode_cache_capacity = 32
let decode_cache_capacity_v = ref default_decode_cache_capacity
let decode_cache_hits = Atomic.make 0
let decode_cache_misses = Atomic.make 0

let decode_cache_stats () =
  (Atomic.get decode_cache_hits, Atomic.get decode_cache_misses)

(* Callers hold [decode_cache_mutex]. *)
let decode_cache_evict_to cap =
  while Hashtbl.length decode_cache > cap do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.de_stamp -> acc
          | _ -> Some (k, e.de_stamp))
        decode_cache None
    in
    match victim with
    | Some (k, _) -> Hashtbl.remove decode_cache k
    | None -> ()
  done

let decode_cache_size () =
  Mutex.lock decode_cache_mutex;
  let n = Hashtbl.length decode_cache in
  Mutex.unlock decode_cache_mutex;
  n

let decode_cache_capacity () = !decode_cache_capacity_v

let set_decode_cache_capacity cap =
  if cap < 1 then invalid_arg "Experiment.set_decode_cache_capacity: cap must be >= 1";
  Mutex.lock decode_cache_mutex;
  decode_cache_capacity_v := cap;
  decode_cache_evict_to cap;
  Mutex.unlock decode_cache_mutex

let decoded_program ~variant ~gains ~frames =
  let key = { key_frames = frames; key_gains = gains; key_variant = variant } in
  Mutex.lock decode_cache_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock decode_cache_mutex)
    (fun () ->
      incr decode_cache_clock;
      match Hashtbl.find_opt decode_cache key with
      | Some entry ->
          Atomic.incr decode_cache_hits;
          entry.de_stamp <- !decode_cache_clock;
          entry.de_value
      | None ->
          Atomic.incr decode_cache_misses;
          let program =
            Profile.time Profile.Codegen (fun () ->
                Codegen.program ~variant ~gains ~frames ())
          in
          let layout = Isa.Layout.sequential program in
          let decoded =
            Profile.time Profile.Decode (fun () ->
                Isa.Executor.Decoded.decode ~program ~layout)
          in
          let entry = { de_value = (program, layout, decoded); de_stamp = !decode_cache_clock } in
          Hashtbl.replace decode_cache key entry;
          (* Evicting the least-recently-used entry only ever drops cache
             references; live experiments keep their own reference to the
             decoded triple, so eviction is invisible to them. *)
          decode_cache_evict_to !decode_cache_capacity_v;
          entry.de_value)

let create ?(frames = Mission.default_frames) ?(gains = Controller.default_gains)
    ?(variant = Codegen.Full) ?(contenders = []) ~config ~base_seed () =
  let program, layout, decoded = decoded_program ~variant ~gains ~frames in
  { frames; gains; contenders; config; base_seed; program; layout; decoded }

let config t = t.config
let program t = t.program
let layout t = t.layout

let with_layout t layout =
  (* A custom layout (shifted/scrambled path studies) gets its own decode;
     only the canonical sequential layout is served from the cache. *)
  let decoded =
    Profile.time Profile.Decode (fun () ->
        Isa.Executor.Decoded.decode ~program:t.program ~layout)
  in
  { t with layout; decoded }

(* The three published seed families (see the audit note above). *)
let scenario_seed t ~run_index = derive_seed t.base_seed run_index 0

let platform_seed t ~run_index ~attempt =
  derive_seed (attempt_base t.base_seed ~attempt) run_index 1

let fault_seed t ~run_index ~attempt =
  derive_fault_seed (attempt_base t.base_seed ~attempt) run_index

let schedule_seed t ~run_index = derive_schedule_seed t.base_seed run_index

(* ---- batched scratch -------------------------------------------------

   The unit of scheduling upstream stays the per-run closure (chunk layout,
   store checkpoints and shard spans are untouched), but consecutive runs
   on one domain reuse a per-(domain, experiment) scratch — one simulator
   instance, one memory image, one linked runner — amortizing simulator and
   memory construction and program decode across the whole batch.  Each run
   still gets the full per-run protocol (fresh seeds via {!Core_sim.reseed},
   flush via [reset_run], zeroed and reloaded memory), which gives the same
   bits a fresh simulator and memory image would.  Every entry point below
   goes through it; none builds a simulator or memory image per run.

   Domain-local storage means no shared mutable hot state between domains;
   the slot list is a tiny move-to-front LRU keyed by experiment identity,
   capped so long-lived domains running many experiments (test suites)
   don't accumulate dead simulators.

   The scratch also owns one set of mission buffers.  Each run generates
   its scenario into them, so the mission a run sees is valid until the
   scratch's next run.  [s_scenario] remembers the seed the buffers hold
   and the mission made from it: a run asking for that same seed again (a
   retry keeps its scenario, a pinned-input leak run keeps its input)
   skips generation. *)

type scratch = {
  s_core : Platform.Core_sim.t;
  s_memory : Isa.Memory.t;
  s_runner : Isa.Executor.Decoded.Runner.t;
  s_buffers : Mission.buffers;
  mutable s_scenario : (int64 * Mission.t) option;
}

let max_scratch_slots = 8

let scratch_slots : (t * scratch) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let scratches_created = Atomic.make 0
let batched_reuses = Atomic.make 0
let batch_stats () = (Atomic.get scratches_created, Atomic.get batched_reuses)

let scratch_for t =
  let slots = Domain.DLS.get scratch_slots in
  match !slots with
  | (t', s) :: _ when t' == t ->
      (* fast path: the batch's experiment is already at the front *)
      Atomic.incr batched_reuses;
      s
  | existing -> (
      match List.assq_opt t existing with
      | Some s ->
          Atomic.incr batched_reuses;
          slots := (t, s) :: List.filter (fun (t', _) -> t' != t) existing;
          s
      | None ->
          Atomic.incr scratches_created;
          let memory = Isa.Memory.create t.program in
          let runner =
            Isa.Executor.Decoded.Runner.create ~decoded:t.decoded ~memory ()
          in
          (* The seed is a placeholder: every run reseeds before executing. *)
          let core =
            Platform.Core_sim.create ~contenders:t.contenders ~config:t.config
              ~seed:0L ()
          in
          let s =
            {
              s_core = core;
              s_memory = memory;
              s_runner = runner;
              s_buffers = Mission.buffers ~frames:t.frames;
              s_scenario = None;
            }
          in
          let kept =
            if List.length existing >= max_scratch_slots then
              List.filteri (fun i _ -> i < max_scratch_slots - 1) existing
            else existing
          in
          slots := (t, s) :: kept;
          s)

(* Scenario [scenario_index] in the scratch's mission buffers. *)
let scratch_mission t s ~scenario_index =
  let seed = scenario_seed t ~run_index:scenario_index in
  match s.s_scenario with
  | Some (held, sc) when Int64.equal held seed -> sc
  | Some _ | None ->
      let sc = Mission.generate_into ~gains:t.gains s.s_buffers ~seed in
      s.s_scenario <- Some (seed, sc);
      sc

(* The per-run protocol on this domain's scratch, one profile stage per
   step: generate scenario [scenario_index] (the run's own scenario except
   for fixed-input runs), zero the memory image and load the scenario into
   it, derive the platform seed and reseed the platform streams.  A timed
   run then calls [run_decoded], which performs the flush cascade
   ([reset_run]) and resets the runner itself. *)
let prepare_run t ~scenario_index ~run_index ~attempt =
  let s = scratch_for t in
  let sc = Profile.time Profile.Scenario (fun () -> scratch_mission t s ~scenario_index) in
  Profile.time Profile.Reload (fun () ->
      Isa.Memory.clear s.s_memory;
      Mission.load_memory sc s.s_memory);
  Profile.time Profile.Reseed (fun () ->
      Platform.Core_sim.reseed s.s_core ~seed:(platform_seed t ~run_index ~attempt));
  (s, sc)

let run t ~run_index =
  let s, _ = prepare_run t ~scenario_index:run_index ~run_index ~attempt:0 in
  Platform.Core_sim.run_decoded s.s_core ~runner:s.s_runner

let measure t ~run_index = float_of_int (Platform.Metrics.cycles (run t ~run_index))

(* ---- randomized-schedule runs ---------------------------------------- *)

type schedule_run = {
  worst_response : float;
  signature : string;
  preemptions : int;
  skipped_releases : int;
}

let run_schedule t ?(context_switch = 40) ~policy ~period ~max_jitter ~horizon
    ~run_index () =
  let tasks =
    Rtos.apply_policy policy ~seed:(schedule_seed t ~run_index) ~max_jitter
      (Rtos.tvca_tasks ~period ())
  in
  let s, _ = prepare_run t ~scenario_index:run_index ~run_index ~attempt:0 in
  Platform.Core_sim.reset_run s.s_core;
  let r =
    Rtos.run_linked ~context_switch ~frames:t.frames ~core:s.s_core ~program:t.program
      ~runner:s.s_runner ~tasks ~horizon ()
  in
  let worst_response =
    List.fold_left
      (fun acc (tr : Rtos.task_result) -> Array.fold_left Float.max acc tr.response_times)
      0. r.Rtos.per_task
  in
  let skipped_releases =
    List.fold_left
      (fun acc (tr : Rtos.task_result) -> acc + tr.Rtos.skipped_releases)
      0 r.Rtos.per_task
  in
  {
    worst_response;
    signature = Rtos.schedule_signature tasks;
    preemptions = r.Rtos.preemptions;
    skipped_releases;
  }

(* ---- fixed-input runs (timing-leak detection) ------------------------ *)

let measure_fixed_scenario t ~scenario_index ~run_index =
  (* The scenario (the "secret" input) is pinned to [scenario_index] while
     the platform randomization still varies with [run_index] — on a
     time-randomized platform the resulting sample should be statistically
     indistinguishable from any other input's; on a deterministic platform
     the input shows through as a timing leak. *)
  let s, _ = prepare_run t ~scenario_index ~run_index ~attempt:0 in
  float_of_int
    (Platform.Metrics.cycles (Platform.Core_sim.run_decoded s.s_core ~runner:s.s_runner))

(* ---- fault-injected, supervised runs ---- *)

type fault_config = {
  seu_rate : float;
  watchdog_budget : int option;
  output_tolerance : float;
}

let fault_config ?(seu_rate = 0.) ?watchdog_budget ?(output_tolerance = 1e-9) () =
  if seu_rate < 0. then invalid_arg "Experiment.fault_config: seu_rate must be >= 0";
  (match watchdog_budget with
  | Some b when b < 1 -> invalid_arg "Experiment.fault_config: watchdog_budget must be >= 1"
  | Some _ | None -> ());
  { seu_rate; watchdog_budget; output_tolerance }

type fault_outcome =
  | Completed of { metrics : Platform.Metrics.t; faults : Platform.Fault.record list }
  | Watchdog of { cycles : int; budget : int; faults : Platform.Fault.record list }
  | Runaway of { program : string; faults : Platform.Fault.record list }
  | Crashed of { detail : string; faults : Platform.Fault.record list }
  | Corrupted of { worst_error : float; faults : Platform.Fault.record list }

let output_error t sc memory =
  let got_x = Isa.Memory.read_array memory Codegen.sym_cmd_x in
  let got_y = Isa.Memory.read_array memory Codegen.sym_cmd_y in
  let worst = ref 0. in
  for k = 0 to t.frames - 1 do
    let err_x = Float.abs (got_x.(k) -. sc.Mission.expected_cmd_x.(k)) in
    let err_y = Float.abs (got_y.(k) -. sc.Mission.expected_cmd_y.(k)) in
    let err = Float.max err_x err_y in
    (* a NaN output is corrupt however it compares *)
    if Float.is_nan err then worst := Float.infinity
    else worst := Float.max !worst err
  done;
  !worst

let classify t ~fault ~faults ~sc ~memory outcome =
  match outcome with
  | Error (Platform.Core_sim.Budget_exceeded { cycles; budget }) ->
      Watchdog { cycles; budget; faults = faults () }
  | Error (Isa.Executor.Runaway program) -> Runaway { program; faults = faults () }
  | Error (Invalid_argument detail) -> Crashed { detail; faults = faults () }
  | Error (Isa.Executor.Stack_overflow_ program) ->
      Crashed { detail = "stack overflow in " ^ program; faults = faults () }
  | Error e -> raise e
  | Ok metrics ->
      let worst_error = output_error t sc memory in
      if worst_error > fault.output_tolerance then
        Corrupted { worst_error; faults = faults () }
      else Completed { metrics; faults = faults () }

let run_faulty t ~fault ?(attempt = 0) ~run_index () =
  if attempt < 0 then invalid_arg "Experiment.run_faulty: attempt must be >= 0";
  let s, sc = prepare_run t ~scenario_index:run_index ~run_index ~attempt in
  let injector =
    Platform.Fault.create ~rate:fault.seu_rate ~seed:(fault_seed t ~run_index ~attempt)
  in
  let faults () = Platform.Fault.records injector in
  let outcome =
    match
      Platform.Core_sim.run_decoded_faulty s.s_core ~injector
        ?watchdog_budget:fault.watchdog_budget ~runner:s.s_runner ()
    with
    | metrics -> Ok metrics
    | exception e -> Error e
  in
  classify t ~fault ~faults ~sc ~memory:s.s_memory outcome

let fault_records = function
  | Completed { faults; _ }
  | Watchdog { faults; _ }
  | Runaway { faults; _ }
  | Crashed { faults; _ }
  | Corrupted { faults; _ } ->
      faults

let pp_fault_outcome ppf = function
  | Completed { metrics; faults } ->
      Format.fprintf ppf "completed in %d cycles (%d SEUs)"
        (Platform.Metrics.cycles metrics) (List.length faults)
  | Watchdog { cycles; budget; faults } ->
      Format.fprintf ppf "watchdog fired at %d cycles (budget %d, %d SEUs)" cycles budget
        (List.length faults)
  | Runaway { program; faults } ->
      Format.fprintf ppf "runaway execution of %s (%d SEUs)" program (List.length faults)
  | Crashed { detail; faults } ->
      Format.fprintf ppf "crashed: %s (%d SEUs)" detail (List.length faults)
  | Corrupted { worst_error; faults } ->
      Format.fprintf ppf "output corrupted (worst error %g, %d SEUs)" worst_error
        (List.length faults)

let collect t ~runs = Array.init runs (fun i -> measure t ~run_index:i)

(* The untimed entry points: the same per-run protocol, then the scratch
   runner from its entry without a timing sink. *)
let untimed_runner t ~run_index =
  let s, sc = prepare_run t ~scenario_index:run_index ~run_index ~attempt:0 in
  Isa.Executor.Decoded.Runner.reset s.s_runner;
  (s, sc)

let path_signature t ~run_index =
  let s, _ = untimed_runner t ~run_index in
  Isa.Executor.Decoded.Runner.path_signature s.s_runner

let check_functional t ~run_index =
  let s, sc = untimed_runner t ~run_index in
  let (_ : Isa.Executor.stats) =
    Isa.Executor.Decoded.Runner.run s.s_runner ~sink:(Isa.Executor.no_timing ())
  in
  output_error t sc s.s_memory
