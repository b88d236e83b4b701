module Isa = Repro_isa
module Platform = Repro_platform
module Prng = Repro_rng.Prng
module Runner = Isa.Executor.Decoded.Runner

type task_spec = {
  name : string;
  entry : string;
  priority : int;
  period : int;
  offset : int;
}

type task_result = {
  spec : task_spec;
  response_times : float array;
  activations : int;
  skipped_releases : int;
}

type t = {
  per_task : task_result list;
  total_cycles : int;
  preemptions : int;
  idle_cycles : int;
}

(* Mutable per-task scheduling state.  Each task owns one runner (all of
   them share one linked program) and restarts it at the task's entry for
   every released job. *)
type task_state = {
  spec_ : task_spec;
  runner : Runner.t;
  entry_pc : int;
  mutable in_flight : bool;  (* a released job has not finished yet *)
  mutable released_at : int;  (* release time of the in-flight job *)
  mutable next_release : int;
  mutable activation : int;  (* index of the next activation to release *)
  mutable responses : float list;  (* reversed *)
  mutable skipped : int;
}

let run_linked ?(context_switch = 40) ?(frames = Mission.default_frames) ~core ~program
    ~runner ~tasks ~horizon () =
  (* [sort_uniq] silently merges duplicates — the length check turns that
     into a typed rejection: duplicate priorities make the fixed-priority
     order ambiguous, and shuffle policies must not inherit ambiguity. *)
  (match
     List.sort_uniq Int.compare (List.map (fun (s : task_spec) -> s.priority) tasks)
   with
  | unique when List.length unique <> List.length tasks ->
      invalid_arg "Rtos.run: duplicate priorities make the schedule ambiguous"
  | _ -> ());
  (* validate every task and look up its entry label once *)
  let entries =
    tasks
    |> List.map (fun (s : task_spec) ->
           if s.period <= 0 || s.offset < 0 then invalid_arg "Rtos.run: bad period/offset";
           (s, Isa.Program.label_index program s.entry))
    |> List.sort (fun ((a : task_spec), _) ((b : task_spec), _) ->
           Int.compare a.priority b.priority)
  in
  let states =
    List.map
      (fun (spec_, entry_pc) ->
        {
          spec_;
          runner = Runner.sibling runner;
          entry_pc;
          in_flight = false;
          released_at = 0;
          next_release = spec_.offset;
          activation = 0;
          responses = [];
          skipped = 0;
        })
      entries
  in
  let sink = Platform.Core_sim.sink core in
  let now () = Platform.Core_sim.cycles core in
  let preemptions = ref 0 in
  let idle_cycles = ref 0 in
  let last_running : task_state option ref = ref None in
  (* Release every job whose time has come; a release finding the previous
     job still in flight is an overrun: counted and dropped. *)
  let release_pending () =
    List.iter
      (fun st ->
        while st.next_release <= now () do
          if st.in_flight then st.skipped <- st.skipped + 1
          else begin
            Runner.restart st.runner ~pc:st.entry_pc
              ~regs:[ (10, st.activation mod frames) ];
            st.in_flight <- true;
            st.released_at <- st.next_release;
            st.activation <- st.activation + 1
          end;
          st.next_release <- st.next_release + st.spec_.period
        done)
      states
  in
  let rec earliest_release = function
    | [] -> max_int
    | st :: rest -> Stdlib.min st.next_release (earliest_release rest)
  in
  let rec highest_ready = function
    | [] -> None
    | st :: rest -> if st.in_flight then Some st else highest_ready rest
  in
  let continue = ref true in
  while !continue && now () < horizon do
    release_pending ();
    match highest_ready states with
    | None ->
        (* idle until the next release (or the horizon) *)
        let wake = Stdlib.min horizon (earliest_release states) in
        let gap = Stdlib.max 1 (wake - now ()) in
        idle_cycles := !idle_cycles + gap;
        Platform.Core_sim.advance core gap;
        if wake >= horizon then continue := false
    | Some st ->
        (match !last_running with
        | Some prev when prev != st ->
            (* the running job changed: charge the context switch, and if the
               displaced job is still in flight this was a preemption *)
            if prev.in_flight then incr preemptions;
            Platform.Core_sim.advance core context_switch
        | Some _ -> ()
        | None -> Platform.Core_sim.advance core context_switch);
        last_running := Some st;
        (* Only a release can preempt [st], so step it until it finishes
           or the clock reaches the next release (or the horizon) instead
           of re-scanning both lists after every instruction. *)
        let limit = Stdlib.min horizon (earliest_release states) in
        Runner.step st.runner ~sink;
        while (not (Runner.finished st.runner)) && now () < limit do
          Runner.step st.runner ~sink
        done;
        if Runner.finished st.runner then begin
          st.responses <- float_of_int (now () - st.released_at) :: st.responses;
          st.in_flight <- false
        end
  done;
  {
    per_task =
      List.map
        (fun st ->
          {
            spec = st.spec_;
            response_times = Array.of_list (List.rev st.responses);
            activations = List.length st.responses;
            skipped_releases = st.skipped;
          })
        states;
    total_cycles = now ();
    preemptions = !preemptions;
    idle_cycles = !idle_cycles;
  }

let run ?context_switch ?frames ~core ~program ~layout ~memory ~tasks ~horizon () =
  let runner =
    Runner.create ~decoded:(Isa.Executor.Decoded.decode ~program ~layout) ~memory ()
  in
  run_linked ?context_switch ?frames ~core ~program ~runner ~tasks ~horizon ()

let tvca_tasks ~period ?(release_jitter = 0) () =
  [
    { name = "sensor"; entry = "task_sensor"; priority = 0; period; offset = 0 };
    {
      name = "control_x";
      entry = "task_control_x";
      priority = 1;
      period;
      offset = release_jitter;
    };
    {
      name = "control_y";
      entry = "task_control_y";
      priority = 2;
      period;
      offset = 2 * release_jitter;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Schedule-randomization policies (TaskShuffler++-style) *)

type policy = Fixed_priority | Priority_shuffle | Offset_jitter

let all_policies = [ Fixed_priority; Priority_shuffle; Offset_jitter ]

let policy_name = function
  | Fixed_priority -> "fixed"
  | Priority_shuffle -> "shuffle"
  | Offset_jitter -> "jitter"

let policy_of_string = function
  | "fixed" -> Ok Fixed_priority
  | "shuffle" -> Ok Priority_shuffle
  | "jitter" -> Ok Offset_jitter
  | s -> Error (Printf.sprintf "unknown policy %S (expected fixed|shuffle|jitter)" s)

(* Tasks may legally swap priorities only within an equal-period class:
   under implicit deadlines (deadline = period), rate-monotonic priority
   order is optimal, so permuting across period classes could turn a
   feasible task set infeasible.  Within a class, any order meets the same
   deadlines — that is the shuffle's legal freedom. *)
let period_classes tasks =
  let periods =
    List.sort_uniq Int.compare (List.map (fun (s : task_spec) -> s.period) tasks)
  in
  List.map
    (fun p -> List.filter (fun (s : task_spec) -> s.period = p) tasks)
    periods

let apply_policy policy ~seed ~max_jitter tasks =
  if max_jitter < 0 then invalid_arg "Rtos.apply_policy: max_jitter must be >= 0";
  match policy with
  | Fixed_priority -> tasks
  | Priority_shuffle ->
      let prng = Prng.create seed in
      (* Permute priorities within each equal-period class.  Classes are
         visited in ascending period order and members in task-list order,
         so the draw sequence — and hence the schedule — is a pure
         function of [seed]. *)
      let assignment = Hashtbl.create 8 in
      List.iter
        (fun cls ->
          let prios = Array.of_list (List.map (fun (s : task_spec) -> s.priority) cls) in
          Prng.shuffle_in_place prng prios;
          List.iteri (fun i (s : task_spec) -> Hashtbl.replace assignment s.name prios.(i)) cls)
        (period_classes tasks);
      List.map (fun (s : task_spec) -> { s with priority = Hashtbl.find assignment s.name }) tasks
  | Offset_jitter ->
      let prng = Prng.create seed in
      (* Delay each release uniformly in [0, max_jitter]; offsets only grow,
         so they stay non-negative.  Draws follow task-list order. *)
      List.map
        (fun (s : task_spec) -> { s with offset = s.offset + Prng.int_below prng (max_jitter + 1) })
        tasks

let schedule_signature tasks =
  tasks
  |> List.map (fun (s : task_spec) -> Printf.sprintf "%s:%d:%d" s.name s.priority s.offset)
  |> String.concat ";"

type randomization = {
  schedules : int;
  distinct : int;
  entropy_bits : float;
  vulnerability : float;
}

let randomization_of_signatures sigs =
  if sigs = [] then invalid_arg "Rtos.randomization_of_signatures: empty signature list";
  let freq = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace freq s (1 + (try Hashtbl.find freq s with Not_found -> 0)))
    sigs;
  let n = List.length sigs in
  let counts =
    Hashtbl.fold (fun s c acc -> (s, c) :: acc) freq []
    (* sorted before the float fold so entropy is bit-deterministic
       whatever order the hashtable yields *)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let fn = float_of_int n in
  let entropy_bits =
    List.fold_left
      (fun acc (_, c) ->
        let p = float_of_int c /. fn in
        acc -. (p *. (log p /. log 2.)))
      0. counts
  in
  let max_count = List.fold_left (fun acc (_, c) -> Stdlib.max acc c) 0 counts in
  {
    schedules = n;
    distinct = List.length counts;
    entropy_bits;
    vulnerability = float_of_int max_count /. fn;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>%d cycles simulated, %d preemptions, %d idle cycles@,"
    t.total_cycles t.preemptions t.idle_cycles;
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s prio %d: %d activations, %d skipped" r.spec.name
        r.spec.priority r.activations r.skipped_releases;
      if r.activations > 0 then begin
        let worst = Array.fold_left Float.max r.response_times.(0) r.response_times in
        let mean =
          Array.fold_left ( +. ) 0. r.response_times /. float_of_int r.activations
        in
        Format.fprintf ppf ", response mean %.0f / max %.0f" mean worst
      end;
      Format.fprintf ppf "@,")
    t.per_task;
  Format.fprintf ppf "@]"
