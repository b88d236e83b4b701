(* Tests for repro_tvca: plant dynamics, the golden controller, the
   generated-code <-> golden functional equivalence (the central property:
   the ISA program must compute bit-identical commands), mission generation
   and the measurement harness. *)

module P = Repro_platform
module T = Repro_tvca
module Dynamics = T.Dynamics
module Controller = T.Controller
module Codegen = T.Codegen
module Mission = T.Mission
module Experiment = T.Experiment

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf tol = Alcotest.check (Alcotest.float tol)
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Dynamics *)

let test_equilibrium_is_fixed_point () =
  (* no command, no disturbance, zero state: stays at rest *)
  let s = Dynamics.initial ~theta:0. ~omega:0. in
  let s' = Dynamics.step Dynamics.default_params ~dt:0.01 ~u:0. ~disturbance:0. s in
  checkf 1e-12 "theta" 0. s'.Dynamics.theta;
  checkf 1e-12 "omega" 0. s'.Dynamics.omega

let test_damped_system_decays () =
  let s0 = Dynamics.initial ~theta:0.5 ~omega:0. in
  let traj =
    Dynamics.simulate Dynamics.default_params ~dt:0.01 ~steps:2000
      ~u:(fun _ -> 0.)
      ~disturbance:(fun _ -> 0.)
      s0
  in
  let final = traj.(2000) in
  checkb "decays to rest" true
    (Float.abs final.Dynamics.theta < 0.01 && Float.abs final.Dynamics.omega < 0.01)

let test_constant_command_steady_state () =
  (* theta_ss = G u / k *)
  let p = Dynamics.default_params in
  let s0 = Dynamics.initial ~theta:0. ~omega:0. in
  let traj =
    Dynamics.simulate p ~dt:0.01 ~steps:3000 ~u:(fun _ -> 0.2) ~disturbance:(fun _ -> 0.) s0
  in
  let expected = p.Dynamics.actuator_gain *. 0.2 /. p.Dynamics.stiffness in
  checkf 1e-3 "steady state" expected traj.(3000).Dynamics.theta

let test_rk4_step_size_consistency () =
  (* one big step vs two half steps agree to O(dt^5) *)
  let p = Dynamics.default_params in
  let s0 = Dynamics.initial ~theta:0.3 ~omega:(-0.2) in
  let one = Dynamics.step p ~dt:0.02 ~u:0.1 ~disturbance:0.05 s0 in
  let half = Dynamics.step p ~dt:0.01 ~u:0.1 ~disturbance:0.05 s0 in
  let two = Dynamics.step p ~dt:0.01 ~u:0.1 ~disturbance:0.05 half in
  checkf 1e-7 "rk4 convergence" one.Dynamics.theta two.Dynamics.theta

let test_angular_acceleration_sign () =
  let p = Dynamics.default_params in
  let s = Dynamics.initial ~theta:1.0 ~omega:0. in
  (* restoring stiffness pulls a deflected nozzle back *)
  checkb "restoring" true (Dynamics.angular_acceleration p ~u:0. ~disturbance:0. s < 0.)

(* ------------------------------------------------------------------ *)
(* Controller (golden) *)

let gains = Controller.default_gains

let test_clamp () =
  checkf 0. "inside" 0.3 (Controller.clamp ~limit:1. 0.3);
  checkf 0. "above" 1. (Controller.clamp ~limit:1. 5.);
  checkf 0. "below" (-1.) (Controller.clamp ~limit:1. (-5.));
  checkf 0. "at limit" 1. (Controller.clamp ~limit:1. 1.)

let test_fir_taps_normalized () =
  let sum = Array.fold_left ( +. ) 0. Controller.fir_taps in
  checkf 1e-9 "taps sum to 1" 1. sum

let test_sensor_channel_constant_input () =
  (* constant input passes rejection untouched; FIR of a constant = constant *)
  let samples = Array.make (Array.length Controller.fir_taps) 0.7 in
  checkf 1e-12 "constant filtered" 0.7 (Controller.sensor_channel gains samples)

let test_sensor_channel_rejects_spike () =
  let n = Array.length Controller.fir_taps in
  let clean = Array.make n 0.5 in
  let spiked = Array.copy clean in
  spiked.(4) <- 0.5 +. (3. *. gains.Controller.jump_threshold);
  checkf 1e-12 "spike removed" (Controller.sensor_channel gains clean)
    (Controller.sensor_channel gains spiked)

let test_sensor_channel_keeps_small_step () =
  let n = Array.length Controller.fir_taps in
  let clean = Array.make n 0.5 in
  let stepped = Array.copy clean in
  stepped.(4) <- 0.5 +. (0.5 *. gains.Controller.jump_threshold);
  checkb "small step kept" true
    (Controller.sensor_channel gains stepped <> Controller.sensor_channel gains clean)

let test_normalize_identity_below_limit () =
  let ux, uy = Controller.normalize gains ~ux:0.3 ~uy:0.4 in
  checkf 0. "ux unchanged" 0.3 ux;
  checkf 0. "uy unchanged" 0.4 uy

let test_normalize_scales_to_limit () =
  let ux, uy = Controller.normalize gains ~ux:3. ~uy:4. in
  let mag = sqrt ((ux *. ux) +. (uy *. uy)) in
  checkf 1e-9 "scaled to limit" gains.Controller.u_total_max mag;
  checkf 1e-9 "direction kept" (3. /. 4.) (ux /. uy)

let test_control_axis_tracks_reference () =
  (* with zero filtered estimate and positive reference, command positive *)
  let st = Controller.fresh_state () in
  let u = Controller.control_axis gains st ~axis:`X ~frame:0 ~reference:0.5 in
  checkb "drives toward reference" true (u > 0.)

let test_control_axis_clamps () =
  let st = Controller.fresh_state () in
  let u = Controller.control_axis gains st ~axis:`X ~frame:0 ~reference:100. in
  checkf 0. "saturates at u_max" gains.Controller.u_max u

let test_control_axis_updates_state () =
  let st = Controller.fresh_state () in
  ignore (Controller.control_axis gains st ~axis:`X ~frame:0 ~reference:0.5);
  checkb "integrator moved" true (st.Controller.integ_x <> 0.);
  checkb "prev error stored" true (st.Controller.prev_e_x = 0.5);
  checkb "other axis untouched" true
    (st.Controller.integ_y = 0. && st.Controller.prev_e_y = 0.)

let test_covariance_sweep_phases_cover () =
  (* after cov_phases consecutive frames every interior element was updated *)
  let st = Controller.fresh_state () in
  Array.fill st.Controller.covariance 0 (Array.length st.Controller.covariance) 1.;
  for f = 0 to Controller.cov_phases - 1 do
    Controller.covariance_sweep st ~frame:f
  done;
  let n = Controller.cov_n in
  let untouched = ref 0 in
  Array.iteri
    (fun k v -> if k >= n + 1 && v = 1. then incr untouched)
    st.Controller.covariance;
  checki "all interior elements updated" 0 !untouched

let test_covariance_sweep_deterministic () =
  let run () =
    let st = Controller.fresh_state () in
    Array.iteri (fun k _ -> st.Controller.covariance.(k) <- float_of_int k /. 100.)
      st.Controller.covariance;
    Controller.covariance_sweep st ~frame:4;
    st.Controller.cov_proxy
  in
  checkf 0. "deterministic" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Codegen <-> golden equivalence *)

let test_program_shape () =
  let p = Codegen.program ~frames:4 () in
  checkb "has a reasonable size" true (Repro_isa.Program.length p > 1000);
  (* all three task entry points exist *)
  List.iter
    (fun l -> ignore (Repro_isa.Program.label_index p l))
    [ "main"; "task_sensor"; "task_control_x"; "task_control_y" ]

let test_generated_matches_golden_bitwise =
  qtest
    (QCheck.Test.make ~name:"generated code == golden controller (bitwise)" ~count:25
       QCheck.int64 (fun seed ->
         let e =
           Experiment.create ~frames:6 ~config:P.Config.deterministic ~base_seed:seed ()
         in
         Experiment.check_functional e ~run_index:0 = 0.))

let test_variants_run () =
  List.iter
    (fun variant ->
      let p = Codegen.program ~variant ~frames:2 () in
      let m = Repro_isa.Memory.create p in
      let sc = Mission.generate ~frames:2 ~seed:1L () in
      Mission.load_memory sc m;
      let stats =
        Repro_isa.Executor.run ~program:p
          ~layout:(Repro_isa.Layout.sequential p)
          ~memory:m ()
      in
      checkb "variant executes" true (stats.Repro_isa.Executor.retired > 10))
    [ Codegen.Full; Codegen.Sensor_only; Codegen.Control_x_only; Codegen.Control_y_only ]

let test_generated_uses_fp_long_ops () =
  (* the control law must exercise FDIV and FSQRT (the FPU jitter story) *)
  let e = Experiment.create ~frames:4 ~config:P.Config.deterministic ~base_seed:7L () in
  let m = Experiment.run e ~run_index:0 in
  checkb "fdiv/fsqrt present" true (m.P.Metrics.fp_long_ops >= 4 * 5)

(* ------------------------------------------------------------------ *)
(* Mission *)

let test_mission_deterministic () =
  let a = Mission.generate ~seed:11L () in
  let b = Mission.generate ~seed:11L () in
  checkb "same scenario" true (a.Mission.x.Mission.position = b.Mission.x.Mission.position);
  checkb "same commands" true (a.Mission.expected_cmd_x = b.Mission.expected_cmd_x)

let test_mission_seed_sensitivity () =
  let a = Mission.generate ~seed:11L () in
  let b = Mission.generate ~seed:12L () in
  checkb "different scenario" true
    (a.Mission.x.Mission.position <> b.Mission.x.Mission.position)

let test_mission_sizes () =
  let frames = 5 in
  let sc = Mission.generate ~frames ~seed:3L () in
  let n = frames * Codegen.samples_per_frame in
  checki "position samples" n (Array.length sc.Mission.x.Mission.position);
  checki "rate samples" n (Array.length sc.Mission.y.Mission.rate);
  checki "refs" frames (Array.length sc.Mission.ref_x);
  checki "commands" frames (Array.length sc.Mission.expected_cmd_x);
  checki "covariance"
    (Controller.cov_n * Controller.cov_n)
    (Array.length sc.Mission.covariance_init)

let test_mission_commands_bounded () =
  for seed = 1 to 20 do
    let sc = Mission.generate ~seed:(Int64.of_int seed) () in
    Array.iter
      (fun u ->
        checkb "command within per-axis clamp" true
          (Float.abs u <= gains.Controller.u_max +. 1e-12))
      sc.Mission.expected_cmd_x;
    (* combined magnitude limit *)
    Array.iteri
      (fun k ux ->
        let uy = sc.Mission.expected_cmd_y.(k) in
        checkb "combined magnitude" true
          (sqrt ((ux *. ux) +. (uy *. uy)) <= gains.Controller.u_total_max +. 1e-9))
      sc.Mission.expected_cmd_x
  done

let test_mission_closed_loop_controls () =
  (* with control active the attitude should stay bounded *)
  let sc = Mission.generate ~frames:40 ~seed:5L () in
  checkb "attitude bounded" true
    (Float.abs sc.Mission.final_theta_x < 2. && Float.abs sc.Mission.final_theta_y < 2.)

(* md5 over the IEEE bits of every float a mission holds.  The simulated
   cycle counts see these floats only through value-dependent FPU
   latencies, so a changed sensor sample or command can hide from the
   timing fixtures; it cannot hide from this digest. *)
let mission_digest (m : Mission.t) =
  let b = Buffer.create 65_536 in
  let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let channel (c : Mission.channel_data) =
    Array.iter add c.Mission.position;
    Array.iter add c.Mission.rate;
    Array.iter add c.Mission.acceleration
  in
  channel m.Mission.x;
  channel m.Mission.y;
  List.iter (Array.iter add)
    [
      m.Mission.ref_x;
      m.Mission.ref_y;
      m.Mission.covariance_init;
      m.Mission.expected_cmd_x;
      m.Mission.expected_cmd_y;
    ];
  add m.Mission.final_theta_x;
  add m.Mission.final_theta_y;
  Digest.to_hex (Digest.string (Buffer.contents b))

let mission_golden =
  [
    ( 0L,
      [
        (1, "09864fa0a2cd9e27ed8ddec21ce80ab8");
        (4, "3b3d2c521352b1a8cd86b56406e2e907");
        (8, "1e60d0c84e473a0c7e87f1951ed2b69b");
        (64, "c21f34f69041b280e83eb4f468564020");
      ] );
    ( 1L,
      [
        (1, "8d1e66efecbb287ab0b025b0f6361105");
        (4, "6df3316860802f4f611c82f0387b0a04");
        (8, "4e0eaab2078827891ccfec0ec49adf24");
        (64, "ba356bf745a20e4c83b6b341d1255221");
      ] );
    ( 2017L,
      [
        (1, "162f8d22e5b11eeee56a136e046c0e26");
        (4, "4cea775a7a8cb7a554579adca7b7b566");
        (8, "b0dcfb5511748d4527c54836434b7020");
        (64, "b5bc1fe842e7200dbec589fa6dad1cde");
      ] );
    ( -1L,
      [
        (1, "709eebc21463a9eb3d9b6609a7f103e5");
        (4, "93f805683a04e2c25feaa9d0fc2879ad");
        (8, "bfea52b12fb78bc49542bdc6798e9bc7");
        (64, "4ccf5bf3656e0cd70289739679597c33");
      ] );
  ]

let test_mission_golden () =
  List.iter
    (fun (seed, per_frames) ->
      List.iter
        (fun (frames, want) ->
          Alcotest.(check string)
            (Printf.sprintf "seed %Ld frames %d" seed frames)
            want
            (mission_digest (Mission.generate ~frames ~seed ())))
        per_frames)
    mission_golden

(* Missions generated into one set of buffers in the order A, B, A equal
   fresh ones bit for bit: no controller, history or sensor state leaks
   from one mission into the next.  B flies other gains. *)
let test_mission_buffers_reused () =
  let other = { gains with Controller.kp = 3.1; ki = 0.4 } in
  List.iter
    (fun frames ->
      let b = Mission.buffers ~frames in
      List.iter
        (fun (what, seed, gains) ->
          Alcotest.(check string)
            (Printf.sprintf "frames %d, mission %s" frames what)
            (mission_digest (Mission.generate ~frames ~gains ~seed ()))
            (mission_digest (Mission.generate_into ~gains b ~seed)))
        [ ("A", 2017L, gains); ("B", -1L, other); ("A again", 2017L, gains) ])
    [ 1; 8; 64 ]

(* ------------------------------------------------------------------ *)
(* Experiment harness *)

let test_experiment_reproducible () =
  let e1 = Experiment.create ~frames:4 ~config:P.Config.mbpta_compliant ~base_seed:77L () in
  let e2 = Experiment.create ~frames:4 ~config:P.Config.mbpta_compliant ~base_seed:77L () in
  checkf 0. "same measurement" (Experiment.measure e1 ~run_index:3)
    (Experiment.measure e2 ~run_index:3)

let test_experiment_runs_differ () =
  let e = Experiment.create ~frames:4 ~config:P.Config.mbpta_compliant ~base_seed:77L () in
  let xs = Experiment.collect e ~runs:10 in
  checkb "runs differ" true (Array.exists (fun x -> x <> xs.(0)) xs)

let test_experiment_path_signatures_vary () =
  let e = Experiment.create ~frames:4 ~config:P.Config.deterministic ~base_seed:77L () in
  let sigs = List.init 10 (fun i -> Experiment.path_signature e ~run_index:i) in
  checkb "inputs induce distinct paths" true
    (List.length (List.sort_uniq compare sigs) > 1)

let test_experiment_path_signature_platform_independent () =
  let det = Experiment.create ~frames:4 ~config:P.Config.deterministic ~base_seed:9L () in
  let rand = Experiment.create ~frames:4 ~config:P.Config.mbpta_compliant ~base_seed:9L () in
  checki "same path either platform"
    (Experiment.path_signature det ~run_index:2)
    (Experiment.path_signature rand ~run_index:2)

let test_experiment_layout_changes_det_timing () =
  let e = Experiment.create ~frames:4 ~config:P.Config.deterministic ~base_seed:13L () in
  let p = Experiment.program e in
  let timings =
    List.map
      (fun seed ->
        let e' = Experiment.with_layout e (Repro_isa.Layout.scrambled ~seed p) in
        Experiment.measure e' ~run_index:0)
      [ 1L; 2L; 3L; 4L; 5L; 6L ]
  in
  checkb "DET timing layout-dependent" true
    (List.length (List.sort_uniq compare timings) > 1)

let test_experiment_functional_on_rand_platform () =
  let e = Experiment.create ~frames:4 ~config:P.Config.mbpta_compliant ~base_seed:21L () in
  checkf 0. "functional equivalence independent of platform" 0.
    (Experiment.check_functional e ~run_index:5)

(* ------------------------------------------------------------------ *)
(* RTOS: preemptive fixed-priority scheduling *)

let rtos_setup ?(seed = 3L) () =
  let program = Codegen.program ~frames:8 () in
  let layout = Repro_isa.Layout.sequential program in
  let memory = Repro_isa.Memory.create program in
  let sc = Mission.generate ~frames:8 ~seed () in
  Mission.load_memory sc memory;
  let core = P.Core_sim.create ~config:P.Config.mbpta_compliant ~seed () in
  P.Core_sim.reset_run core;
  (program, layout, memory, core)

let find_task t name =
  List.find (fun r -> r.T.Rtos.spec.T.Rtos.name = name) t.T.Rtos.per_task

let test_rtos_all_tasks_complete () =
  let program, layout, memory, core = rtos_setup () in
  let tasks = T.Rtos.tvca_tasks ~period:60_000 () in
  let t = T.Rtos.run ~core ~program ~layout ~memory ~tasks ~horizon:480_000 () in
  List.iter
    (fun r ->
      checkb (r.T.Rtos.spec.T.Rtos.name ^ " ran") true (r.T.Rtos.activations >= 7);
      checki (r.T.Rtos.spec.T.Rtos.name ^ " no skips") 0 r.T.Rtos.skipped_releases)
    t.T.Rtos.per_task;
  checkb "idle time exists at low utilization" true (t.T.Rtos.idle_cycles > 0)

let test_rtos_priority_order_in_responses () =
  (* all released together: lower-priority tasks wait for higher ones *)
  let program, layout, memory, core = rtos_setup () in
  let tasks = T.Rtos.tvca_tasks ~period:100_000 () in
  let t = T.Rtos.run ~core ~program ~layout ~memory ~tasks ~horizon:400_000 () in
  let max_response name =
    let r = find_task t name in
    Array.fold_left Float.max 0. r.T.Rtos.response_times
  in
  checkb "sensor before control_x" true (max_response "sensor" < max_response "control_x");
  checkb "control_x before control_y" true
    (max_response "control_x" < max_response "control_y")

let test_rtos_preemption () =
  (* sensor demoted to low priority and started first; a high-priority
     control job released mid-flight must preempt it *)
  let program, layout, memory, core = rtos_setup () in
  let tasks =
    [
      {
        T.Rtos.name = "control_hi";
        entry = "task_control_x";
        priority = 0;
        period = 200_000;
        offset = 3_000;
      };
      {
        T.Rtos.name = "sensor_lo";
        entry = "task_sensor";
        priority = 5;
        period = 200_000;
        offset = 0;
      };
    ]
  in
  let t = T.Rtos.run ~core ~program ~layout ~memory ~tasks ~horizon:200_000 () in
  checkb "preempted at least once" true (t.T.Rtos.preemptions >= 1);
  let sensor = find_task t "sensor_lo" and hi = find_task t "control_hi" in
  checkb "both completed" true (sensor.T.Rtos.activations = 1 && hi.T.Rtos.activations = 1);
  (* the preempting job's response is short; the victim carries the delay *)
  checkb "victim slower than preemptor" true
    (sensor.T.Rtos.response_times.(0) > hi.T.Rtos.response_times.(0))

let test_rtos_overload_skips () =
  let program, layout, memory, core = rtos_setup () in
  (* the sensor task cannot possibly finish within 1000 cycles *)
  let tasks =
    [
      {
        T.Rtos.name = "sensor";
        entry = "task_sensor";
        priority = 0;
        period = 1_000;
        offset = 0;
      };
    ]
  in
  let t = T.Rtos.run ~core ~program ~layout ~memory ~tasks ~horizon:100_000 () in
  let sensor = find_task t "sensor" in
  checkb "overload detected" true (sensor.T.Rtos.skipped_releases > 0)

let test_rtos_rejects_duplicate_priorities () =
  let program, layout, memory, core = rtos_setup () in
  let tasks =
    [
      { T.Rtos.name = "a"; entry = "task_sensor"; priority = 1; period = 10_000; offset = 0 };
      {
        T.Rtos.name = "b";
        entry = "task_control_x";
        priority = 1;
        period = 10_000;
        offset = 0;
      };
    ]
  in
  checkb "duplicate priorities rejected" true
    (try
       ignore (T.Rtos.run ~core ~program ~layout ~memory ~tasks ~horizon:1000 ());
       false
     with Invalid_argument _ -> true)

let test_rtos_deterministic () =
  let run () =
    let program, layout, memory, core = rtos_setup ~seed:11L () in
    let tasks = T.Rtos.tvca_tasks ~period:60_000 ~release_jitter:500 () in
    let t = T.Rtos.run ~core ~program ~layout ~memory ~tasks ~horizon:300_000 () in
    List.map (fun r -> r.T.Rtos.response_times) t.T.Rtos.per_task
  in
  checkb "same seed, same schedule" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Schedule-randomization policies *)

let base_tasks () = T.Rtos.tvca_tasks ~period:60_000 ()

let sorted_priorities tasks =
  List.sort Int.compare (List.map (fun s -> s.T.Rtos.priority) tasks)

let test_policy_pure_function_of_seed () =
  List.iter
    (fun policy ->
      let apply seed =
        T.Rtos.schedule_signature
          (T.Rtos.apply_policy policy ~seed ~max_jitter:2_000 (base_tasks ()))
      in
      checkb
        (T.Rtos.policy_name policy ^ " same seed, same schedule")
        true
        (String.equal (apply 77L) (apply 77L)))
    T.Rtos.all_policies;
  (* Randomizing policies actually depend on the seed. *)
  let distinct_under policy =
    let sigs =
      List.map
        (fun i ->
          T.Rtos.schedule_signature
            (T.Rtos.apply_policy policy ~seed:(Int64.of_int i) ~max_jitter:2_000
               (base_tasks ())))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    in
    List.length (List.sort_uniq String.compare sigs)
  in
  checkb "shuffle varies with seed" true (distinct_under T.Rtos.Priority_shuffle > 1);
  checkb "jitter varies with seed" true (distinct_under T.Rtos.Offset_jitter > 1)

let test_policy_fixed_is_identity () =
  let tasks = base_tasks () in
  checkb "fixed leaves the task set untouched" true
    (T.Rtos.apply_policy T.Rtos.Fixed_priority ~seed:123L ~max_jitter:5_000 tasks = tasks)

let test_policy_shuffle_preserves_priorities () =
  (* A priority permutation within equal-period classes: the multiset of
     priorities, the periods and the offsets all survive. *)
  let tasks = base_tasks () in
  List.iter
    (fun seed ->
      let shuffled =
        T.Rtos.apply_policy T.Rtos.Priority_shuffle ~seed ~max_jitter:0 tasks
      in
      checkb "priority multiset preserved" true
        (sorted_priorities shuffled = sorted_priorities tasks);
      List.iter2
        (fun a b ->
          checkb "task order stable" true (String.equal a.T.Rtos.name b.T.Rtos.name);
          checkb "period unchanged" true (a.T.Rtos.period = b.T.Rtos.period);
          checkb "offset unchanged" true (a.T.Rtos.offset = b.T.Rtos.offset))
        tasks shuffled)
    [ 1L; 2L; 3L; 4L; 5L ]

let test_policy_jitter_offsets_grow () =
  let tasks = base_tasks () in
  let max_jitter = 2_000 in
  List.iter
    (fun seed ->
      let jittered = T.Rtos.apply_policy T.Rtos.Offset_jitter ~seed ~max_jitter tasks in
      List.iter2
        (fun a b ->
          checkb "offset only grows" true (b.T.Rtos.offset >= a.T.Rtos.offset);
          checkb "offset within jitter bound" true
            (b.T.Rtos.offset <= a.T.Rtos.offset + max_jitter);
          checkb "priority unchanged" true (a.T.Rtos.priority = b.T.Rtos.priority))
        tasks jittered)
    [ 10L; 11L; 12L; 13L ]

let test_randomization_metrics () =
  (* 4 observations of 2 distinct schedules, 3:1 split. *)
  let r = T.Rtos.randomization_of_signatures [ "a"; "a"; "a"; "b" ] in
  checkb "schedules" true (r.T.Rtos.schedules = 4);
  checkb "distinct" true (r.T.Rtos.distinct = 2);
  let expected_entropy = -.((0.75 *. (log 0.75 /. log 2.)) +. (0.25 *. (log 0.25 /. log 2.))) in
  checkb "entropy" true (Float.abs (r.T.Rtos.entropy_bits -. expected_entropy) < 1e-12);
  checkb "vulnerability = modal probability" true (r.T.Rtos.vulnerability = 0.75);
  (* Degenerate single schedule: zero entropy, fully predictable. *)
  let fixed = T.Rtos.randomization_of_signatures [ "s"; "s" ] in
  checkb "fixed entropy 0" true (fixed.T.Rtos.entropy_bits = 0.);
  checkb "fixed vulnerability 1" true (fixed.T.Rtos.vulnerability = 1.)

let test_policy_names_roundtrip () =
  List.iter
    (fun p ->
      match T.Rtos.policy_of_string (T.Rtos.policy_name p) with
      | Ok p' -> checkb (T.Rtos.policy_name p ^ " roundtrips") true (p = p')
      | Error e -> Alcotest.failf "policy_of_string failed: %s" e)
    T.Rtos.all_policies;
  checkb "unknown policy rejected" true
    (match T.Rtos.policy_of_string "bogus" with Error _ -> true | Ok _ -> false)

let () =
  Alcotest.run "repro_tvca"
    [
      ( "dynamics",
        [
          Alcotest.test_case "equilibrium" `Quick test_equilibrium_is_fixed_point;
          Alcotest.test_case "damping decays" `Quick test_damped_system_decays;
          Alcotest.test_case "steady state" `Quick test_constant_command_steady_state;
          Alcotest.test_case "rk4 consistency" `Quick test_rk4_step_size_consistency;
          Alcotest.test_case "acceleration sign" `Quick test_angular_acceleration_sign;
        ] );
      ( "controller",
        [
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "taps normalized" `Quick test_fir_taps_normalized;
          Alcotest.test_case "constant input" `Quick test_sensor_channel_constant_input;
          Alcotest.test_case "rejects spike" `Quick test_sensor_channel_rejects_spike;
          Alcotest.test_case "keeps small step" `Quick test_sensor_channel_keeps_small_step;
          Alcotest.test_case "normalize identity" `Quick test_normalize_identity_below_limit;
          Alcotest.test_case "normalize scales" `Quick test_normalize_scales_to_limit;
          Alcotest.test_case "tracks reference" `Quick test_control_axis_tracks_reference;
          Alcotest.test_case "clamps output" `Quick test_control_axis_clamps;
          Alcotest.test_case "updates state" `Quick test_control_axis_updates_state;
          Alcotest.test_case "covariance phases cover" `Quick
            test_covariance_sweep_phases_cover;
          Alcotest.test_case "covariance deterministic" `Quick
            test_covariance_sweep_deterministic;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "program shape" `Quick test_program_shape;
          test_generated_matches_golden_bitwise;
          Alcotest.test_case "variants run" `Quick test_variants_run;
          Alcotest.test_case "uses fp long ops" `Quick test_generated_uses_fp_long_ops;
        ] );
      ( "mission",
        [
          Alcotest.test_case "deterministic" `Quick test_mission_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_mission_seed_sensitivity;
          Alcotest.test_case "sizes" `Quick test_mission_sizes;
          Alcotest.test_case "commands bounded" `Quick test_mission_commands_bounded;
          Alcotest.test_case "closed loop bounded" `Quick test_mission_closed_loop_controls;
          Alcotest.test_case "golden" `Quick test_mission_golden;
          Alcotest.test_case "buffers reused A, B, A" `Quick test_mission_buffers_reused;
        ] );
      ( "rtos",
        [
          Alcotest.test_case "all tasks complete" `Quick test_rtos_all_tasks_complete;
          Alcotest.test_case "priority order" `Quick test_rtos_priority_order_in_responses;
          Alcotest.test_case "preemption" `Quick test_rtos_preemption;
          Alcotest.test_case "overload skips" `Quick test_rtos_overload_skips;
          Alcotest.test_case "duplicate priorities" `Quick
            test_rtos_rejects_duplicate_priorities;
          Alcotest.test_case "deterministic" `Quick test_rtos_deterministic;
        ] );
      ( "shuffle",
        [
          Alcotest.test_case "policies pure in seed" `Quick test_policy_pure_function_of_seed;
          Alcotest.test_case "fixed is identity" `Quick test_policy_fixed_is_identity;
          Alcotest.test_case "shuffle preserves priorities" `Quick
            test_policy_shuffle_preserves_priorities;
          Alcotest.test_case "jitter grows offsets" `Quick test_policy_jitter_offsets_grow;
          Alcotest.test_case "randomization metrics" `Quick test_randomization_metrics;
          Alcotest.test_case "policy names roundtrip" `Quick test_policy_names_roundtrip;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "reproducible" `Quick test_experiment_reproducible;
          Alcotest.test_case "runs differ" `Quick test_experiment_runs_differ;
          Alcotest.test_case "paths vary" `Quick test_experiment_path_signatures_vary;
          Alcotest.test_case "paths platform-independent" `Quick
            test_experiment_path_signature_platform_independent;
          Alcotest.test_case "DET layout sensitivity" `Quick
            test_experiment_layout_changes_det_timing;
          Alcotest.test_case "functional on RAND" `Quick
            test_experiment_functional_on_rand_platform;
        ] );
    ]
