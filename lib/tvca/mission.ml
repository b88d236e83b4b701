module Prng = Repro_rng.Prng

type channel_data = { position : float array; rate : float array; acceleration : float array }

type t = {
  frames : int;
  gains : Controller.gains;
  x : channel_data;
  y : channel_data;
  ref_x : float array;
  ref_y : float array;
  covariance_init : float array;
  expected_cmd_x : float array;
  expected_cmd_y : float array;
  final_theta_x : float;
  final_theta_y : float;
}

let default_frames = 8

let position_noise_sigma = 0.004
let rate_noise_sigma = 0.01
let acceleration_noise_sigma = 0.05
let glitch_probability = 0.06
let glitch_magnitude = 0.25

let make_channel_data n =
  { position = Array.make n 0.; rate = Array.make n 0.; acceleration = Array.make n 0. }

(* Everything one generation writes: the arrays of the mission it returns,
   the golden controller's state, and the two axes' sensor windows the
   controller reads each frame. *)
type buffers = {
  arrays : t;
  controller : Controller.state;
  window_x : Controller.axis_samples;
  window_y : Controller.axis_samples;
}

let buffers ~frames =
  if not (frames >= 1 && frames <= Controller.history_length) then
    invalid_arg
      (Printf.sprintf "Mission.generate: frames %d outside [1, %d]" frames
         Controller.history_length);
  let samples = Codegen.samples_per_frame in
  let n = frames * samples in
  let window () =
    {
      Controller.position = Array.make samples 0.;
      rate = Array.make samples 0.;
      acceleration = Array.make samples 0.;
    }
  in
  {
    arrays =
      {
        frames;
        gains = Controller.default_gains;
        x = make_channel_data n;
        y = make_channel_data n;
        ref_x = Array.make frames 0.;
        ref_y = Array.make frames 0.;
        covariance_init = Array.make (Controller.cov_n * Controller.cov_n) 0.;
        expected_cmd_x = Array.make frames 0.;
        expected_cmd_y = Array.make frames 0.;
        final_theta_x = 0.;
        final_theta_y = 0.;
      };
    controller = Controller.fresh_state ();
    window_x = window ();
    window_y = window ();
  }

(* A noisy sensor reading of [truth], with an occasional spike glitch. *)
let[@inline] read prng sigma truth =
  let noisy = truth +. (sigma *. Prng.gaussian prng) in
  if Prng.float prng < glitch_probability then
    noisy +. (glitch_magnitude *. (Prng.float prng -. 0.5) *. 2.)
  else noisy

(* Sample [j] of one axis' three channels, in channel order. *)
let[@inline] record prng plant ch j (state : Dynamics.state) ~u ~disturbance =
  ch.position.(j) <- read prng position_noise_sigma state.Dynamics.theta;
  ch.rate.(j) <- read prng rate_noise_sigma state.Dynamics.omega;
  ch.acceleration.(j) <-
    read prng acceleration_noise_sigma
      (Dynamics.angular_acceleration plant ~u ~disturbance state)

let window_of ch (w : Controller.axis_samples) ~first =
  let samples = Codegen.samples_per_frame in
  Array.blit ch.position first w.Controller.position 0 samples;
  Array.blit ch.rate first w.Controller.rate 0 samples;
  Array.blit ch.acceleration first w.Controller.acceleration 0 samples

let generate_into ?(gains = Controller.default_gains) b ~seed =
  let { frames; x; y; ref_x; ref_y; covariance_init; expected_cmd_x; expected_cmd_y; _ } =
    b.arrays
  in
  let prng = Prng.create seed in
  let samples = Codegen.samples_per_frame in
  let plant = Dynamics.default_params in
  (* Random initial attitude error and rates. *)
  let sx = ref (Dynamics.initial ~theta:(0.15 *. Prng.gaussian prng) ~omega:(0.05 *. Prng.gaussian prng)) in
  let sy = ref (Dynamics.initial ~theta:(0.15 *. Prng.gaussian prng) ~omega:(0.05 *. Prng.gaussian prng)) in
  (* Reference: ramp to a random target over a random ramp length. *)
  let target_x = 0.3 *. Prng.gaussian prng and target_y = 0.3 *. Prng.gaussian prng in
  let ramp = float_of_int (Prng.int_in_range prng ~lo:2 ~hi:6) in
  (* Disturbance: sinusoid with random amplitude/frequency/phase + noise. *)
  let dist_amp = 0.4 *. Prng.float prng in
  let dist_freq = 0.5 +. (2.0 *. Prng.float prng) in
  let dist_phase = 2. *. Float.pi *. Prng.float prng in
  (* Estimator covariance starts at a run-specific uncertainty: unit-ish
     diagonal, small random off-diagonal correlations. *)
  let cov_n = Controller.cov_n in
  for k = 0 to (cov_n * cov_n) - 1 do
    covariance_init.(k) <-
      (if k / cov_n = k mod cov_n then 1. +. (0.05 *. Prng.gaussian prng)
       else 0.01 *. Prng.gaussian prng)
  done;
  let ctrl_state = b.controller in
  Controller.reset ctrl_state;
  Array.blit covariance_init 0 ctrl_state.Controller.covariance 0
    (Array.length covariance_init);
  let sub_dt = gains.Controller.dt /. float_of_int samples in
  let ux = ref 0. and uy = ref 0. in
  let time = ref 0. in
  for k = 0 to frames - 1 do
    (* Fly the frame under the previous commands, oversampling the state. *)
    for i = 0 to samples - 1 do
      let d = (dist_amp *. sin ((dist_freq *. !time) +. dist_phase))
              +. (0.02 *. Prng.gaussian prng) in
      sx := Dynamics.step plant ~dt:sub_dt ~u:!ux ~disturbance:d !sx;
      sy := Dynamics.step plant ~dt:sub_dt ~u:!uy ~disturbance:(-.d) !sy;
      time := !time +. sub_dt;
      let j = (k * samples) + i in
      record prng plant x j !sx ~u:!ux ~disturbance:d;
      record prng plant y j !sy ~u:!uy ~disturbance:(-.d)
    done;
    let progress = Float.min 1. (float_of_int (k + 1) /. ramp) in
    ref_x.(k) <- target_x *. progress;
    ref_y.(k) <- target_y *. progress;
    (* Golden controller closes the loop on the sampled windows. *)
    window_of x b.window_x ~first:(k * samples);
    window_of y b.window_y ~first:(k * samples);
    let cx, cy =
      Controller.frame gains ctrl_state ~frame:k ~samples_x:b.window_x ~samples_y:b.window_y
        ~ref_x:ref_x.(k) ~ref_y:ref_y.(k)
    in
    expected_cmd_x.(k) <- cx;
    expected_cmd_y.(k) <- cy;
    ux := cx;
    uy := cy
  done;
  {
    b.arrays with
    gains;
    final_theta_x = !sx.Dynamics.theta;
    final_theta_y = !sy.Dynamics.theta;
  }

let generate ?(frames = default_frames) ?gains ~seed () =
  generate_into ?gains (buffers ~frames) ~seed

let load_memory t memory =
  let load axis ch =
    let put channel data =
      Repro_isa.Memory.load_array memory (Codegen.sym_sensor ~axis ~channel) data
    in
    put `Position ch.position;
    put `Rate ch.rate;
    put `Acceleration ch.acceleration
  in
  load `X t.x;
  load `Y t.y;
  Repro_isa.Memory.load_array memory Codegen.sym_ref_x t.ref_x;
  Repro_isa.Memory.load_array memory Codegen.sym_ref_y t.ref_y;
  Repro_isa.Memory.load_array memory Codegen.sym_gain_table Controller.gain_table;
  Repro_isa.Memory.load_array memory Codegen.sym_covariance t.covariance_init
