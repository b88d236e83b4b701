type gains = {
  dt : float;
  kp : float;
  ki : float;
  kd : float;
  kt : float;
  w_position : float;
  w_rate : float;
  w_acceleration : float;
  integ_max : float;
  u_max : float;
  u_total_max : float;
  jump_threshold : float;
  gain_sched_coeff : float;
}

let default_gains =
  {
    dt = 0.01;
    kp = 2.4;
    ki = 1.1;
    kd = 0.18;
    kt = 0.35;
    w_position = 0.72;
    w_rate = 0.05;
    w_acceleration = 0.004;
    integ_max = 0.6;
    u_max = 1.0;
    u_total_max = 1.2;
    jump_threshold = 0.08;
    gain_sched_coeff = 0.5;
  }

let fir_taps =
  [|
    0.010; 0.020; 0.035; 0.050; 0.065; 0.080; 0.095; 0.110;
    0.110; 0.100; 0.090; 0.080; 0.060; 0.045; 0.030; 0.020;
  |]

let window = 16
let history_length = 64
let table_size = 256
let table_scale = 128.

(* State-estimator covariance propagation: a [cov_n x cov_n] matrix swept
   in place once per frame (spread over [cov_phases] minor frames, as flight
   software commonly staggers heavy estimator work). *)
let cov_n = 40
let cov_phases = 3
let cov_decay = 0.985
let cov_coupling = 0.004
let cov_q = 0.0005

(* Scheduled attenuation versus deflection magnitude; a typical interpolated
   lookup table in generated control code. *)
let gain_table =
  Array.init table_size (fun i ->
      let x = float_of_int i /. table_scale in
      1. /. (1. +. (0.8 *. x *. x)))

type state = {
  mutable filt_x : float;
  mutable filt_y : float;
  mutable integ_x : float;
  mutable integ_y : float;
  mutable prev_e_x : float;
  mutable prev_e_y : float;
  mutable cov_proxy : float;
  history_x : float array;
  history_y : float array;
  covariance : float array;  (** cov_n * cov_n, row-major *)
}

let fresh_state () =
  {
    filt_x = 0.;
    filt_y = 0.;
    integ_x = 0.;
    integ_y = 0.;
    prev_e_x = 0.;
    prev_e_y = 0.;
    cov_proxy = 0.;
    history_x = Array.make history_length 0.;
    history_y = Array.make history_length 0.;
    covariance = Array.make (cov_n * cov_n) 0.;
  }

let reset st =
  st.filt_x <- 0.;
  st.filt_y <- 0.;
  st.integ_x <- 0.;
  st.integ_y <- 0.;
  st.prev_e_x <- 0.;
  st.prev_e_y <- 0.;
  st.cov_proxy <- 0.;
  Array.fill st.history_x 0 history_length 0.;
  Array.fill st.history_y 0 history_length 0.;
  Array.fill st.covariance 0 (cov_n * cov_n) 0.

let clamp ~limit v = if v >= limit then limit else if v <= -.limit then -.limit else v

let sensor_channel g samples =
  if Array.length samples <> Array.length fir_taps then
    invalid_arg
      (Printf.sprintf "Controller.sensor_channel: %d samples, FIR expects %d"
         (Array.length samples) (Array.length fir_taps));
  let s = Array.copy samples in
  (* Outlier rejection: a jump larger than the threshold is replaced by the
     previous sample (exact branch shape of the generated code). *)
  for i = 1 to Array.length s - 1 do
    if Float.abs (s.(i) -. s.(i - 1)) >= g.jump_threshold then s.(i) <- s.(i - 1)
  done;
  let acc = ref 0. in
  for i = 0 to Array.length s - 1 do
    acc := !acc +. (fir_taps.(i) *. s.(i))
  done;
  !acc

(* One staggered covariance-propagation sweep: elements [cov_n+1+phase],
   stepping by [cov_phases], each updated from its left and upper
   neighbours.  Returns the confidence proxy (element cov_n+1). *)
let covariance_sweep st ~frame =
  let p = st.covariance in
  let n = cov_n in
  let phase = frame mod cov_phases in
  let k = ref (n + 1 + phase) in
  while !k < n * n do
    p.(!k) <-
      (cov_decay *. p.(!k)) +. (cov_coupling *. (p.(!k - 1) +. p.(!k - n))) +. cov_q;
    k := !k + cov_phases
  done;
  st.cov_proxy <- p.(n + 1)

(* Complementary fusion of the three sensor channels of one axis into the
   attitude estimate the control law consumes; the acceleration channel's
   weight is attenuated by the estimator confidence proxy. *)
let sensor_axis g ~cov_proxy ~position ~rate ~acceleration =
  let fp = sensor_channel g position in
  let fr = sensor_channel g rate in
  let fa = sensor_channel g acceleration in
  let w_acc = g.w_acceleration /. (1. +. cov_proxy) in
  (g.w_position *. fp) +. (g.w_rate *. fr) +. (w_acc *. fa)

(* One axis of the control law, mirrored instruction-for-instruction by
   Codegen.emit_control_axis; [frame] indexes the history ring (one entry per
   frame; a run never exceeds [history_length] frames). *)
let control_axis g st ~axis ~frame ~reference =
  if not (frame >= 0 && frame < history_length) then
    invalid_arg
      (Printf.sprintf "Controller.control_axis: frame %d outside [0, %d)" frame
         history_length);
  let filtered, integ, prev_e, history =
    match axis with
    | `X -> (st.filt_x, st.integ_x, st.prev_e_x, st.history_x)
    | `Y -> (st.filt_y, st.integ_y, st.prev_e_y, st.history_y)
  in
  let e = reference -. filtered in
  let integ = clamp ~limit:g.integ_max (integ +. (e *. g.dt)) in
  let deriv = (e -. prev_e) /. g.dt in
  let gain = 1. /. (1. +. (g.gain_sched_coeff *. Float.abs filtered)) in
  (* Trend over the recent filtered history (windowed mean). *)
  history.(frame) <- filtered;
  let wlen = if frame + 1 >= window then window else frame + 1 in
  let sum = ref 0. in
  for i = frame - wlen + 1 to frame do
    sum := !sum +. history.(i)
  done;
  let hist_mean = !sum /. float_of_int wlen in
  (* Scheduled attenuation via table lookup (truncating conversion). *)
  let idx = int_of_float (Float.abs filtered *. table_scale) in
  let idx = if idx >= table_size then table_size - 1 else idx in
  let table_gain = gain_table.(idx) in
  let u_raw =
    (gain *. ((g.kp *. e) +. (g.ki *. integ) +. (g.kd *. deriv)))
    +. (g.kt *. (filtered -. hist_mean))
  in
  let u = clamp ~limit:g.u_max (table_gain *. u_raw) in
  (match axis with
  | `X ->
      st.integ_x <- integ;
      st.prev_e_x <- e
  | `Y ->
      st.integ_y <- integ;
      st.prev_e_y <- e);
  u

let normalize g ~ux ~uy =
  let mag = sqrt ((ux *. ux) +. (uy *. uy)) in
  if mag >= g.u_total_max then begin
    let scale = g.u_total_max /. mag in
    (ux *. scale, uy *. scale)
  end
  else (ux, uy)

type axis_samples = { position : float array; rate : float array; acceleration : float array }

let frame g st ~frame ~samples_x ~samples_y ~ref_x ~ref_y =
  covariance_sweep st ~frame;
  st.filt_x <-
    sensor_axis g ~cov_proxy:st.cov_proxy ~position:samples_x.position
      ~rate:samples_x.rate ~acceleration:samples_x.acceleration;
  st.filt_y <-
    sensor_axis g ~cov_proxy:st.cov_proxy ~position:samples_y.position
      ~rate:samples_y.rate ~acceleration:samples_y.acceleration;
  let ux = control_axis g st ~axis:`X ~frame ~reference:ref_x in
  let uy = control_axis g st ~axis:`Y ~frame ~reference:ref_y in
  normalize g ~ux ~uy
