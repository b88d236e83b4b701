module I = Repro_isa.Instr
module B = Repro_isa.Builder

type variant = Full | Sensor_only | Control_x_only | Control_y_only

let samples_per_frame = Array.length Controller.fir_taps

type axis = [ `X | `Y ]
type channel = [ `Position | `Rate | `Acceleration ]

let axes : axis list = [ `X; `Y ]
let channels : channel list = [ `Position; `Rate; `Acceleration ]

(* Literals, so the memory reload every run performs builds no string. *)
let sym_sensor ~axis ~channel =
  match (axis, channel) with
  | `X, `Position -> "sensor_x_position"
  | `X, `Rate -> "sensor_x_rate"
  | `X, `Acceleration -> "sensor_x_acceleration"
  | `Y, `Position -> "sensor_y_position"
  | `Y, `Rate -> "sensor_y_rate"
  | `Y, `Acceleration -> "sensor_y_acceleration"

let sym_ref_x = "ref_x"
let sym_ref_y = "ref_y"
let sym_cmd_x = "cmd_x"
let sym_cmd_y = "cmd_y"
let sym_state = "state"
let sym_scratch = "scratch"
let sym_history_x = "history_x"
let sym_history_y = "history_y"
let sym_gain_table = "gain_table"
let sym_covariance = "covariance"

module State = struct
  let filt_x = 0
  let filt_y = 1
  let integ_x = 2
  let integ_y = 3
  let prev_e_x = 4
  let prev_e_y = 5
  let cov_proxy = 6
  let count = 7
end

(* Register conventions:
     r10 frame index (owned by the main schedule loop, limit in r11)
     r2  sample base = frame * samples_per_frame
     r3..r9 task-local scratch
   Float registers are task-local; f13 accumulates the fused estimate.

   All numeric constants are inlined as immediates (Fli), the signature
   style of model-generated code; consequently the program must be generated
   for the gains it will run with. *)

let r_frame = 10
let r_base = 2

let state i = B.at ~offset:i sym_state

(* Clamp float register [v] to +-limit; scratch fa/fb.
   Mirrors Controller.clamp exactly. *)
let emit_clamp b ~v ~limit ~fa ~fb =
  let hi = B.fresh_label b "clamp_hi" in
  let lo = B.fresh_label b "clamp_lo" in
  let done_ = B.fresh_label b "clamp_done" in
  B.emit b (I.Fli (fa, limit));
  B.emit b (I.Fli (fb, -.limit));
  B.emit b (I.Fbge (v, fa, hi));
  B.emit b (I.Fbge (fb, v, lo));
  B.emit b (I.Jmp done_);
  B.label b hi;
  B.emit b (I.Fmov (v, fa));
  B.emit b (I.Jmp done_);
  B.label b lo;
  B.emit b (I.Fmov (v, fb));
  B.label b done_

(* One sensor channel, fully unrolled: copy the frame's window to scratch,
   outlier-reject, FIR with inline tap constants.  Leaves the filtered value
   in f4.  Mirrors Controller.sensor_channel. *)
let emit_sensor_channel b (g : Controller.gains) ~sensor_sym =
  (* copy window into scratch (static offsets, base in r2) *)
  for i = 0 to samples_per_frame - 1 do
    B.emit b (I.Fld (0, B.at ~index_reg:r_base ~offset:i sensor_sym));
    B.emit b (I.Fst (0, B.at ~offset:i sym_scratch))
  done;
  (* outlier rejection, unrolled *)
  for i = 1 to samples_per_frame - 1 do
    let skip = B.fresh_label b "reject_skip" in
    B.emit b (I.Fld (0, B.at ~offset:i sym_scratch));
    B.emit b (I.Fld (1, B.at ~offset:(i - 1) sym_scratch));
    B.emit b (I.Fsub (2, 0, 1));
    B.emit b (I.Fabs (2, 2));
    B.emit b (I.Fli (3, g.Controller.jump_threshold));
    B.emit b (I.Fblt (2, 3, skip));
    B.emit b (I.Fst (1, B.at ~offset:i sym_scratch));
    B.label b skip
  done;
  (* FIR, unrolled with immediate taps *)
  B.emit b (I.Fli (4, 0.));
  for i = 0 to samples_per_frame - 1 do
    B.emit b (I.Fld (0, B.at ~offset:i sym_scratch));
    B.emit b (I.Fli (1, Controller.fir_taps.(i)));
    B.emit b (I.Fmul (2, 0, 1));
    B.emit b (I.Fadd (4, 4, 2))
  done

(* Staggered covariance-propagation sweep (phase = frame mod cov_phases),
   then the confidence proxy into state.  Mirrors
   Controller.covariance_sweep.  Integer registers: r6 phase, r7 scratch,
   r8 element index, r9 limit, r3/r4 neighbour indices. *)
let emit_covariance_sweep b =
  let n = Controller.cov_n in
  let mod_head = B.fresh_label b "cov_mod_head" in
  let mod_done = B.fresh_label b "cov_mod_done" in
  B.emit b (I.Addi (6, r_frame, 0));
  B.emit b (I.Li (7, Controller.cov_phases));
  B.label b mod_head;
  B.emit b (I.Blt (6, 7, mod_done));
  B.emit b (I.Sub (6, 6, 7));
  B.emit b (I.Jmp mod_head);
  B.label b mod_done;
  B.emit b (I.Addi (8, 6, n + 1));
  B.emit b (I.Li (9, n * n));
  let sweep_head = B.fresh_label b "cov_sweep_head" in
  let sweep_done = B.fresh_label b "cov_sweep_done" in
  B.label b sweep_head;
  B.emit b (I.Bge (8, 9, sweep_done));
  B.emit b (I.Addi (3, 8, -1));
  B.emit b (I.Addi (4, 8, -n));
  B.emit b (I.Fld (0, B.at ~index_reg:8 sym_covariance));
  B.emit b (I.Fld (1, B.at ~index_reg:3 sym_covariance));
  B.emit b (I.Fld (2, B.at ~index_reg:4 sym_covariance));
  B.emit b (I.Fli (3, Controller.cov_decay));
  B.emit b (I.Fmul (0, 3, 0));
  B.emit b (I.Fadd (1, 1, 2));
  B.emit b (I.Fli (3, Controller.cov_coupling));
  B.emit b (I.Fmul (1, 3, 1));
  B.emit b (I.Fadd (0, 0, 1));
  B.emit b (I.Fli (3, Controller.cov_q));
  B.emit b (I.Fadd (0, 0, 3));
  B.emit b (I.Fst (0, B.at ~index_reg:8 sym_covariance));
  B.emit b (I.Addi (8, 8, Controller.cov_phases));
  B.emit b (I.Jmp sweep_head);
  B.label b sweep_done;
  B.emit b (I.Fld (0, B.at ~offset:(n + 1) sym_covariance));
  B.emit b (I.Fst (0, state State.cov_proxy))

(* Sensor acquisition for one axis: the three channels filtered and fused,
   the acceleration weight attenuated by the confidence proxy.  Mirrors
   Controller.sensor_axis. *)
let emit_sensor_axis b (g : Controller.gains) ~axis ~filt_index =
  B.emit b (I.Li (3, samples_per_frame));
  B.emit b (I.Mul (r_base, r_frame, 3));
  B.emit b (I.Fli (13, 0.));
  List.iter
    (fun channel ->
      emit_sensor_channel b g ~sensor_sym:(sym_sensor ~axis ~channel);
      (match channel with
      | `Position -> B.emit b (I.Fli (5, g.Controller.w_position))
      | `Rate -> B.emit b (I.Fli (5, g.Controller.w_rate))
      | `Acceleration ->
          (* w_acc / (1 + cov_proxy) *)
          B.emit b (I.Fld (5, state State.cov_proxy));
          B.emit b (I.Fli (6, 1.));
          B.emit b (I.Fadd (5, 6, 5));
          B.emit b (I.Fli (6, g.Controller.w_acceleration));
          B.emit b (I.Fdiv (5, 6, 5)));
      B.emit b (I.Fmul (5, 5, 4));
      B.emit b (I.Fadd (13, 13, 5)))
    channels;
  B.emit b (I.Fst (13, state filt_index))

(* PID with anti-windup, gain scheduling, windowed history trend, table
   lookup and output clamp for one axis.  Mirrors Controller.control_axis
   operation-for-operation.

   Integer registers: r6 window length, r7 loop index, r8 table index,
   r9 constants.  Float registers:
     f0 filtered  f2 e      f3 integ  f4 dt      f5 deriv
     f6 gain      f8 u_raw  f10 hist mean/trend  f11 table gain *)
let emit_control_axis b (g : Controller.gains) ~ref_sym ~cmd_sym ~history_sym ~filt_index
    ~integ_index ~prev_e_index =
  B.emit b (I.Fld (0, state filt_index));
  B.emit b (I.Fld (1, B.at ~index_reg:r_frame ref_sym));
  B.emit b (I.Fsub (2, 1, 0));
  (* e *)
  B.emit b (I.Fld (3, state integ_index));
  B.emit b (I.Fli (4, g.Controller.dt));
  B.emit b (I.Fmul (5, 2, 4));
  B.emit b (I.Fadd (3, 3, 5));
  emit_clamp b ~v:3 ~limit:g.Controller.integ_max ~fa:6 ~fb:7;
  B.emit b (I.Fst (3, state integ_index));
  (* deriv = (e - prev_e) / dt *)
  B.emit b (I.Fld (5, state prev_e_index));
  B.emit b (I.Fsub (5, 2, 5));
  B.emit b (I.Fdiv (5, 5, 4));
  B.emit b (I.Fst (2, state prev_e_index));
  (* gain = 1 / (1 + c |filtered|) *)
  B.emit b (I.Fabs (6, 0));
  B.emit b (I.Fli (7, g.Controller.gain_sched_coeff));
  B.emit b (I.Fmul (6, 7, 6));
  B.emit b (I.Fli (7, 1.));
  B.emit b (I.Fadd (6, 7, 6));
  B.emit b (I.Fdiv (6, 7, 6));
  (* history.(frame) <- filtered; wlen = min (frame+1) window *)
  B.emit b (I.Fst (0, B.at ~index_reg:r_frame history_sym));
  let wlen_ok = B.fresh_label b "wlen_ok" in
  B.emit b (I.Addi (6, r_frame, 1));
  B.emit b (I.Li (7, Controller.window));
  B.emit b (I.Blt (6, 7, wlen_ok));
  B.emit b (I.Li (6, Controller.window));
  B.label b wlen_ok;
  (* windowed sum of history.(frame-wlen+1 .. frame) into f10 *)
  B.emit b (I.Sub (7, r_frame, 6));
  B.emit b (I.Addi (7, 7, 1));
  B.emit b (I.Fli (10, 0.));
  let hist_head = B.fresh_label b "hist_head" in
  let hist_done = B.fresh_label b "hist_done" in
  B.label b hist_head;
  B.emit b (I.Blt (r_frame, 7, hist_done));
  B.emit b (I.Fld (9, B.at ~index_reg:7 history_sym));
  B.emit b (I.Fadd (10, 10, 9));
  B.emit b (I.Addi (7, 7, 1));
  B.emit b (I.Jmp hist_head);
  B.label b hist_done;
  (* hist_mean = sum / wlen *)
  B.emit b (I.Icvt (9, 6));
  B.emit b (I.Fdiv (10, 10, 9));
  (* table index = truncate (|filtered| * table_scale), clamped *)
  B.emit b (I.Fabs (11, 0));
  B.emit b (I.Fli (9, Controller.table_scale));
  B.emit b (I.Fmul (11, 11, 9));
  B.emit b (I.Fcvt (8, 11));
  let idx_ok = B.fresh_label b "idx_ok" in
  B.emit b (I.Li (9, Controller.table_size));
  B.emit b (I.Blt (8, 9, idx_ok));
  B.emit b (I.Li (8, Controller.table_size - 1));
  B.label b idx_ok;
  B.emit b (I.Fld (11, B.at ~index_reg:8 sym_gain_table));
  (* u_raw = gain*(kp e + ki integ + kd deriv) + kt*(filtered - hist_mean) *)
  B.emit b (I.Fli (8, g.Controller.kp));
  B.emit b (I.Fmul (8, 8, 2));
  B.emit b (I.Fli (9, g.Controller.ki));
  B.emit b (I.Fmul (9, 9, 3));
  B.emit b (I.Fadd (8, 8, 9));
  B.emit b (I.Fli (9, g.Controller.kd));
  B.emit b (I.Fmul (9, 9, 5));
  B.emit b (I.Fadd (8, 8, 9));
  B.emit b (I.Fmul (8, 6, 8));
  B.emit b (I.Fsub (10, 0, 10));
  B.emit b (I.Fli (9, g.Controller.kt));
  B.emit b (I.Fmul (10, 9, 10));
  B.emit b (I.Fadd (8, 8, 10));
  (* u = clamp (table_gain * u_raw) *)
  B.emit b (I.Fmul (8, 11, 8));
  emit_clamp b ~v:8 ~limit:g.Controller.u_max ~fa:6 ~fb:7;
  B.emit b (I.Fst (8, B.at ~index_reg:r_frame cmd_sym))

(* Cross-axis magnitude normalization.  Mirrors Controller.normalize. *)
let emit_normalize b (g : Controller.gains) =
  let done_ = B.fresh_label b "norm_done" in
  B.emit b (I.Fld (0, B.at ~index_reg:r_frame sym_cmd_x));
  B.emit b (I.Fld (1, B.at ~index_reg:r_frame sym_cmd_y));
  B.emit b (I.Fmul (2, 0, 0));
  B.emit b (I.Fmul (3, 1, 1));
  B.emit b (I.Fadd (2, 2, 3));
  B.emit b (I.Fsqrt (2, 2));
  B.emit b (I.Fli (3, g.Controller.u_total_max));
  B.emit b (I.Fblt (2, 3, done_));
  B.emit b (I.Fdiv (3, 3, 2));
  B.emit b (I.Fmul (0, 0, 3));
  B.emit b (I.Fmul (1, 1, 3));
  B.emit b (I.Fst (0, B.at ~index_reg:r_frame sym_cmd_x));
  B.emit b (I.Fst (1, B.at ~index_reg:r_frame sym_cmd_y));
  B.label b done_

let program ?(variant = Full) ?(gains = Controller.default_gains) ~frames () =
  if not (frames >= 1 && frames <= Controller.history_length) then
    invalid_arg
      (Printf.sprintf "Codegen.program: frames %d outside [1, %d]" frames
         Controller.history_length);
  let b = B.create ~name:"tvca" in
  List.iter
    (fun axis ->
      List.iter
        (fun channel ->
          B.declare_data b
            ~symbol:(sym_sensor ~axis ~channel)
            ~elements:(frames * samples_per_frame))
        channels)
    axes;
  B.declare_data b ~symbol:sym_ref_x ~elements:frames;
  B.declare_data b ~symbol:sym_ref_y ~elements:frames;
  B.declare_data b ~symbol:sym_cmd_x ~elements:frames;
  B.declare_data b ~symbol:sym_cmd_y ~elements:frames;
  B.declare_data b ~symbol:sym_state ~elements:State.count;
  B.declare_data b ~symbol:sym_scratch ~elements:samples_per_frame;
  B.declare_data b ~symbol:sym_history_x ~elements:Controller.history_length;
  B.declare_data b ~symbol:sym_history_y ~elements:Controller.history_length;
  B.declare_data b ~symbol:sym_gain_table ~elements:Controller.table_size;
  B.declare_data b ~symbol:sym_covariance
    ~elements:(Controller.cov_n * Controller.cov_n);
  (* main: the frame schedule in fixed-priority order. *)
  B.label b "main";
  let calls =
    match variant with
    | Full -> [ "task_sensor"; "task_control_x"; "task_control_y" ]
    | Sensor_only -> [ "task_sensor" ]
    | Control_x_only -> [ "task_control_x" ]
    | Control_y_only -> [ "task_control_y" ]
  in
  B.counted_loop b ~counter:r_frame ~from_:0 ~below:frames (fun () ->
      List.iter (fun l -> B.emit b (I.Call l)) calls);
  B.emit b I.Halt;
  (* task bodies *)
  B.label b "task_sensor";
  emit_covariance_sweep b;
  emit_sensor_axis b gains ~axis:`X ~filt_index:State.filt_x;
  emit_sensor_axis b gains ~axis:`Y ~filt_index:State.filt_y;
  B.emit b I.Ret;
  B.label b "task_control_x";
  emit_control_axis b gains ~ref_sym:sym_ref_x ~cmd_sym:sym_cmd_x
    ~history_sym:sym_history_x ~filt_index:State.filt_x ~integ_index:State.integ_x
    ~prev_e_index:State.prev_e_x;
  B.emit b I.Ret;
  B.label b "task_control_y";
  emit_control_axis b gains ~ref_sym:sym_ref_y ~cmd_sym:sym_cmd_y
    ~history_sym:sym_history_y ~filt_index:State.filt_y ~integ_index:State.integ_y
    ~prev_e_index:State.prev_e_y;
  emit_normalize b gains;
  B.emit b I.Ret;
  B.build b ~entry:"main"
