(** Golden (reference) implementation of the TVCA on-board software.

    This is the high-level control model the {!Codegen} "auto-generates"
    ISA code from, exactly as the ESA application was generated from a
    closed-loop model.  Every arithmetic step here is mirrored
    operation-for-operation by the generated code, so the two can be checked
    against each other bit-for-bit (see the integration tests).

    Three tasks, in fixed-priority order:
    + sensor data acquisition: per-axis outlier rejection then a 16-tap FIR;
    + actuator control X: PID with anti-windup, gain scheduling (FDIV), a
      windowed trend term over the filtered-value history, a scheduled-
      attenuation table lookup (data-dependent addressing), and output
      clamping;
    + actuator control Y: same law plus the cross-axis magnitude
      normalization (FSQRT + FDIV) applied to both commands. *)

type gains = {
  dt : float;  (** control period, s *)
  kp : float;
  ki : float;
  kd : float;
  kt : float;  (** trend (history) term gain *)
  w_position : float;  (** complementary-fusion weight, position channel *)
  w_rate : float;
  w_acceleration : float;
  integ_max : float;  (** anti-windup clamp *)
  u_max : float;  (** per-axis command clamp *)
  u_total_max : float;  (** combined-magnitude limit *)
  jump_threshold : float;  (** sensor outlier-rejection threshold *)
  gain_sched_coeff : float;  (** gain falls as 1/(1 + c |theta|) *)
}

val default_gains : gains

(** FIR filter taps used by the sensor task (16 taps, sums to 1). *)
val fir_taps : float array

(** Trend window (frames) and history ring capacity; a run must not exceed
    [history_length] frames. *)
val window : int

val history_length : int

(** Scheduled-attenuation lookup table and its index scale:
    [index = truncate (|filtered| * table_scale)], clamped to the table. *)
val table_size : int

val table_scale : float
val gain_table : float array

(** Estimator covariance sweep dimensions: a [cov_n x cov_n] row-major
    matrix, one staggered sweep per frame spread over [cov_phases] minor
    frames. *)
val cov_n : int

val cov_phases : int
val cov_decay : float
val cov_coupling : float
val cov_q : float

(** Mutable controller state carried across frames (mirrors the [state],
    [history_x] and [history_y] data symbols of the generated program). *)
type state = {
  mutable filt_x : float;
  mutable filt_y : float;
  mutable integ_x : float;
  mutable integ_y : float;
  mutable prev_e_x : float;
  mutable prev_e_y : float;
  mutable cov_proxy : float;  (** estimator confidence proxy *)
  history_x : float array;
  history_y : float array;
  covariance : float array;  (** cov_n * cov_n, row-major *)
}

val fresh_state : unit -> state

(** [reset st] puts [st] back where {!fresh_state} starts, in place. *)
val reset : state -> unit

(** [clamp ~limit v] — the exact branch structure the generated code uses:
    [if v >= limit then limit else if v <= -limit then -limit else v]. *)
val clamp : limit:float -> float -> float

(** [sensor_channel g samples] — outlier rejection (in place on a copy) then
    FIR; [samples] length must equal [Array.length fir_taps]. *)
val sensor_channel : gains -> float array -> float

(** [covariance_sweep st ~frame] — the staggered estimator covariance
    propagation (phase [frame mod cov_phases]); updates [st.cov_proxy]. *)
val covariance_sweep : state -> frame:int -> unit

(** [sensor_axis g ~cov_proxy ~position ~rate ~acceleration] — per-channel
    filtering followed by complementary fusion into the axis attitude
    estimate. *)
val sensor_axis :
  gains ->
  cov_proxy:float ->
  position:float array ->
  rate:float array ->
  acceleration:float array ->
  float

(** The three oversampled windows of one axis for one frame. *)
type axis_samples = { position : float array; rate : float array; acceleration : float array }

(** [control_axis g st ~axis ~frame ~reference] — reads the axis' filtered
    value from [st], updates integrator, previous-error and history state,
    returns the clamped command. *)
val control_axis :
  gains -> state -> axis:[ `X | `Y ] -> frame:int -> reference:float -> float

(** [normalize g ~ux ~uy] — cross-axis magnitude limit; returns the possibly
    rescaled pair. *)
val normalize : gains -> ux:float -> uy:float -> float * float

(** [frame g st ~frame ~samples_x ~samples_y ~ref_x ~ref_y] — one full frame
    in priority order; returns the final (normalized) commands. *)
val frame :
  gains ->
  state ->
  frame:int ->
  samples_x:axis_samples ->
  samples_y:axis_samples ->
  ref_x:float ->
  ref_y:float ->
  float * float
