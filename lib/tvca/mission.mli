(** Mission scenarios: the environment side of one TVCA run.

    A scenario is one run's worth of inputs — noisy oversampled sensor
    readings (three channels per axis: position, rate, acceleration)
    produced by the closed-loop plant simulation, the reference profile,
    plus the golden controller's command outputs for functional
    cross-checking of the generated code.

    The loop is closed against the {!Controller} golden model: during frame
    [k] the plant flies under the frame [k-1] commands, its trajectory is
    oversampled into the frame's sensor windows (with Gaussian noise and
    occasional spike glitches, which exercise the outlier-rejection path),
    and the controller computes the frame [k] commands from exactly those
    samples.  The generated ISA program re-computes the same commands from
    the same arrays, so semantics are checkable while timing varies with the
    platform. *)

(** Flattened per-axis channel data, [frames * samples_per_frame] each. *)
type channel_data = { position : float array; rate : float array; acceleration : float array }

type t = {
  frames : int;
  gains : Controller.gains;
  x : channel_data;
  y : channel_data;
  ref_x : float array;  (** per-frame reference, length frames *)
  ref_y : float array;
  covariance_init : float array;  (** initial estimator covariance *)
  expected_cmd_x : float array;  (** golden commands, length frames *)
  expected_cmd_y : float array;
  final_theta_x : float;  (** plant attitude at end of run (diagnostics) *)
  final_theta_y : float;
}

val default_frames : int

(** [generate ?frames ?gains ~seed ()] — the whole scenario is a
    deterministic function of [seed]; distinct seeds model the input
    variability across the 3,000 measurement runs. *)
val generate : ?frames:int -> ?gains:Controller.gains -> seed:int64 -> unit -> t

(** Storage for one mission of a fixed frame count: its arrays, the golden
    controller's state and the controller's sensor windows.  Generating
    into buffers allocates no array. *)
type buffers

(** [buffers ~frames] — raises [Invalid_argument] unless
    [1 <= frames <= Controller.history_length]. *)
val buffers : frames:int -> buffers

(** [generate_into ?gains buffers ~seed] is [generate ~frames ?gains ~seed ()]
    bit for bit, for the [frames] the buffers were made with, written into
    [buffers].  The controller state is reset first, so nothing carries
    over from an earlier mission.  The result shares its arrays with
    [buffers]: it stays valid until the next [generate_into] on them. *)
val generate_into : ?gains:Controller.gains -> buffers -> seed:int64 -> t

(** [load_memory t memory] fills the data symbols of a program generated by
    {!Codegen.program} with this scenario's inputs (sensor windows,
    references, gain table; state and commands zeroed). *)
val load_memory : t -> Repro_isa.Memory.t -> unit
