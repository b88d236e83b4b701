(** Code generator: turns the {!Controller} model into programs for the
    platform's instruction set, the way the ESA TVCA C code was
    auto-generated from its closed-loop model.

    The generated code mirrors the golden implementation
    operation-for-operation (same arithmetic, same evaluation order, same
    branch structure), so functional equivalence is testable exactly.  In
    the style of model-generated code, the per-channel filter chains are
    fully unrolled and all numeric constants are inlined as immediates —
    the program is therefore generated {e for} a particular set of gains,
    and only sensor/reference data varies between runs. *)

(** Which tasks the program's per-frame schedule runs.  [Full] is the
    fixed-priority order of the application: sensor acquisition, control X,
    control Y. *)
type variant = Full | Sensor_only | Control_x_only | Control_y_only

(** Samples per frame per channel; equals the FIR tap count. *)
val samples_per_frame : int

type axis = [ `X | `Y ]
type channel = [ `Position | `Rate | `Acceleration ]

val axes : axis list
val channels : channel list

(** Data symbol names of the generated program. *)
val sym_sensor : axis:axis -> channel:channel -> string

val sym_ref_x : string
val sym_ref_y : string
val sym_cmd_x : string
val sym_cmd_y : string
val sym_gain_table : string
val sym_covariance : string

(** Indices into the [state] symbol. *)
module State : sig
  val filt_x : int
  val filt_y : int
  val integ_x : int
  val integ_y : int
  val prev_e_x : int
  val prev_e_y : int
  val cov_proxy : int
  val count : int
end

(** [program ?variant ?gains ~frames ()] — the schedule loop over [frames]
    frames ([frames <= Controller.history_length]).  The measured "one run
    of TVCA" is one execution of this program. *)
val program :
  ?variant:variant -> ?gains:Controller.gains -> frames:int -> unit -> Repro_isa.Program.t
