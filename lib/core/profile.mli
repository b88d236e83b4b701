(** Campaign-side surface of the stage-resolved micro-profiler.

    The accumulators themselves live below every repro library
    ({!Repro_profile}), so the ISA/platform/TVCA hot paths can annotate
    stages without depending on the campaign layer.  This module re-exports
    that interface and adds the two pieces only the campaign layer can
    provide: folding a profile snapshot into a trace's counter registry
    (where [trace summary] picks it up as the stage-profile section) and
    rendering the live snapshot as a report. *)

include module type of struct
  include Repro_profile
end

(** [record_counters counters] adds every non-empty stage total of the
    current snapshot to [counters] as ["profile.<stage>_ns"],
    ["profile.<stage>_minor_words"] and ["profile.<stage>_calls"].
    Additions commute, so merging snapshots from several flushes (or
    processes sharing a trace file) stays well-defined. *)
val record_counters : Trace.Counters.t -> unit

(** The current snapshot rendered as the aligned stage table ([""] when
    nothing was profiled). *)
val report : unit -> string
