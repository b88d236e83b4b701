(** Seed-deterministic single-event-upset (SEU) injector.

    Space platforms operate under radiation: the dominant hazard is the SEU,
    a bit flip in a storage element (Fuchs et al., arXiv:1706.02086; Hoque
    et al., arXiv:1701.03836).  This module models SEUs as a Poisson process
    over the retired-instruction stream: inter-arrival gaps are exponential
    with mean [1e6 / rate] instructions, so [rate] reads as expected upsets
    per million retired instructions.

    Each upset strikes one uniformly chosen storage site among the
    architectural state the timing model carries: a cache tag bit, a cache
    valid bit, a TLB entry bit, or an executor register bit (integer or
    float).  Cache/TLB upsets perturb timing only (the model holds no data);
    register upsets can change the execution path, trap, diverge, or
    silently corrupt the program's output — which is exactly what the
    {e resilient} measurement protocol upstream must detect and classify.

    Everything is driven by a private {!Repro_rng.Prng} stream, so a given
    [(seed, rate)] pair yields the identical fault schedule and identical
    fault sites on every replay. *)

type t

(** Where an upset landed; recorded in injection order. *)
type site =
  | Cache_tag of { cache : [ `Il1 | `Dl1 ]; set : int; way : int; bit : int }
  | Cache_valid of { cache : [ `Il1 | `Dl1 ]; set : int; way : int }
  | Tlb_entry of { tlb : [ `Itlb | `Dtlb ]; entry : int; bit : int }
  | Int_register of { reg : int; bit : int }
  | Float_register of { reg : int; bit : int }

type record = { at_instruction : int; site : site }

(** The mutable state an injector strikes.  The register thunks let the
    platform hand over executor state without this module depending on
    the executor. *)
type targets = {
  il1 : Cache.t;
  dl1 : Cache.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  corrupt_int_register : reg:int -> bit:int -> unit;
  corrupt_float_register : reg:int -> bit:int -> unit;
}

(** [create ~rate ~seed] — [rate] is expected upsets per million retired
    instructions; [rate <= 0.] disables injection entirely (the injector
    never fires and costs one comparison per step). *)
val create : rate:float -> seed:int64 -> t

val rate : t -> float

(** [step t ~retired targets] — called once per retired instruction with the
    cumulative retired count; injects every upset whose scheduled arrival
    has been reached (possibly several). *)
val step : t -> retired:int -> targets -> unit

(** [due t ~retired] — whether {!step} at this retired count injects at
    least one upset; lets a caller bring the targets up to date first. *)
val due : t -> retired:int -> bool

(** Upsets injected so far. *)
val count : t -> int

(** Injection log, oldest first. *)
val records : t -> record list

val pp_record : Format.formatter -> record -> unit
