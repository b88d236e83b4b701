(** Measurement record of one run on the simulated platform: the cycle count
    (the paper's "execution time") plus the micro-architectural event
    counters behind it. *)

type t = {
  cycles : int;
  instructions : int;
  il1_hits : int;
  il1_misses : int;
  dl1_hits : int;
  dl1_misses : int;
  itlb_misses : int;
  dtlb_misses : int;
  bus_transactions : int;
  dram_row_hits : int;
  dram_row_misses : int;
  fp_long_ops : int;
  taken_branches : int;
  faults_injected : int;
      (** SEUs injected into this run by {!Fault} (0 on a fault-free run) *)
}

val cycles : t -> int

val pp : Format.formatter -> t -> unit
