(** Fully associative translation lookaside buffer (64 entries in the
    reference platform), with LRU or random replacement.  The paper
    randomizes ITLB and DTLB replacement on the MBPTA-compliant platform. *)

type t

type outcome = Hit | Miss

val create :
  entries:int ->
  page_bytes:int ->
  replacement:Config.replacement ->
  prng:Repro_rng.Prng.t ->
  t

(** [access t ~addr] translates the page containing [addr], allocating on
    miss. *)
val access : t -> addr:int -> outcome

(** [add_mru_hits t k] — the state [k] more [access]es to the page of the
    last access would leave (hits, clock, recency stamp; no PRNG draw);
    [k >= 0].  Raises [Invalid_argument] when there is no such entry
    (after a flush or an SEU hook). *)
val add_mru_hits : t -> int -> unit

val flush : t -> unit

val entries : t -> int

(** [addr lsr page_shift t] is the page number of byte [addr] when the
    page size is a power of two; [-1] otherwise. *)
val page_shift : t -> int

(** SEU hook (driven by {!Fault}): flip bit [bit], in [[0, 30)], of the
    page number stored in [entry].  The stale translation makes the
    original page miss again; an upset in an invalid entry is absorbed.
    Raises [Invalid_argument] on an entry or bit out of range. *)
val inject_entry_flip : t -> entry:int -> bit:int -> unit

type stats = { hits : int; misses : int }

val stats : t -> stats
val reset_stats : t -> unit

(** One-pass run boundary: {!flush} then {!reset_stats}. *)
val reset_run : t -> unit

(** Rebind to a fresh PRNG stream ([create] draws nothing, so this is the
    whole reuse contract for a TLB). *)
val reseed : t -> prng:Repro_rng.Prng.t -> unit
