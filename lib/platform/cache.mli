(** Set-associative cache timing model with the placement and replacement
    policies of the paper.

    Placement decides which set a line maps to:
    - [Modulo]: the conventional [line mod sets] — layout-sensitive;
    - [Random_modulo] (Hernandez et al., DAC 2016): the modulo index is
      rotated by a pseudo-random function of the line's tag and the per-run
      seed, so consecutive lines still occupy distinct sets (no intra-window
      conflicts) but the mapping changes every run;
    - [Hash_random] (Kosmidis et al., DATE 2013): the set is a pseudo-random
      hash of the full line address and the seed.

    Replacement decides the victim way: LRU, random, or round-robin
    (FIFO-per-set).

    The model tracks presence only (no data), which is all timing needs. *)

type t

type outcome = Hit | Miss

(** [create ~config ~prng] — [prng] drives random placement/replacement; a
    fresh per-run seed gives a fresh mapping (the paper sets "a new seed for
    each experiment"). *)
val create : config:Config.cache_config -> prng:Repro_rng.Prng.t -> t

(** [access t ~addr ~write] looks up the line containing byte [addr];
    allocation on read misses; write misses do not allocate (no-write-
    allocate) and write hits refresh recency only (write-through has no
    dirty state).

    A hit costs one memo check: a 1,024-entry memo, indexed by the line
    number's low bits, keeps the slot where each line was last found or
    filled, and when that slot still holds the line the probe skips the
    placement hash and the way scan.  Any other probe (a miss, a line
    whose entry another line with the same low bits took, the first probe
    after an SEU hook) computes the set and scans its ways, as {!probe}
    does, and records the slot it finds or fills.  A {!flush} keeps the
    memo: it invalidates every tag, so no entry passes the check until
    the full lookup rewrites it.  Outcomes, recency and PRNG draws are
    those of the full lookup. *)
val access : t -> addr:int -> write:bool -> outcome

(** [add_mru_hits t k] — the state [k] more read [access]es to the line of
    the last hit or fill would leave: counters, clock and that line's
    recency stamp, with no PRNG draw.  For callers that know the next [k]
    reads hit that line (consecutive fetches of one line); [k >= 0].
    Raises [Invalid_argument] when there is no such line (after a flush or
    an SEU hook). *)
val add_mru_hits : t -> int -> unit

(** [probe t ~addr] — lookup without side effects. *)
val probe : t -> addr:int -> outcome

(** Invalidate everything (per-run cache flush). *)
val flush : t -> unit

(** The set index [addr] currently maps to (depends on the seed for the
    randomized policies). *)
val set_of_addr : t -> int -> int

val sets : t -> int
val ways : t -> int

(** [addr lsr line_shift t] is the line number of byte [addr]: the unit
    the cache allocates, tags and hits on. *)
val line_shift : t -> int

(** {2 SEU injection hooks}

    Driven by {!Fault}; both model a single-event upset in the tag array of
    one way.  A tag-bit flip on a valid line re-labels the stored line (the
    original line misses from now on, an aliased line would falsely hit); a
    flip on an invalid way is absorbed (no architectural state held).  A
    valid-bit flip invalidates a valid line, or revives an invalid way with
    [garbage_line] — a stale/garbage tag, as after an upset in the valid
    bit.  [bit] must lie in [[0, 30)]; it and the site raise
    [Invalid_argument] out of range. *)

val inject_tag_flip : t -> set:int -> way:int -> bit:int -> unit
val inject_valid_flip : t -> set:int -> way:int -> garbage_line:int -> unit

type stats = { accesses : int; hits : int; misses : int; write_throughs : int }

(** [stats t] — counters since creation or the last {!reset_stats}.
    Guaranteed invariants, checked by a real guard (raises
    [Invalid_argument] if the accounting ever skews, e.g. a double-counted
    no-write-allocate miss): [hits + misses = accesses] and
    [write_throughs <= accesses] ([write_throughs] counts write accesses
    only — every write is a write-through regardless of hit/miss, since the
    model is write-through no-write-allocate). *)
val stats : t -> stats

val reset_stats : t -> unit

(** [reset_run t] — one-pass run boundary: {!flush} (which draws the fresh
    placement salt) then {!reset_stats}.  Bit-identical to calling the two
    separately. *)
val reset_run : t -> unit

(** [reseed t ~prng] rebinds the cache to a fresh PRNG stream, reproducing
    [create]'s draw (the initial placement salt) — the reuse half of the
    batched-run contract: [reseed] + [reset_run] gives the same outcomes,
    stats and draws as a fresh [create] + [reset_run]. *)
val reseed : t -> prng:Repro_rng.Prng.t -> unit
