module Prng = Repro_rng.Prng

type outcome = Hit | Miss

(* Hot-path layout: [tags] and [recency] are single flat [int array]s
   indexed by [set * ways + way] (one bounds check and no nested-array
   indirection per probe), the power-of-two geometry is kept as shifts and
   masks so the per-access path divides nothing, and the placement /
   replacement modes are hoisted out of [config] into immediate fields so
   each access dispatches on one word.  [find_slot] returns a sentinel int
   instead of an [option], and the scans below are loops, not local
   closures (which non-flambda ocamlopt allocates on every call): the
   lookup path allocates nothing, as test_hotpath's "allocation" group
   pins. *)
type t = {
  config : Config.cache_config;
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;  (* line_bytes = 1 lsl line_shift *)
  set_mask : int;  (* sets - 1 *)
  set_shift : int;  (* sets = 1 lsl set_shift *)
  placement : Config.placement;
  replacement : Config.replacement;
  tags : int array;  (* sets*ways, flat; full line number, -1 = invalid *)
  recency : int array;  (* sets*ways, flat; last-use stamp for LRU *)
  rr : int array;  (* per-set round-robin pointer *)
  memo : int array;
      (* memo_size entries, indexed [line land memo_mask]: the slot where
         that line was last found or filled, -1 = none; a pure search
         shortcut *)
  mutable mru : int;  (* last slot hit/filled, -1 = none; read by [add_mru_hits] *)
  mutable clock : int;
  mutable prng : Prng.t;  (* mutable so a reused simulator can be reseeded *)
  mutable seed_material : int;  (* per-flush salt for randomized placement *)
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable write_throughs : int;
}

(* A power of two above the line span of TVCA's code (181 lines) and data
   (702 lines), each range from an aligned base, so no two lines a run
   touches share an entry of one cache's memo; a collision would only send
   the probe down the full path. *)
let memo_size = 1024
let memo_mask = memo_size - 1

(* splitmix-like 2-in-1 mixer used as the placement hash. *)
let mix a b =
  let z = Int64.of_int ((a * 0x9E3779B9) lxor (b * 0x85EBCA6B)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logand (Int64.logxor z (Int64.shift_right_logical z 31)) 0x3FFFFFFFFFFFFFFFL)

let log2_exact n =
  let rec go s = if 1 lsl s = n then s else go (s + 1) in
  go 0

let create ~config ~prng =
  let sets = Config.sets config.Config.geometry in
  let ways = config.Config.geometry.Config.ways in
  let line_bytes = config.Config.geometry.Config.line_bytes in
  {
    config;
    sets;
    ways;
    line_bytes;
    line_shift = log2_exact line_bytes;
    set_mask = sets - 1;
    set_shift = log2_exact sets;
    placement = config.Config.placement;
    replacement = config.Config.replacement;
    tags = Array.make (sets * ways) (-1);
    recency = Array.make (sets * ways) 0;
    rr = Array.make sets 0;
    memo = Array.make memo_size (-1);
    mru = -1;
    clock = 0;
    prng;
    seed_material = Prng.bits32 prng;
    accesses = 0;
    hits = 0;
    misses = 0;
    write_throughs = 0;
  }

let sets t = t.sets
let ways t = t.ways
let line_shift t = t.line_shift

let line_of_addr t addr = addr lsr t.line_shift

let set_of_line t line =
  match t.placement with
  | Config.Modulo -> line land t.set_mask
  | Config.Random_modulo ->
      (* Rotate the conventional index by a hash of the tag: lines within the
         same window (equal tag) keep distinct sets. *)
      let index = line land t.set_mask in
      let tag = line lsr t.set_shift in
      (index + mix tag t.seed_material) land t.set_mask
  | Config.Hash_random -> mix line t.seed_material land t.set_mask

let set_of_addr t addr = set_of_line t (line_of_addr t addr)

(* Flat index of [line] within the set starting at [base = set * ways], or
   -1 when absent: the first match in way order.  No allocation (the index
   is a local ref, which the compiler keeps in a register); bounds are
   established by construction. *)
let find_slot t ~base line =
  let tags = t.tags in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && Array.unsafe_get tags !i <> line do
    incr i
  done;
  if !i < stop then !i else -1

let touch t slot =
  t.clock <- t.clock + 1;
  Array.unsafe_set t.recency slot t.clock

(* Victim slot in the set starting at [base]: prefer an invalid way. *)
let victim_slot t ~set ~base =
  let tags = t.tags in
  let stop = base + t.ways in
  let invalid = ref base in
  while !invalid < stop && Array.unsafe_get tags !invalid <> -1 do
    incr invalid
  done;
  if !invalid < stop then !invalid
  else begin
    match t.replacement with
    | Config.Lru ->
        let recency = t.recency in
        let best = ref base in
        for i = base + 1 to stop - 1 do
          if Array.unsafe_get recency i < Array.unsafe_get recency !best then best := i
        done;
        !best
    | Config.Random_replacement -> base + Prng.int_below t.prng t.ways
    | Config.Round_robin ->
        let w = t.rr.(set) in
        t.rr.(set) <- (w + 1) mod t.ways;
        base + w
  end

let access t ~addr ~write =
  let line = addr lsr t.line_shift in
  t.accesses <- t.accesses + 1;
  if write then t.write_throughs <- t.write_throughs + 1;
  (* Memo shortcut: the memo holds only slots that the placement-then-
     scan path below found or filled for a line, and a stored tag is the
     full line number, unique cache-wide within a run, so a tag match at
     the memoized slot is exactly the hit [find_slot] would find, without
     computing the set (the randomized placements hash on every probe).
     Same outcome, same recency write, no PRNG interaction.  The SEU hooks
     below clear the memo: a corrupted tag can alias a live line, and then
     only the placement-then-scan answer is canonical. *)
  let key = line land memo_mask in
  let slot = Array.unsafe_get t.memo key in
  if slot >= 0 && Array.unsafe_get t.tags slot = line then begin
    t.hits <- t.hits + 1;
    t.mru <- slot;
    touch t slot;
    Hit
  end
  else begin
    let set = set_of_line t line in
    let base = set * t.ways in
    let slot = find_slot t ~base line in
    if slot >= 0 then begin
      t.hits <- t.hits + 1;
      Array.unsafe_set t.memo key slot;
      t.mru <- slot;
      touch t slot;
      Hit
    end
    else begin
      t.misses <- t.misses + 1;
      (* no-write-allocate: a write miss goes straight through, only a read
         miss allocates (and refreshes recency). *)
      if not write then begin
        let slot = victim_slot t ~set ~base in
        Array.unsafe_set t.tags slot line;
        Array.unsafe_set t.memo key slot;
        t.mru <- slot;
        touch t slot
      end;
      Miss
    end
  end

(* [k] more read hits on the MRU line, applied at once: the counters and
   the clock advance by [k] and the line's recency stamp lands where the
   last of [k] single [access]es would have put it.  A read hit touches
   nothing else and draws nothing, so the state is exactly that of [k]
   calls. *)
let add_mru_hits t k =
  let mru = t.mru in
  if mru < 0 then invalid_arg "Cache.add_mru_hits: no MRU line";
  t.accesses <- t.accesses + k;
  t.hits <- t.hits + k;
  t.clock <- t.clock + k;
  Array.unsafe_set t.recency mru t.clock

let probe t ~addr =
  let line = line_of_addr t addr in
  let set = set_of_line t line in
  if find_slot t ~base:(set * t.ways) line >= 0 then Hit else Miss

(* Forget both search shortcuts, the memo and the MRU slot. *)
let drop_hints t =
  Array.fill t.memo 0 memo_size (-1);
  t.mru <- -1

(* The memo survives a flush: every tag is invalid afterwards, so a stale
   entry fails the tag check, and a line's entry matches again only once
   the full path has found or filled it, which rewrites the entry. *)
let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.recency 0 (Array.length t.recency) 0;
  Array.fill t.rr 0 t.sets 0;
  t.mru <- -1;
  t.clock <- 0;
  (* A flush models a run boundary: draw a fresh placement salt. *)
  t.seed_material <- Prng.bits32 t.prng

(* ---- SEU injection hooks (driven by Fault) ---- *)

(* An upset reaches bits 0-29 of a tag, as {!Fault} draws them. *)
let inject_tag_flip t ~set ~way ~bit =
  if set < 0 || set >= t.sets || way < 0 || way >= t.ways || bit < 0 || bit >= 30 then
    invalid_arg "Cache.inject_tag_flip: site out of range";
  let slot = (set * t.ways) + way in
  let tag = t.tags.(slot) in
  if tag >= 0 then begin
    (* Flipping a tag bit re-labels the stored line: the original line will
       now miss, and the aliased line would falsely hit.  Keep the result
       non-negative so it never collides with the invalid sentinel. *)
    t.tags.(slot) <- tag lxor (1 lsl bit) land max_int;
    drop_hints t
  end

let inject_valid_flip t ~set ~way ~garbage_line =
  if set < 0 || set >= t.sets || way < 0 || way >= t.ways then
    invalid_arg "Cache.inject_valid_flip: site out of range";
  let slot = (set * t.ways) + way in
  if t.tags.(slot) >= 0 then t.tags.(slot) <- -1 else t.tags.(slot) <- abs garbage_line;
  drop_hints t

type stats = { accesses : int; hits : int; misses : int; write_throughs : int }

(* Counter invariants: every access is exactly one hit or one miss, and
   write-throughs count write accesses only (a subset of all accesses).
   Violations would mean the no-write-allocate path double-counted — guard
   for it here instead of letting a skewed miss ratio poison downstream
   timing statistics silently. *)
let stats (t : t) =
  if t.hits + t.misses <> t.accesses then
    invalid_arg
      (Printf.sprintf "Cache.stats: counter invariant violated (%d hits + %d misses <> %d accesses)"
         t.hits t.misses t.accesses);
  if t.write_throughs > t.accesses then
    invalid_arg
      (Printf.sprintf "Cache.stats: counter invariant violated (%d write-throughs > %d accesses)"
         t.write_throughs t.accesses);
  { accesses = t.accesses; hits = t.hits; misses = t.misses; write_throughs = t.write_throughs }

let reset_stats (t : t) =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.write_throughs <- 0

(* Run boundary in one pass: invalidate, fresh placement salt, zero stats.
   Draw order is exactly flush-then-reset_stats (reset_stats draws
   nothing), so batched campaigns replaying this per run stay bit-identical
   to the retired two-call sequence. *)
let reset_run t =
  flush t;
  reset_stats t

(* Rebind to a fresh PRNG stream, reproducing [create]'s draws (one bits32
   for the initial placement salt).  After [reseed] + [reset_run] the cache
   gives the same outcomes, stats and draws as a cache freshly built by
   [create ~config ~prng] + [reset_run]; only the memo may differ, and it
   holds no entry that passes the tag check. *)
let reseed t ~prng =
  t.prng <- prng;
  t.seed_material <- Prng.bits32 prng
