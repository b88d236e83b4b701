module Prng = Repro_rng.Prng

type outcome = Hit | Miss

type t = {
  entries : int;
  page_bytes : int;
  page_shift : int;  (* >= 0 when page_bytes is a power of two, else -1 *)
  replacement : Config.replacement;
  pages : int array;  (* page number, -1 = invalid *)
  recency : int array;
  mutable mru : int;  (* last slot hit, -1 = none; a pure search shortcut *)
  mutable rr : int;
  mutable clock : int;
  mutable prng : Prng.t;  (* mutable so a reused simulator can be reseeded *)
  mutable hits : int;
  mutable misses : int;
}

let shift_of_page_bytes page_bytes =
  if page_bytes land (page_bytes - 1) <> 0 then -1
  else begin
    let rec go s = if 1 lsl s = page_bytes then s else go (s + 1) in
    go 0
  end

let create ~entries ~page_bytes ~replacement ~prng =
  if entries < 1 || page_bytes < 1 then
    invalid_arg "Tlb.create: entries and page_bytes must be >= 1";
  {
    entries;
    page_bytes;
    page_shift = shift_of_page_bytes page_bytes;
    replacement;
    pages = Array.make entries (-1);
    recency = Array.make entries 0;
    mru = -1;
    rr = 0;
    clock = 0;
    prng;
    hits = 0;
    misses = 0;
  }

(* Power-of-two page sizes (every real platform, and the reference LEON3's
   4 KiB pages) translate with a shift; the division only survives as a
   fallback for exotic geometries. *)
let page_of_addr t addr =
  if t.page_shift >= 0 then addr lsr t.page_shift else addr / t.page_bytes

(* Index of [page], or -1 when absent: the first match in entry order.  A
   sentinel instead of an [option], and a loop instead of a local closure,
   so the per-access lookup allocates nothing (pinned by test_hotpath's
   "allocation" group). *)
let find_slot t page =
  let pages = t.pages in
  let stop = t.entries in
  let i = ref 0 in
  while !i < stop && Array.unsafe_get pages !i <> page do
    incr i
  done;
  if !i < stop then !i else -1

let victim t =
  let pages = t.pages in
  let stop = t.entries in
  let invalid = ref 0 in
  while !invalid < stop && Array.unsafe_get pages !invalid <> -1 do
    incr invalid
  done;
  if !invalid < stop then !invalid
  else begin
    match t.replacement with
    | Config.Lru ->
        let recency = t.recency in
        let best = ref 0 in
        for i = 1 to stop - 1 do
          if Array.unsafe_get recency i < Array.unsafe_get recency !best then best := i
        done;
        !best
    | Config.Random_replacement -> Prng.int_below t.prng t.entries
    | Config.Round_robin ->
        let i = t.rr in
        t.rr <- (i + 1) mod t.entries;
        i
  end

let access t ~addr =
  let page = page_of_addr t addr in
  t.clock <- t.clock + 1;
  (* MRU shortcut: consecutive accesses overwhelmingly hit the page of the
     previous one (every instruction fetch, most data streams).  Stored
     pages are unique, so the hinted slot is exactly what [find_slot] would
     return — same outcome, same recency write, no PRNG interaction.  The
     SEU hook below drops the hint: a corrupted entry can duplicate a live
     page, and then only the scan's first-match answer is canonical. *)
  let mru = t.mru in
  if mru >= 0 && Array.unsafe_get t.pages mru = page then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set t.recency mru t.clock;
    Hit
  end
  else begin
    let slot = find_slot t page in
    if slot >= 0 then begin
      t.hits <- t.hits + 1;
      t.mru <- slot;
      Array.unsafe_set t.recency slot t.clock;
      Hit
    end
    else begin
      t.misses <- t.misses + 1;
      let slot = victim t in
      Array.unsafe_set t.pages slot page;
      Array.unsafe_set t.recency slot t.clock;
      t.mru <- slot;
      Miss
    end
  end

(* [k] more hits on the MRU page at once: same counters, clock and recency
   stamp as [k] single [access]es, none of which would draw. *)
let add_mru_hits t k =
  let mru = t.mru in
  if mru < 0 then invalid_arg "Tlb.add_mru_hits: no MRU entry";
  t.hits <- t.hits + k;
  t.clock <- t.clock + k;
  Array.unsafe_set t.recency mru t.clock

let flush t =
  Array.fill t.pages 0 t.entries (-1);
  Array.fill t.recency 0 t.entries 0;
  t.mru <- -1;
  t.rr <- 0;
  t.clock <- 0

let entries t = t.entries
let page_shift t = t.page_shift

(* SEU hook: flip one of bits 0-29 of a stored page number, as {!Fault}
   draws them.  An upset in an invalid entry has no architectural state to
   corrupt and is absorbed. *)
let inject_entry_flip t ~entry ~bit =
  if entry < 0 || entry >= t.entries || bit < 0 || bit >= 30 then
    invalid_arg "Tlb.inject_entry_flip: out of range";
  let page = t.pages.(entry) in
  if page >= 0 then begin
    t.pages.(entry) <- page lxor (1 lsl bit) land max_int;
    (* The flip can duplicate a live page; from here on only the scan's
       first-match answer is canonical, so drop the MRU hint. *)
    t.mru <- -1
  end

type stats = { hits : int; misses : int }

let stats (t : t) = { hits = t.hits; misses = t.misses }

let reset_stats (t : t) =
  t.hits <- 0;
  t.misses <- 0

(* Run boundary in one pass; [create] draws nothing, so [reseed] only
   rebinds the stream the random-replacement victim picker draws from. *)
let reset_run t =
  flush t;
  reset_stats t

let reseed t ~prng = t.prng <- prng
