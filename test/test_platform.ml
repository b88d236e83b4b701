(* Tests for repro_platform: cache invariants under every placement and
   replacement policy, TLB, FPU latency model, DRAM row-buffer model, bus
   contention, and the end-to-end core timing model (determinism, layout
   sensitivity of DET vs insensitivity of RAND). *)

module Prng = Repro_rng.Prng
module P = Repro_platform
module I = Repro_isa.Instr
module Builder = Repro_isa.Builder
module Layout = Repro_isa.Layout
module Memory = Repro_isa.Memory

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

let small_geometry = { P.Config.size_bytes = 1024; line_bytes = 32; ways = 2 }
(* 1KB, 2-way, 32B lines -> 16 sets *)

let cache_config ?(placement = P.Config.Modulo) ?(replacement = P.Config.Lru) () =
  { P.Config.geometry = small_geometry; placement; replacement }

let make_cache ?placement ?replacement ?(seed = 1L) () =
  P.Cache.create ~config:(cache_config ?placement ?replacement ()) ~prng:(Prng.create seed)

let all_placements = [ P.Config.Modulo; P.Config.Random_modulo; P.Config.Hash_random ]
let all_replacements = [ P.Config.Lru; P.Config.Random_replacement; P.Config.Round_robin ]

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_geometry () =
  checki "sets" 16 (P.Config.sets small_geometry);
  checki "leon3 sets" 128 (P.Config.sets P.Config.leon3_geometry)

let test_geometry_invalid () =
  checkb "bad geometry rejected" true
    (try
       ignore (P.Config.sets { P.Config.size_bytes = 1000; line_bytes = 32; ways = 2 });
       false
     with Invalid_argument _ -> true)

let test_cold_miss_then_hit () =
  List.iter
    (fun placement ->
      List.iter
        (fun replacement ->
          let c = make_cache ~placement ~replacement () in
          checkb "first access misses" true
            (P.Cache.access c ~addr:0x1000 ~write:false = P.Cache.Miss);
          checkb "second access hits" true
            (P.Cache.access c ~addr:0x1000 ~write:false = P.Cache.Hit);
          (* same line, different byte *)
          checkb "same line hits" true
            (P.Cache.access c ~addr:0x101F ~write:false = P.Cache.Hit))
        all_replacements)
    all_placements

let test_capacity_within_bounds () =
  (* a working set equal to the capacity must fit under modulo+LRU *)
  let c = make_cache () in
  for line = 0 to 31 do
    ignore (P.Cache.access c ~addr:(line * 32) ~write:false)
  done;
  P.Cache.reset_stats c;
  for line = 0 to 31 do
    ignore (P.Cache.access c ~addr:(line * 32) ~write:false)
  done;
  let s = P.Cache.stats c in
  checki "all hits" 32 s.P.Cache.hits;
  checki "no misses" 0 s.P.Cache.misses

let test_conflict_eviction_modulo_lru () =
  (* three lines in the same set of a 2-way cache, cyclic access: LRU
     evicts each time *)
  let c = make_cache () in
  let addr i = i * 16 * 32 in
  (* same set 0 *)
  for round = 1 to 3 do
    ignore round;
    for i = 0 to 2 do
      ignore (P.Cache.access c ~addr:(addr i) ~write:false)
    done
  done;
  let s = P.Cache.stats c in
  checki "cyclic thrash misses" 9 s.P.Cache.misses

let test_write_through_no_allocate () =
  let c = make_cache () in
  checkb "write miss" true (P.Cache.access c ~addr:0x2000 ~write:true = P.Cache.Miss);
  (* no allocation on write miss: next read still misses *)
  checkb "read still misses" true (P.Cache.access c ~addr:0x2000 ~write:false = P.Cache.Miss);
  (* read allocated; write now hits and counts a write-through *)
  checkb "write hit after read" true (P.Cache.access c ~addr:0x2000 ~write:true = P.Cache.Hit);
  let s = P.Cache.stats c in
  checki "write-throughs" 2 s.P.Cache.write_throughs

(* Regression: a write miss must count exactly one access, one miss and one
   write-through — never a double-counted access or a dropped write-through.
   The invariant [hits + misses = accesses] and [write_throughs = writes] is
   checked over a mixed read/write stream under every policy pair. *)
let test_stats_invariant_mixed_stream =
  qtest
    (QCheck.Test.make ~count:100 ~name:"stats invariant on mixed read/write stream"
       QCheck.(
         triple (int_range 0 8) (int_range 0 2)
           (small_list (pair (int_range 0 0x7FFF) bool)))
       (fun (pl, rp, stream) ->
         let placement = List.nth all_placements (pl mod 3) in
         let replacement = List.nth all_replacements rp in
         let c = make_cache ~placement ~replacement () in
         let writes = ref 0 in
         List.iter
           (fun (addr, write) ->
             if write then incr writes;
             ignore (P.Cache.access c ~addr ~write))
           stream;
         (* [stats] itself raises if hits + misses <> accesses *)
         let s = P.Cache.stats c in
         s.P.Cache.accesses = List.length stream
         && s.P.Cache.hits + s.P.Cache.misses = s.P.Cache.accesses
         && s.P.Cache.write_throughs = !writes))

let test_probe_no_side_effect () =
  let c = make_cache () in
  checkb "probe misses" true (P.Cache.probe c ~addr:0x3000 = P.Cache.Miss);
  checkb "probe did not allocate" true (P.Cache.probe c ~addr:0x3000 = P.Cache.Miss);
  let s = P.Cache.stats c in
  checki "probe not counted" 0 (s.P.Cache.hits + s.P.Cache.misses)

let test_flush_invalidates () =
  let c = make_cache () in
  ignore (P.Cache.access c ~addr:0x1000 ~write:false);
  P.Cache.flush c;
  checkb "flushed line misses" true (P.Cache.access c ~addr:0x1000 ~write:false = P.Cache.Miss)

let test_modulo_placement_layout_function () =
  let c = make_cache () in
  checki "set of addr 0" 0 (P.Cache.set_of_addr c 0);
  checki "set of line 17" 1 (P.Cache.set_of_addr c (17 * 32));
  (* contiguous lines hit distinct sets *)
  let sets = List.init 16 (fun i -> P.Cache.set_of_addr c (i * 32)) in
  checki "16 distinct sets" 16 (List.length (List.sort_uniq compare sets))

let test_random_modulo_preserves_window_spread () =
  (* key property of random modulo (DAC'16): lines within one window (equal
     tag) still occupy pairwise distinct sets *)
  List.iter
    (fun seed ->
      let c = make_cache ~placement:P.Config.Random_modulo ~seed () in
      let window_base = 4096 * 7 in
      let sets = List.init 16 (fun i -> P.Cache.set_of_addr c (window_base + (i * 32))) in
      checki "distinct sets within window" 16 (List.length (List.sort_uniq compare sets)))
    [ 1L; 2L; 3L; 42L ]

let test_random_modulo_changes_across_flush () =
  let c = make_cache ~placement:P.Config.Random_modulo () in
  let observe () = List.init 16 (fun i -> P.Cache.set_of_addr c (i * 32 * 17)) in
  let before = observe () in
  (* several flushes: mapping should change at least once *)
  let changed = ref false in
  for _ = 1 to 8 do
    P.Cache.flush c;
    if observe () <> before then changed := true
  done;
  checkb "mapping reseeded by flush" true !changed

let test_modulo_stable_across_flush () =
  let c = make_cache ~placement:P.Config.Modulo () in
  let observe () = List.init 16 (fun i -> P.Cache.set_of_addr c (i * 32 * 17)) in
  let before = observe () in
  P.Cache.flush c;
  checkb "modulo mapping fixed" true (observe () = before)

let test_hash_random_spreads =
  qtest
    (QCheck.Test.make ~name:"hash placement spreads lines" ~count:20 QCheck.int64
       (fun seed ->
         let c = make_cache ~placement:P.Config.Hash_random ~seed () in
         (* 256 consecutive lines over 16 sets: every set should be used *)
         let used = Array.make 16 false in
         for i = 0 to 255 do
           used.(P.Cache.set_of_addr c (i * 32)) <- true
         done;
         Array.for_all Fun.id used))

let test_replacement_round_robin () =
  let c = make_cache ~replacement:P.Config.Round_robin () in
  let addr i = i * 16 * 32 in
  (* fill both ways of set 0 with lines 0,1; then line 2 evicts way 0 (line
     0); then accessing line 1 still hits, line 0 misses. *)
  ignore (P.Cache.access c ~addr:(addr 0) ~write:false);
  ignore (P.Cache.access c ~addr:(addr 1) ~write:false);
  ignore (P.Cache.access c ~addr:(addr 2) ~write:false);
  checkb "line1 survives" true (P.Cache.probe c ~addr:(addr 1) = P.Cache.Hit);
  checkb "line0 evicted" true (P.Cache.probe c ~addr:(addr 0) = P.Cache.Miss)

let test_replacement_random_eventually_evicts_any_way () =
  (* with random replacement, both victims are eventually chosen *)
  let evicted0 = ref false and evicted1 = ref false in
  for seed = 1 to 20 do
    let c = make_cache ~replacement:P.Config.Random_replacement ~seed:(Int64.of_int seed) () in
    let addr i = i * 16 * 32 in
    ignore (P.Cache.access c ~addr:(addr 0) ~write:false);
    ignore (P.Cache.access c ~addr:(addr 1) ~write:false);
    ignore (P.Cache.access c ~addr:(addr 2) ~write:false);
    if P.Cache.probe c ~addr:(addr 0) = P.Cache.Miss then evicted0 := true;
    if P.Cache.probe c ~addr:(addr 1) = P.Cache.Miss then evicted1 := true
  done;
  checkb "way holding line0 chosen sometimes" true !evicted0;
  checkb "way holding line1 chosen sometimes" true !evicted1

(* Differential check: the modulo+LRU cache must agree, access by access,
   with an obviously-correct reference simulator (per-set list of lines in
   recency order).  A write hit refreshes recency like a read; a write miss
   allocates nothing. *)
let reference_lru_trace ~sets ~ways ~line_bytes accesses =
  let table = Array.make sets [] in
  List.map
    (fun (addr, write) ->
      let line = addr / line_bytes in
      let set = line mod sets in
      let entry = table.(set) in
      if List.mem line entry then begin
        table.(set) <- line :: List.filter (fun l -> l <> line) entry;
        P.Cache.Hit
      end
      else begin
        if not write then begin
          let kept = if List.length entry >= ways then List.filteri (fun i _ -> i < ways - 1) entry else entry in
          table.(set) <- line :: kept
        end;
        P.Cache.Miss
      end)
    accesses

(* Half the lines spread over 0-255; the other half come from 32 lines
   that recur (4 to a set) and whose line numbers differ by multiples of
   1,024, so equal low bits meet both on hits and on evictions.  One
   access in four is a write. *)
let lru_access =
  QCheck.(
    pair
      (oneof
         [
           int_range 0 255;
           map (fun (i, k) -> i + (1024 * k)) (pair (int_range 0 7) (int_range 0 3));
         ])
      (map (fun n -> n = 0) (int_range 0 3)))

let test_cache_differential_lru =
  qtest
    (QCheck.Test.make ~name:"modulo+LRU cache == reference model" ~count:200
       QCheck.(list_of_size (Gen.int_range 1 300) lru_access)
       (fun lines ->
         let accesses = List.map (fun (line, write) -> (line * 32, write)) lines in
         let c = make_cache () in
         let got = List.map (fun (addr, write) -> P.Cache.access c ~addr ~write) accesses in
         let expected = reference_lru_trace ~sets:16 ~ways:2 ~line_bytes:32 accesses in
         got = expected))

(* An upset that leaves two ways of one set holding the same line: the
   next access touches the first of them in way order, as the placement-
   then-scan lookup finds it.  In set 0 of the 16-set 2-way LRU cache,
   way 0 gets line 48 and way 1 line 16, and line 16 is looked up last;
   [upset] then turns way 0 into a second copy of line 16.  Re-reading
   line 16 must touch way 0, so the fill of line 32 evicts way 1, and a
   valid-bit flip at way 0 removes line 16 and keeps line 32.  Had the
   re-read touched way 1, the fill would evict way 0 and the flip would
   remove line 32 instead. *)
let test_cache_alias_after_upset () =
  let addr line = line * 32 in
  let check what upset =
    let c = make_cache () in
    List.iter (fun line -> ignore (P.Cache.access c ~addr:(addr line) ~write:false)) [ 48; 16 ];
    upset c;
    checkb (what ^ ": both copies hit") true
      (P.Cache.access c ~addr:(addr 16) ~write:false = P.Cache.Hit);
    checkb (what ^ ": line 32 fills") true
      (P.Cache.access c ~addr:(addr 32) ~write:false = P.Cache.Miss);
    P.Cache.inject_valid_flip c ~set:0 ~way:0 ~garbage_line:0;
    checkb (what ^ ": line 16 was in way 0") true (P.Cache.probe c ~addr:(addr 16) = P.Cache.Miss);
    checkb (what ^ ": line 32 went to way 1") true (P.Cache.probe c ~addr:(addr 32) = P.Cache.Hit)
  in
  (* 48 = 16 lxor (1 lsl 5) *)
  check "tag flip" (fun c -> P.Cache.inject_tag_flip c ~set:0 ~way:0 ~bit:5);
  (* way 0 emptied, line 16 looked up in way 1, then way 0 revived as 16 *)
  check "valid flip" (fun c ->
      P.Cache.inject_valid_flip c ~set:0 ~way:0 ~garbage_line:0;
      checkb "valid flip: line 16 in way 1" true
        (P.Cache.access c ~addr:(addr 16) ~write:false = P.Cache.Hit);
      P.Cache.inject_valid_flip c ~set:0 ~way:0 ~garbage_line:16)

let test_cache_hit_after_access_any_policy =
  qtest
    (QCheck.Test.make ~name:"read-after-read hits under every policy" ~count:100
       QCheck.(pair int64 (list_of_size (Gen.int_range 1 100) (int_range 0 4095)))
       (fun (seed, raw) ->
         List.for_all
           (fun placement ->
             List.for_all
               (fun replacement ->
                 let c = make_cache ~placement ~replacement ~seed () in
                 List.for_all
                   (fun i ->
                     let addr = i * 32 in
                     ignore (P.Cache.access c ~addr ~write:false);
                     (* immediate re-read of the same line always hits *)
                     P.Cache.access c ~addr ~write:false = P.Cache.Hit)
                   raw)
               all_replacements)
           all_placements))

(* ------------------------------------------------------------------ *)
(* TLB *)

let make_tlb ?(entries = 4) ?(replacement = P.Config.Lru) () =
  P.Tlb.create ~entries ~page_bytes:4096 ~replacement ~prng:(Prng.create 9L)

(* [add_mru_hits k] against [k] real hits on twin structures: a shared
   warm-up ending on one address, [k] more reads of it on one twin and the
   bulk call on the other, then an evicting stream; outcomes and counters
   must agree at every step.  With no MRU entry the bulk call raises. *)
let bulk_hit_stream = Array.init 300 (fun i -> (i * 7919) mod 48 * 96)

let test_cache_bulk_mru_hits () =
  List.iter
    (fun placement ->
      List.iter
        (fun replacement ->
          let single = make_cache ~placement ~replacement ()
          and bulk = make_cache ~placement ~replacement () in
          Array.iteri
            (fun i addr ->
              checkb "same outcome" true
                (P.Cache.access single ~addr ~write:false
                = P.Cache.access bulk ~addr ~write:false);
              if i = 100 then begin
                for _ = 1 to 5 do
                  ignore (P.Cache.access single ~addr:(addr + 4) ~write:false)
                done;
                P.Cache.add_mru_hits bulk 5
              end)
            bulk_hit_stream;
          checkb "same stats" true (P.Cache.stats single = P.Cache.stats bulk);
          P.Cache.flush bulk;
          Alcotest.check_raises "no MRU line after a flush"
            (Invalid_argument "Cache.add_mru_hits: no MRU line") (fun () ->
              P.Cache.add_mru_hits bulk 1))
        all_replacements)
    all_placements

let test_tlb_bulk_mru_hits () =
  List.iter
    (fun replacement ->
      let single = make_tlb ~entries:3 ~replacement ()
      and bulk = make_tlb ~entries:3 ~replacement () in
      Array.iteri
        (fun i addr ->
          let addr = addr * 64 in
          checkb "same outcome" true (P.Tlb.access single ~addr = P.Tlb.access bulk ~addr);
          if i = 100 then begin
            for _ = 1 to 5 do
              ignore (P.Tlb.access single ~addr)
            done;
            P.Tlb.add_mru_hits bulk 5
          end)
        bulk_hit_stream;
      checkb "same stats" true (P.Tlb.stats single = P.Tlb.stats bulk);
      P.Tlb.flush bulk;
      Alcotest.check_raises "no MRU entry after a flush"
        (Invalid_argument "Tlb.add_mru_hits: no MRU entry") (fun () ->
          P.Tlb.add_mru_hits bulk 1))
    all_replacements

(* An upset at bit b of a filled slot re-labels it by exactly that bit:
   the line or page with bit b flipped hits, which needs the stored tag to
   equal it, and the original misses.  A single-set cache looks every line
   up in the slot that was flipped, whatever its set-index bits. *)
let flip_line = 0x2A5_5A5A

let test_cache_tag_flip_bits () =
  let config =
    {
      P.Config.geometry = { P.Config.size_bytes = 32; line_bytes = 32; ways = 1 };
      placement = P.Config.Modulo;
      replacement = P.Config.Lru;
    }
  in
  let addr line = line lsl 5 in
  for bit = 0 to 29 do
    let c = P.Cache.create ~config ~prng:(Prng.create 1L) in
    ignore (P.Cache.access c ~addr:(addr flip_line) ~write:false);
    P.Cache.inject_tag_flip c ~set:0 ~way:0 ~bit;
    let what = Printf.sprintf "bit %d: " bit in
    checkb (what ^ "re-labelled line hits") true
      (P.Cache.probe c ~addr:(addr (flip_line lxor (1 lsl bit))) = P.Cache.Hit);
    checkb (what ^ "original line misses") true
      (P.Cache.probe c ~addr:(addr flip_line) = P.Cache.Miss)
  done;
  let c = P.Cache.create ~config ~prng:(Prng.create 1L) in
  List.iter
    (fun bit ->
      Alcotest.check_raises
        (Printf.sprintf "bit %d rejected" bit)
        (Invalid_argument "Cache.inject_tag_flip: site out of range")
        (fun () -> P.Cache.inject_tag_flip c ~set:0 ~way:0 ~bit))
    [ -1; 30; 62 ]

let test_tlb_entry_flip_bits () =
  let addr page = page * 4096 in
  for bit = 0 to 29 do
    let t = make_tlb ~entries:1 () in
    ignore (P.Tlb.access t ~addr:(addr flip_line));
    P.Tlb.inject_entry_flip t ~entry:0 ~bit;
    let what = Printf.sprintf "bit %d: " bit in
    (* the hit first: a miss would refill the one entry *)
    checkb (what ^ "re-labelled page hits") true
      (P.Tlb.access t ~addr:(addr (flip_line lxor (1 lsl bit))) = P.Tlb.Hit);
    checkb (what ^ "original page misses") true
      (P.Tlb.access t ~addr:(addr flip_line) = P.Tlb.Miss)
  done;
  let t = make_tlb ~entries:1 () in
  List.iter
    (fun bit ->
      Alcotest.check_raises
        (Printf.sprintf "bit %d rejected" bit)
        (Invalid_argument "Tlb.inject_entry_flip: out of range")
        (fun () -> P.Tlb.inject_entry_flip t ~entry:0 ~bit))
    [ -1; 30; 62 ]

let test_tlb_hit_after_miss () =
  let t = make_tlb () in
  checkb "miss" true (P.Tlb.access t ~addr:0x5000 = P.Tlb.Miss);
  checkb "hit same page" true (P.Tlb.access t ~addr:0x5FFF = P.Tlb.Hit);
  checkb "miss other page" true (P.Tlb.access t ~addr:0x6000 = P.Tlb.Miss)

let test_tlb_lru_eviction () =
  let t = make_tlb ~entries:2 () in
  ignore (P.Tlb.access t ~addr:0x1000);
  ignore (P.Tlb.access t ~addr:0x2000);
  ignore (P.Tlb.access t ~addr:0x1000);
  (* page 1 more recent *)
  ignore (P.Tlb.access t ~addr:0x3000);
  (* evicts page 2 *)
  checkb "page1 survives" true (P.Tlb.access t ~addr:0x1000 = P.Tlb.Hit);
  checkb "page2 evicted" true (P.Tlb.access t ~addr:0x2000 = P.Tlb.Miss)

let test_tlb_flush () =
  let t = make_tlb () in
  ignore (P.Tlb.access t ~addr:0x1000);
  P.Tlb.flush t;
  checkb "flushed" true (P.Tlb.access t ~addr:0x1000 = P.Tlb.Miss)

let test_tlb_stats () =
  let t = make_tlb () in
  ignore (P.Tlb.access t ~addr:0x1000);
  ignore (P.Tlb.access t ~addr:0x1000);
  let s = P.Tlb.stats t in
  checki "hits" 1 s.P.Tlb.hits;
  checki "misses" 1 s.P.Tlb.misses

(* ------------------------------------------------------------------ *)
(* FPU *)

let fpu mode = P.Fpu.create ~mode ~latencies:P.Config.default_latencies

(* The latency of [op] on operand values [x] and [y], held in a register
   file as the runner hands them over. *)
let latency f op ~x ~y = P.Fpu.latency f op [| x; y |] ~x:0 ~y:1

let test_fpu_short_ops_fixed () =
  List.iter
    (fun mode ->
      let f = fpu mode in
      checki "fadd" P.Config.default_latencies.P.Config.fp_short
        (latency f I.Fadd_op ~x:1.0 ~y:2.0);
      checki "fmul" P.Config.default_latencies.P.Config.fp_short
        (latency f I.Fmul_op ~x:1.0 ~y:2.0))
    [ P.Config.Value_dependent; P.Config.Worst_case_fixed ]

let test_fpu_worst_case_mode_constant () =
  let f = fpu P.Config.Worst_case_fixed in
  let l1 = latency f I.Fdiv_op ~x:1.0 ~y:3.0 in
  let l2 = latency f I.Fdiv_op ~x:123.456 ~y:0.001 in
  checki "fdiv constant" l1 l2;
  checki "fdiv is worst case" P.Fpu.worst_case_fdiv l1;
  checki "fsqrt is worst case" P.Fpu.worst_case_fsqrt
    (latency f I.Fsqrt_op ~x:2.0 ~y:0.0)

let test_fpu_value_dependent_varies () =
  let f = fpu P.Config.Value_dependent in
  let latencies =
    List.map
      (fun (x, y) -> latency f I.Fdiv_op ~x ~y)
      [ (1.0, 2.0); (1.0, 3.0); (7.13, 0.39); (5.5, 1.5); (1e10, 3.7) ]
  in
  checkb "fdiv latency varies with operands" true
    (List.length (List.sort_uniq compare latencies) > 1)

let test_fpu_value_dependent_bounded_by_worst () =
  let f = fpu P.Config.Value_dependent in
  let g = Prng.create 31L in
  for _ = 1 to 2000 do
    let x = Prng.gaussian g *. (10. ** float_of_int (Prng.int_below g 6)) in
    let y = Prng.gaussian g *. (10. ** float_of_int (Prng.int_below g 6)) in
    let ld = latency f I.Fdiv_op ~x ~y in
    checkb "fdiv <= worst" true (ld <= P.Fpu.worst_case_fdiv && ld >= 1);
    let ls = latency f I.Fsqrt_op ~x:(Float.abs x) ~y:0. in
    checkb "fsqrt <= worst" true (ls <= P.Fpu.worst_case_fsqrt && ls >= 1)
  done

let test_fpu_fast_paths () =
  let f = fpu P.Config.Value_dependent in
  checkb "power-of-two divisor fast" true
    (latency f I.Fdiv_op ~x:7.3 ~y:2.0
    < latency f I.Fdiv_op ~x:7.3 ~y:3.0);
  checkb "sqrt of one fast" true
    (latency f I.Fsqrt_op ~x:1.0 ~y:0.
    < latency f I.Fsqrt_op ~x:1.7 ~y:0.)

(* ------------------------------------------------------------------ *)
(* DRAM *)

let dram mode =
  P.Dram.create ~mode ~banks:4 ~row_bytes:2048 ~latencies:P.Config.default_latencies

let test_dram_row_hit_miss () =
  let d = dram P.Config.Open_page in
  let lat = P.Config.default_latencies in
  checki "first access misses row" lat.P.Config.dram_row_miss (P.Dram.access d ~addr:0x1000);
  checki "same row hits" lat.P.Config.dram_row_hit (P.Dram.access d ~addr:0x1100);
  let s = P.Dram.stats d in
  checki "row hits" 1 s.P.Dram.row_hits;
  checki "row misses" 1 s.P.Dram.row_misses

let test_dram_banks_independent () =
  let d = dram P.Config.Open_page in
  let lat = P.Config.default_latencies in
  ignore (P.Dram.access d ~addr:0);
  (* bank 0 row 0 *)
  ignore (P.Dram.access d ~addr:2048);
  (* bank 1 row 1 *)
  checki "bank0 row still open" lat.P.Config.dram_row_hit (P.Dram.access d ~addr:64)

let test_dram_fixed_mode () =
  let d = dram P.Config.Fixed_worst in
  let lat = P.Config.default_latencies in
  for i = 0 to 20 do
    checki "constant latency" lat.P.Config.dram_fixed (P.Dram.access d ~addr:(i * 512))
  done

let test_dram_flush_closes_rows () =
  let d = dram P.Config.Open_page in
  ignore (P.Dram.access d ~addr:0x1000);
  P.Dram.flush d;
  let lat = P.Config.default_latencies in
  checki "row closed" lat.P.Config.dram_row_miss (P.Dram.access d ~addr:0x1000)

(* ------------------------------------------------------------------ *)
(* Bus *)

let test_bus_no_contention () =
  let b = P.Bus.create ~latencies:P.Config.default_latencies ~contenders:[] in
  let g = Prng.create 7L in
  for _ = 1 to 50 do
    checki "bare transfer" P.Config.default_latencies.P.Config.bus_transfer
      (P.Bus.transaction b ~prng:g)
  done;
  checki "counted" 50 (P.Bus.count b)

let test_bus_full_pressure () =
  let b = P.Bus.create ~latencies:P.Config.default_latencies ~contenders:[ 1.; 1.; 1. ] in
  let g = Prng.create 7L in
  let t = P.Config.default_latencies.P.Config.bus_transfer in
  checki "worst-case arbitration" (4 * t) (P.Bus.transaction b ~prng:g)

let test_bus_partial_pressure_bounded () =
  let b = P.Bus.create ~latencies:P.Config.default_latencies ~contenders:[ 0.5 ] in
  let g = Prng.create 7L in
  let t = P.Config.default_latencies.P.Config.bus_transfer in
  for _ = 1 to 200 do
    let l = P.Bus.transaction b ~prng:g in
    checkb "within round-robin bound" true (l = t || l = 2 * t)
  done

(* ------------------------------------------------------------------ *)
(* Core timing model *)

(* Working set slightly above DL1 capacity (2500 * 8B = 20KB vs 16KB), swept
   twice: replacement and placement decisions then matter, so the
   randomized platform's timing genuinely depends on its seed. *)
let toy_program () =
  let b = Builder.create ~name:"toy" in
  Builder.declare_data b ~symbol:"v" ~elements:2500;
  Builder.label b "main";
  Builder.counted_loop b ~counter:6 ~from_:0 ~below:2 (fun () ->
      Builder.counted_loop b ~counter:4 ~from_:0 ~below:2500 (fun () ->
          Builder.emit b (I.Fld (0, Builder.at ~index_reg:4 "v"));
          Builder.emit b (I.Fli (1, 1.5));
          Builder.emit b (I.Fmul (0, 0, 1));
          Builder.emit b (I.Fst (0, Builder.at ~index_reg:4 "v"))));
  Builder.emit b (I.Fld (0, Builder.at "v"));
  Builder.emit b (I.Fsqrt (0, 0));
  Builder.emit b (I.Fdiv (0, 0, 1));
  Builder.emit b I.Halt;
  Builder.build b ~entry:"main"

let run_once ~config ~seed ?(layout_seed = None) () =
  let p = toy_program () in
  let layout =
    match layout_seed with
    | None -> Layout.sequential p
    | Some s -> Layout.scrambled ~seed:s p
  in
  let core = P.Core_sim.create ~config ~seed () in
  P.Core_sim.run_program core ~program:p ~layout ~memory:(Memory.create p)

let test_core_deterministic_per_seed () =
  List.iter
    (fun config ->
      let m1 = run_once ~config ~seed:5L () in
      let m2 = run_once ~config ~seed:5L () in
      checki "same seed same cycles" (P.Metrics.cycles m1) (P.Metrics.cycles m2))
    [ P.Config.deterministic; P.Config.mbpta_compliant ]

let test_det_insensitive_to_seed () =
  let m1 = run_once ~config:P.Config.deterministic ~seed:5L () in
  let m2 = run_once ~config:P.Config.deterministic ~seed:99L () in
  checki "DET ignores platform seed" (P.Metrics.cycles m1) (P.Metrics.cycles m2)

let test_rand_sensitive_to_seed () =
  let cycles seed = P.Metrics.cycles (run_once ~config:P.Config.mbpta_compliant ~seed ()) in
  let values = List.map cycles [ 1L; 2L; 3L; 4L; 5L; 6L ] in
  checkb "RAND varies with seed" true (List.length (List.sort_uniq compare values) > 1)

let test_det_sensitive_to_layout () =
  (* the memory layout changes DET timing (the effect random placement
     removes) *)
  let cycles layout_seed =
    P.Metrics.cycles
      (run_once ~config:P.Config.deterministic ~seed:1L ~layout_seed:(Some layout_seed) ())
  in
  let values = List.map cycles [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ] in
  checkb "DET varies with layout" true (List.length (List.sort_uniq compare values) > 1)

let test_metrics_accounting () =
  let m = run_once ~config:P.Config.deterministic ~seed:1L () in
  checkb "instructions counted" true (m.P.Metrics.instructions > 300);
  checkb "cycles at least instructions" true (m.P.Metrics.cycles >= m.P.Metrics.instructions);
  checki "fp long ops" 2 m.P.Metrics.fp_long_ops;
  checkb "dl1 seen accesses" true (m.P.Metrics.dl1_hits + m.P.Metrics.dl1_misses >= 128);
  checkb "il1 misses bounded by lines" true (m.P.Metrics.il1_misses < 64);
  checkb "bus transactions = il1+dl1 read misses" true (m.P.Metrics.bus_transactions > 0)

let test_reset_run_clears_state () =
  let p = toy_program () in
  let layout = Layout.sequential p in
  let core = P.Core_sim.create ~config:P.Config.deterministic ~seed:1L () in
  let m1 = P.Core_sim.run_program core ~program:p ~layout ~memory:(Memory.create p) in
  let m2 = P.Core_sim.run_program core ~program:p ~layout ~memory:(Memory.create p) in
  checki "flush between runs restores timing" (P.Metrics.cycles m1) (P.Metrics.cycles m2)

let test_advance () =
  let core = P.Core_sim.create ~config:P.Config.deterministic ~seed:1L () in
  P.Core_sim.reset_run core;
  P.Core_sim.advance core 100;
  checki "advance adds cycles" 100 (P.Core_sim.cycles core)

(* ------------------------------------------------------------------ *)
(* SoC: co-runner cores as bus pressure on the analyzed core *)

let test_soc_contention_slows () =
  let p = toy_program () in
  let layout = Layout.sequential p in
  let run contenders =
    let core = P.Core_sim.create ~contenders ~config:P.Config.mbpta_compliant ~seed:3L () in
    P.Metrics.cycles (P.Core_sim.run_program core ~program:p ~layout ~memory:(Memory.create p))
  in
  let alone = run [] in
  let idle = run [ 0.; 0.; 0. ] in
  let contended = run [ 1.; 1.; 1. ] in
  checki "idle co-runners harmless" alone idle;
  checkb "hogs slow core 0 down" true (contended > alone)

let () =
  Alcotest.run "repro_platform"
    [
      ( "cache",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "invalid geometry" `Quick test_geometry_invalid;
          Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
          Alcotest.test_case "capacity fits" `Quick test_capacity_within_bounds;
          Alcotest.test_case "conflict thrash (modulo+lru)" `Quick
            test_conflict_eviction_modulo_lru;
          Alcotest.test_case "write-through no-allocate" `Quick test_write_through_no_allocate;
          test_stats_invariant_mixed_stream;
          Alcotest.test_case "probe side-effect free" `Quick test_probe_no_side_effect;
          Alcotest.test_case "flush invalidates" `Quick test_flush_invalidates;
          Alcotest.test_case "modulo placement" `Quick test_modulo_placement_layout_function;
          Alcotest.test_case "random modulo window spread" `Quick
            test_random_modulo_preserves_window_spread;
          Alcotest.test_case "random modulo reseeds on flush" `Quick
            test_random_modulo_changes_across_flush;
          Alcotest.test_case "modulo stable across flush" `Quick test_modulo_stable_across_flush;
          test_hash_random_spreads;
          Alcotest.test_case "round robin" `Quick test_replacement_round_robin;
          Alcotest.test_case "random replacement" `Quick
            test_replacement_random_eventually_evicts_any_way;
          test_cache_differential_lru;
          test_cache_hit_after_access_any_policy;
          Alcotest.test_case "bulk MRU hits = single hits" `Quick test_cache_bulk_mru_hits;
          Alcotest.test_case "tag flip hits exactly bits 0-29" `Quick test_cache_tag_flip_bits;
          Alcotest.test_case "aliased line after an upset" `Quick test_cache_alias_after_upset;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit after miss" `Quick test_tlb_hit_after_miss;
          Alcotest.test_case "lru eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "flush" `Quick test_tlb_flush;
          Alcotest.test_case "stats" `Quick test_tlb_stats;
          Alcotest.test_case "bulk MRU hits = single hits" `Quick test_tlb_bulk_mru_hits;
          Alcotest.test_case "entry flip hits exactly bits 0-29" `Quick
            test_tlb_entry_flip_bits;
        ] );
      ( "fpu",
        [
          Alcotest.test_case "short ops fixed" `Quick test_fpu_short_ops_fixed;
          Alcotest.test_case "worst-case mode constant" `Quick
            test_fpu_worst_case_mode_constant;
          Alcotest.test_case "value-dependent varies" `Quick test_fpu_value_dependent_varies;
          Alcotest.test_case "bounded by worst case" `Quick
            test_fpu_value_dependent_bounded_by_worst;
          Alcotest.test_case "fast paths" `Quick test_fpu_fast_paths;
        ] );
      ( "dram",
        [
          Alcotest.test_case "row hit/miss" `Quick test_dram_row_hit_miss;
          Alcotest.test_case "banks independent" `Quick test_dram_banks_independent;
          Alcotest.test_case "fixed mode" `Quick test_dram_fixed_mode;
          Alcotest.test_case "flush closes rows" `Quick test_dram_flush_closes_rows;
        ] );
      ( "bus",
        [
          Alcotest.test_case "no contention" `Quick test_bus_no_contention;
          Alcotest.test_case "full pressure" `Quick test_bus_full_pressure;
          Alcotest.test_case "partial pressure bounded" `Quick
            test_bus_partial_pressure_bounded;
        ] );
      ( "core",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_core_deterministic_per_seed;
          Alcotest.test_case "DET seed-insensitive" `Quick test_det_insensitive_to_seed;
          Alcotest.test_case "RAND seed-sensitive" `Quick test_rand_sensitive_to_seed;
          Alcotest.test_case "DET layout-sensitive" `Quick test_det_sensitive_to_layout;
          Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
          Alcotest.test_case "reset_run clears state" `Quick test_reset_run_clears_state;
          Alcotest.test_case "advance" `Quick test_advance;
        ] );
      ( "soc",
        [
          Alcotest.test_case "contention slows" `Quick test_soc_contention_slows;
        ] );
    ]
