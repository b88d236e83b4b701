module Prng = Repro_rng.Prng

type site =
  | Cache_tag of { cache : [ `Il1 | `Dl1 ]; set : int; way : int; bit : int }
  | Cache_valid of { cache : [ `Il1 | `Dl1 ]; set : int; way : int }
  | Tlb_entry of { tlb : [ `Itlb | `Dtlb ]; entry : int; bit : int }
  | Int_register of { reg : int; bit : int }
  | Float_register of { reg : int; bit : int }

type record = { at_instruction : int; site : site }

type targets = {
  il1 : Cache.t;
  dl1 : Cache.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  corrupt_int_register : reg:int -> bit:int -> unit;
  corrupt_float_register : reg:int -> bit:int -> unit;
}

type t = {
  prng : Prng.t;
  rate : float;
  mutable next_at : int;  (* retired-instruction index of the next upset *)
  mutable count : int;
  mutable records : record list;  (* newest first *)
}

let mean_gap rate = 1_000_000. /. rate

(* Exponential inter-arrival, at least one instruction apart. *)
let draw_gap t = max 1 (int_of_float (Prng.exponential t.prng *. mean_gap t.rate))

let create ~rate ~seed =
  let prng = Prng.create seed in
  let t = { prng; rate; next_at = max_int; count = 0; records = [] } in
  if rate > 0. then t.next_at <- draw_gap t;
  t

let rate t = t.rate
let count t = t.count
let records t = List.rev t.records

let register_count = Repro_isa.Instr.register_count

let inject_one t ~retired targets =
  let site =
    match Prng.int_below t.prng 6 with
    | 0 | 1 ->
        (* cache tag or valid bit; both L1s are equally exposed *)
        let cache, c =
          if Prng.bool t.prng then (`Il1, targets.il1) else (`Dl1, targets.dl1)
        in
        let set = Prng.int_below t.prng (Cache.sets c) in
        let way = Prng.int_below t.prng (Cache.ways c) in
        if Prng.bool t.prng then begin
          let bit = Prng.int_below t.prng 30 in
          Cache.inject_tag_flip c ~set ~way ~bit;
          Cache_tag { cache; set; way; bit }
        end
        else begin
          Cache.inject_valid_flip c ~set ~way ~garbage_line:(Prng.bits32 t.prng);
          Cache_valid { cache; set; way }
        end
    | 2 ->
        let tlb, m =
          if Prng.bool t.prng then (`Itlb, targets.itlb) else (`Dtlb, targets.dtlb)
        in
        let entry = Prng.int_below t.prng (Tlb.entries m) in
        let bit = Prng.int_below t.prng 30 in
        Tlb.inject_entry_flip m ~entry ~bit;
        Tlb_entry { tlb; entry; bit }
    | 3 | 4 ->
        let reg = Prng.int_below t.prng register_count in
        let bit = Prng.int_below t.prng 32 in
        targets.corrupt_int_register ~reg ~bit;
        Int_register { reg; bit }
    | _ ->
        let reg = Prng.int_below t.prng register_count in
        let bit = Prng.int_below t.prng 64 in
        targets.corrupt_float_register ~reg ~bit;
        Float_register { reg; bit }
  in
  t.count <- t.count + 1;
  t.records <- { at_instruction = retired; site } :: t.records

let due t ~retired = retired >= t.next_at

let step t ~retired targets =
  while retired >= t.next_at do
    inject_one t ~retired targets;
    t.next_at <- t.next_at + draw_gap t
  done

let cache_name = function `Il1 -> "IL1" | `Dl1 -> "DL1"
let tlb_name = function `Itlb -> "ITLB" | `Dtlb -> "DTLB"

let pp_site ppf = function
  | Cache_tag { cache; set; way; bit } ->
      Format.fprintf ppf "%s tag bit %d (set %d, way %d)" (cache_name cache) bit set way
  | Cache_valid { cache; set; way } ->
      Format.fprintf ppf "%s valid bit (set %d, way %d)" (cache_name cache) set way
  | Tlb_entry { tlb; entry; bit } ->
      Format.fprintf ppf "%s entry %d bit %d" (tlb_name tlb) entry bit
  | Int_register { reg; bit } -> Format.fprintf ppf "r%d bit %d" reg bit
  | Float_register { reg; bit } -> Format.fprintf ppf "f%d bit %d" reg bit

let pp_record ppf r =
  Format.fprintf ppf "@[instr %d: %a@]" r.at_instruction pp_site r.site
