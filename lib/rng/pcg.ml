(* State word [s] at offset 0 and stream selector [inc] at offset 8 of one
   16-byte [Bytes], read and written unboxed ({!Generator.Word}). *)
type state = Bytes.t

open Generator.Word

let name = "pcg32"

let multiplier = 6364136223846793005L

let create seed =
  let sm = Splitmix.create seed in
  let initstate = Splitmix.next sm in
  (* The stream selector must be odd. *)
  let inc = Int64.logor (Splitmix.next sm) 1L in
  let t = Bytes.create 16 in
  set64 t 8 inc;
  let s = Int64.add initstate inc in
  set64 t 0 (Int64.add (Int64.mul s multiplier) inc);
  t

let copy = Bytes.copy

let next32 t =
  let old = get64 t 0 in
  set64 t 0 (Int64.add (Int64.mul old multiplier) (get64 t 8));
  let xorshifted =
    Int64.shift_right_logical (Int64.logxor (Int64.shift_right_logical old 18) old) 27
  in
  let xorshifted = Int64.to_int (Int64.logand xorshifted 0xFFFFFFFFL) in
  let rot = Int64.to_int (Int64.shift_right_logical old 59) in
  if rot = 0 then xorshifted
  else ((xorshifted lsr rot) lor (xorshifted lsl (32 - rot))) land 0xFFFFFFFF
