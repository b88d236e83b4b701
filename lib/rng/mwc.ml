(* x (low 32 bits) and carry (high 32 bits) packed in the one 64-bit word
   of an 8-byte [Bytes], read and written unboxed ({!Generator.Word}). *)
type state = Bytes.t

open Generator.Word

let name = "mwc32"

(* MWC with a = 4294957665 = 0xFFFFDA61. *)
let a = 0xFFFFDA61L

let create seed =
  let sm = Splitmix.create seed in
  (* Low 32 bits = x, high 32 bits = carry; carry must be in [1, a-1]. *)
  let x = Int64.logand (Splitmix.next sm) 0xFFFFFFFFL in
  let c = Int64.add 1L (Int64.rem (Splitmix.next_nonzero sm) (Int64.sub a 2L)) in
  let c = if Int64.compare c 0L < 0 then Int64.neg c else c in
  let t = Bytes.create 8 in
  set64 t 0 (Int64.logor x (Int64.shift_left c 32));
  t

let copy = Bytes.copy

let next32 t =
  let v = get64 t 0 in
  let x = Int64.logand v 0xFFFFFFFFL in
  let c = Int64.shift_right_logical v 32 in
  let v = Int64.add (Int64.mul a x) c in
  set64 t 0 v;
  Int64.to_int (Int64.logand v 0xFFFFFFFFL)
