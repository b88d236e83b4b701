(* The 64-bit register as the one word of an 8-byte [Bytes], read once
   and written once per draw, unboxed ({!Generator.Word}). *)
type state = Bytes.t

open Generator.Word

let name = "lfsr64"

(* Maximal-length polynomial x^64 + x^63 + x^61 + x^60 + 1 (taps as a mask). *)
let taps = 0xD800000000000000L

let create seed =
  let sm = Splitmix.create seed in
  let t = Bytes.create 8 in
  set64 t 0 (Splitmix.next_nonzero sm);
  t

(* 32 Galois shifts, the first output bit landing in the most significant
   position of the result. *)
let next32 t =
  let r = ref (get64 t 0) in
  let acc = ref 0 in
  for _ = 1 to 32 do
    let lsb = Int64.logand !r 1L in
    r := Int64.shift_right_logical !r 1;
    if Int64.equal lsb 1L then r := Int64.logxor !r taps;
    acc := (!acc lsl 1) lor Int64.to_int lsb
  done;
  set64 t 0 !r;
  !acc

let copy = Bytes.copy
