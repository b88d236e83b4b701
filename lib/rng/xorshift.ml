(* State [s0; s1] as the two 64-bit words of one 16-byte [Bytes], read
   and written unboxed ({!Generator.Word}), so a draw allocates nothing. *)
type state = Bytes.t

open Generator.Word

let name = "xorshift128+"

let create seed =
  let sm = Splitmix.create seed in
  let t = Bytes.create 16 in
  set64 t 0 (Splitmix.next_nonzero sm);
  set64 t 8 (Splitmix.next_nonzero sm);
  t

(* One xorshift128+ step; the upper 32 bits of the sum have the best
   statistical quality. *)
let next32 t =
  let x = get64 t 0 and y = get64 t 8 in
  let result = Int64.add x y in
  set64 t 0 y;
  let x = Int64.logxor x (Int64.shift_left x 23) in
  set64 t 8
    (Int64.logxor
       (Int64.logxor (Int64.logxor x y) (Int64.shift_right_logical x 17))
       (Int64.shift_right_logical y 26));
  Int64.to_int (Int64.shift_right_logical result 32)

let copy = Bytes.copy
