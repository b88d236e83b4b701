type algorithm = Xorshift128p | Pcg32 | Lfsr64 | Mwc32

type t = {
  algorithm : algorithm option;
  name : string;
  next32 : unit -> int;
  reseed : int64 -> t;
  duplicate : unit -> t;
}

let all_algorithms = [ Xorshift128p; Pcg32; Lfsr64; Mwc32 ]

let algorithm_name = function
  | Xorshift128p -> Xorshift.name
  | Pcg32 -> Pcg.name
  | Lfsr64 -> Lfsr.name
  | Mwc32 -> Mwc.name

let box (module G : Generator.S) ~algorithm seed =
  let rec make state =
    {
      algorithm;
      name = G.name;
      next32 = (fun () -> G.next32 state);
      reseed = (fun seed' -> make (G.create seed'));
      duplicate = (fun () -> make (G.copy state));
    }
  in
  make (G.create seed)

let of_module g seed = box g ~algorithm:None seed

let module_of_algorithm = function
  | Xorshift128p -> (module Xorshift : Generator.S)
  | Pcg32 -> (module Pcg)
  | Lfsr64 -> (module Lfsr)
  | Mwc32 -> (module Mwc)

let create ?(algorithm = Xorshift128p) seed =
  box (module_of_algorithm algorithm) ~algorithm:(Some algorithm) seed

let name t = t.name
let algorithm t = t.algorithm
let bits32 t = t.next32 ()

let[@inline] float t = Stdlib.float_of_int (bits32 t) *. 0x1p-32

(* [float t > 0.] exactly when its 32 bits are non-zero, so redrawing the
   bits is the same stream as redrawing the float. *)
let[@inline] float_pos t =
  let v = ref (bits32 t) in
  while !v = 0 do
    v := bits32 t
  done;
  Stdlib.float_of_int !v *. 0x1p-32

let int_below t n =
  if not (n >= 1 && n <= 0x100000000) then
    invalid_arg (Printf.sprintf "Prng.int_below: n %d outside [1, 2^32]" n);
  if n land (n - 1) = 0 then bits32 t land (n - 1)
  else begin
    (* Rejection sampling over the largest multiple of [n] below 2^32. *)
    let limit = 0x100000000 - (0x100000000 mod n) in
    let v = ref (bits32 t) in
    while !v >= limit do
      v := bits32 t
    done;
    !v mod n
  end

let int_in_range t ~lo ~hi =
  if lo > hi then
    invalid_arg (Printf.sprintf "Prng.int_in_range: empty range [%d, %d]" lo hi);
  lo + int_below t (hi - lo + 1)

let bool t = bits32 t land 1 = 1

let gaussian t =
  let u1 = float_pos t and u2 = float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let exponential t = -.log (float_pos t)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t =
  let seed =
    Int64.logor
      (Int64.shift_left (Int64.of_int (bits32 t)) 32)
      (Int64.of_int (bits32 t))
  in
  t.reseed seed

let copy t = t.duplicate ()
