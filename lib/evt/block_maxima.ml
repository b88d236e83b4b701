(* [Float.max] tests a sign bit out of line whenever [y] is not larger,
   which is most of a block, so the two strict comparisons go first and
   [Float.max] settles only ties (+0 beats -0) and NaNs. *)
let[@inline] max x y = if y > x then y else if x > y then x else Float.max x y

let extract ~block_size xs =
  if block_size < 1 then invalid_arg "Block_maxima.extract: block_size < 1";
  let n = Array.length xs in
  let blocks = n / block_size in
  if blocks < 1 then invalid_arg "Block_maxima.extract: sample smaller than one block";
  let maxima = Array.make blocks 0. in
  for b = 0 to blocks - 1 do
    let start = b * block_size in
    let m = ref xs.(start) in
    for i = start + 1 to start + block_size - 1 do
      m := max !m xs.(i)
    done;
    maxima.(b) <- !m
  done;
  maxima

let suggest_block_size n =
  let rec grow candidate =
    let next = candidate * 2 in
    if next <= 64 && n / next >= 30 then grow next else candidate
  in
  if n < 30 then 1 else grow 1
