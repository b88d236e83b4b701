type t = { xs : float array }

let of_sample xs =
  if Array.length xs = 0 then invalid_arg "Ecdf.of_sample: empty sample";
  let copy = Array.copy xs in
  Descriptive.sort copy;
  { xs = copy }

let of_sorted xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Ecdf.of_sorted: empty sample";
  for i = 1 to n - 1 do
    if Float.compare xs.(i - 1) xs.(i) > 0 then
      invalid_arg "Ecdf.of_sorted: sample not sorted ascending"
  done;
  { xs = Array.copy xs }

let size t = Array.length t.xs
let order_statistic t i = t.xs.(i)
let sorted t = t.xs

(* Count of observations <= x, by binary search for the rightmost index. *)
let count_le t x =
  let n = Array.length t.xs in
  let rec go lo hi =
    (* invariant: xs.(lo-1) <= x < xs.(hi) with virtual sentinels *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.xs.(mid) <= x then go (mid + 1) hi else go lo mid
    end
  in
  go 0 n

let cdf t x = float_of_int (count_le t x) /. float_of_int (size t)

let quantile t p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Ecdf.quantile: p outside [0, 1]";
  let n = size t in
  if n = 1 then t.xs.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    t.xs.(lo) +. (frac *. (t.xs.(hi) -. t.xs.(lo)))
  end

let points t =
  let n = size t in
  let nf = float_of_int n in
  let rec go i acc =
    if i < 0 then acc
    else if i + 1 < n && t.xs.(i) = t.xs.(i + 1) then go (i - 1) acc
    else go (i - 1) ((t.xs.(i), float_of_int (i + 1) /. nf) :: acc)
  in
  go (n - 1) []

let ccdf_points t =
  points t
  |> List.filter_map (fun (x, p) -> if p < 1. then Some (x, 1. -. p) else None)
