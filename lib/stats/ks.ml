type result = { statistic : float; p_value : float; same_distribution : bool }

let p_value_of_d ~n_effective d =
  let sqrt_ne = sqrt n_effective in
  (* Stephens' small-sample correction of the asymptotic distribution. *)
  let lambda = (sqrt_ne +. 0.12 +. (0.11 /. sqrt_ne)) *. d in
  Special.kolmogorov_survival lambda

let two_sample_sorted ?(alpha = 0.05) sx sy =
  let n = Array.length sx and m = Array.length sy in
  (* Real guards, not asserts: these feed the i.i.d. gate of the whole
     analysis and must survive a [-noassert] release build. *)
  if n = 0 || m = 0 then invalid_arg "Ks.two_sample: empty sample";
  (* Merge-walk both sorted samples tracking the CDF gap: each step passes
     every element equal to the smaller head in both samples. *)
  let i = ref 0 and j = ref 0 and d = ref 0. in
  while !i < n && !j < m do
    let v = Float.min (Array.unsafe_get sx !i) (Array.unsafe_get sy !j) in
    while !i < n && Array.unsafe_get sx !i <= v do
      incr i
    done;
    while !j < m && Array.unsafe_get sy !j <= v do
      incr j
    done;
    let fx = float_of_int !i /. float_of_int n and fy = float_of_int !j /. float_of_int m in
    d := Float.max !d (Float.abs (fx -. fy))
  done;
  (* The rest of the unfinished sample opens the gap to 1 at most where
     its walk stopped. *)
  let d =
    if !i < n then Float.max !d (1. -. (float_of_int !i /. float_of_int n))
    else if !j < m then Float.max !d (1. -. (float_of_int !j /. float_of_int m))
    else !d
  in
  let n_effective = float_of_int n *. float_of_int m /. float_of_int (n + m) in
  let p = p_value_of_d ~n_effective d in
  { statistic = d; p_value = p; same_distribution = p >= alpha }

let two_sample ?alpha xs ys =
  let sx = Array.copy xs and sy = Array.copy ys in
  (* The kernel's Float.compare order: any stray NaN sorts
     deterministically instead of corrupting the walk. *)
  Descriptive.sort sx;
  Descriptive.sort sy;
  two_sample_sorted ?alpha sx sy

let one_sample ?(alpha = 0.05) xs ~cdf =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Ks.one_sample: empty sample";
  let sx = Array.copy xs in
  Descriptive.sort sx;
  let nf = float_of_int n in
  let d = ref 0. in
  for i = 0 to n - 1 do
    let f = cdf sx.(i) in
    let above = (float_of_int (i + 1) /. nf) -. f in
    let below = f -. (float_of_int i /. nf) in
    d := Float.max !d (Float.max above below)
  done;
  let p = p_value_of_d ~n_effective:nf !d in
  { statistic = !d; p_value = p; same_distribution = p >= alpha }

(* Loops, not [Array.init]: its closure boxes every element. *)
let split_halves xs =
  let n = Array.length xs in
  let evens = Array.create_float ((n + 1) / 2) and odds = Array.create_float (n / 2) in
  for i = 0 to Array.length evens - 1 do
    Array.unsafe_set evens i (Array.unsafe_get xs (2 * i))
  done;
  for i = 0 to Array.length odds - 1 do
    Array.unsafe_set odds i (Array.unsafe_get xs ((2 * i) + 1))
  done;
  (evens, odds)

let pp_result ppf r =
  Format.fprintf ppf "D=%.4f p=%.4f -> %s" r.statistic r.p_value
    (if r.same_distribution then "identical distribution not rejected"
     else "identical distribution REJECTED")
