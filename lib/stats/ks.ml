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
  (* Merge-walk both sorted samples tracking the CDF gap. *)
  let rec walk i j d =
    if i >= n && j >= m then d
    else if i >= n then
      (* The rest of [sy] opens the gap |1 - j/m| at most at the current j. *)
      Float.max d (1. -. (float_of_int j /. float_of_int m))
    else if j >= m then Float.max d (1. -. (float_of_int i /. float_of_int n))
    else begin
      let x = sx.(i) and y = sy.(j) in
      let v = Float.min x y in
      let rec adv_i i = if i < n && sx.(i) <= v then adv_i (i + 1) else i in
      let rec adv_j j = if j < m && sy.(j) <= v then adv_j (j + 1) else j in
      let i = adv_i i and j = adv_j j in
      let fx = float_of_int i /. float_of_int n
      and fy = float_of_int j /. float_of_int m in
      walk i j (Float.max d (Float.abs (fx -. fy)))
    end
  in
  let d = walk 0 0 0. in
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

let split_halves xs =
  let n = Array.length xs in
  let evens = Array.init ((n + 1) / 2) (fun i -> xs.(2 * i)) in
  let odds = Array.init (n / 2) (fun i -> xs.((2 * i) + 1)) in
  (evens, odds)

let pp_result ppf r =
  Format.fprintf ppf "D=%.4f p=%.4f -> %s" r.statistic r.p_value
    (if r.same_distribution then "identical distribution not rejected"
     else "identical distribution REJECTED")
