let acf xs ~lag =
  let n = Array.length xs in
  if not (lag >= 1 && lag < n) then
    invalid_arg "Autocorrelation.acf: lag must satisfy 1 <= lag < n";
  let mean = Descriptive.mean xs in
  let c0 = ref 0. and ck = ref 0. in
  for i = 0 to n - 1 do
    let d = xs.(i) -. mean in
    c0 := !c0 +. (d *. d);
    if i + lag < n then ck := !ck +. (d *. (xs.(i + lag) -. mean))
  done;
  if !c0 = 0. then 0. else !ck /. !c0

(* The mean and the lag-0 autocovariance are hoisted out of the per-lag
   loop (the per-lag [acf] recomputes both every call).  The lags are swept
   in blocks of four: one pass over the data feeds four accumulators that
   stay in registers, and a short tail finishes the three lags with the
   most terms.  Each lag's sum still collects its terms in ascending index
   order from 0. — the same order as the per-lag reference — so every
   returned value is bit-identical to [acf ~lag]. *)
let acf_up_to xs ~max_lag =
  if max_lag <= 0 then Array.init max_lag (fun _ -> 0.)
  else begin
    let n = Array.length xs in
    if max_lag >= n then
      invalid_arg "Autocorrelation.acf: lag must satisfy 1 <= lag < n";
    let mean = Descriptive.mean xs in
    let d = Array.create_float n in
    let c0 = ref 0. in
    for i = 0 to n - 1 do
      let di = Array.unsafe_get xs i -. mean in
      Array.unsafe_set d i di;
      c0 := !c0 +. (di *. di)
    done;
    let c0 = !c0 in
    let ck = Array.make max_lag 0. in
    let blocks = max_lag / 4 in
    for b = 0 to blocks - 1 do
      let k0 = 4 * b in
      (* Lags k0 + 1 .. k0 + 4 over the indices every one of them reaches. *)
      let s1 = ref 0. and s2 = ref 0. and s3 = ref 0. and s4 = ref 0. in
      for i = 0 to n - 1 - (k0 + 4) do
        let di = Array.unsafe_get d i in
        s1 := !s1 +. (di *. Array.unsafe_get d (i + k0 + 1));
        s2 := !s2 +. (di *. Array.unsafe_get d (i + k0 + 2));
        s3 := !s3 +. (di *. Array.unsafe_get d (i + k0 + 3));
        s4 := !s4 +. (di *. Array.unsafe_get d (i + k0 + 4))
      done;
      for i = n - (k0 + 4) to n - 1 - (k0 + 1) do
        let di = Array.unsafe_get d i in
        s1 := !s1 +. (di *. Array.unsafe_get d (i + k0 + 1));
        if i + k0 + 2 < n then s2 := !s2 +. (di *. Array.unsafe_get d (i + k0 + 2));
        if i + k0 + 3 < n then s3 := !s3 +. (di *. Array.unsafe_get d (i + k0 + 3))
      done;
      ck.(k0) <- !s1;
      ck.(k0 + 1) <- !s2;
      ck.(k0 + 2) <- !s3;
      ck.(k0 + 3) <- !s4
    done;
    (* The last max_lag mod 4 lags, one at a time. *)
    for lag = (4 * blocks) + 1 to max_lag do
      let s = ref 0. in
      for i = 0 to n - 1 - lag do
        s := !s +. (Array.unsafe_get d i *. Array.unsafe_get d (i + lag))
      done;
      ck.(lag - 1) <- !s
    done;
    if c0 = 0. then Array.fill ck 0 max_lag 0.
    else
      for k = 0 to max_lag - 1 do
        ck.(k) <- ck.(k) /. c0
      done;
    ck
  end
