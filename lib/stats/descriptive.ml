(* Input guards are real [Invalid_argument] raises, never [assert]: these
   kernels gate the paper's whole evidential chain, and an assert silently
   vanishes under [-noassert] — exactly the release configuration a flight
   build would use. *)
let require_nonempty fn xs =
  if Array.length xs = 0 then invalid_arg (fn ^ ": empty sample")

(* The float sort kernel: a stable top-down merge sort over [float array]
   (the structure of the Stdlib's [Array.stable_sort]), monomorphic so that
   every load, store and comparison stays unboxed and no closure runs per
   comparison.  [le x y] is exactly [Float.compare x y <= 0]: NaN below
   everything, -0. equal to +0. *)
let[@inline] le (x : float) y = x <= y || x <> x

(* Runs this short are insertion-sorted. *)
let cutoff = 8

(* Insertion-sort [a.(s) .. a.(s + len - 1)] into [dst.(d) .. dst.(d + len - 1)]. *)
let insertion_sort_to (a : float array) s (dst : float array) d len =
  for i = 0 to len - 1 do
    let e = Array.unsafe_get a (s + i) in
    let j = ref (d + i - 1) in
    while !j >= d && not (le (Array.unsafe_get dst !j) e) do
      Array.unsafe_set dst (!j + 1) (Array.unsafe_get dst !j);
      decr j
    done;
    Array.unsafe_set dst (!j + 1) e
  done

(* Merge the ascending runs [a.(s1) ..] (length [l1]) and [b.(s2) ..]
   (length [l2]) into [dst.(d) ..], taking from the first run on ties.
   [dst] may hold the second run at [d + l1]: the write index never
   overtakes the unread part of it. *)
let merge_to (a : float array) s1 l1 (b : float array) s2 l2 (dst : float array) d =
  let e1 = s1 + l1 and e2 = s2 + l2 in
  let i1 = ref s1 and i2 = ref s2 and k = ref d in
  while !i1 < e1 && !i2 < e2 do
    let x = Array.unsafe_get a !i1 and y = Array.unsafe_get b !i2 in
    if le x y then begin
      Array.unsafe_set dst !k x;
      incr i1
    end
    else begin
      Array.unsafe_set dst !k y;
      incr i2
    end;
    incr k
  done;
  if !i1 < e1 then Array.blit a !i1 dst !k (e1 - !i1)
  else Array.blit b !i2 dst !k (e2 - !i2)

(* Sort [a.(s) .. a.(s + len - 1)] into [dst.(d) ..], using the source
   range as scratch. *)
let rec sort_to a s dst d len =
  if len <= cutoff then insertion_sort_to a s dst d len
  else begin
    let l1 = len / 2 in
    let l2 = len - l1 in
    sort_to a (s + l1) dst (d + l1) l2;
    sort_to a s a (s + l2) l1;
    merge_to a (s + l2) l1 dst (d + l1) l2 dst d
  end

let sort a =
  let n = Array.length a in
  if n <= cutoff then insertion_sort_to a 0 a 0 n
  else begin
    let l1 = n / 2 in
    let l2 = n - l1 in
    let t = Array.make l2 0. in
    sort_to a l1 t 0 l2;
    sort_to a 0 a l2 l1;
    merge_to a l2 l1 t 0 l2 a 0
  end

let merge_sorted a b =
  let la = Array.length a and lb = Array.length b in
  let dst = Array.make (la + lb) 0. in
  merge_to a 0 la b 0 lb dst 0;
  dst

let mean xs =
  require_nonempty "Descriptive.mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* k-th central moment about a precomputed mean — shared by the public
   [centered_moment] and by [summarize], which computes the mean once. *)
let centered_moment_about m xs k =
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** float_of_int k)) 0. xs
  /. float_of_int (Array.length xs)

let centered_moment xs k =
  require_nonempty "Descriptive.centered_moment" xs;
  centered_moment_about (mean xs) xs k

let variance xs = centered_moment xs 2

let sample_variance_about m xs =
  let n = Array.length xs in
  centered_moment_about m xs 2 *. float_of_int n /. float_of_int (n - 1)

let sample_variance xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Descriptive.sample_variance: need at least 2 observations";
  sample_variance_about (mean xs) xs

let std xs = sqrt (variance xs)
let sample_std xs = sqrt (sample_variance xs)

let min xs =
  require_nonempty "Descriptive.min" xs;
  Array.fold_left Float.min xs.(0) xs

let max xs =
  require_nonempty "Descriptive.max" xs;
  Array.fold_left Float.max xs.(0) xs

let coefficient_of_variation xs = sample_std xs /. mean xs

let skewness xs =
  let m2 = centered_moment xs 2 and m3 = centered_moment xs 3 in
  m3 /. (m2 ** 1.5)

let kurtosis_excess xs =
  let m2 = centered_moment xs 2 and m4 = centered_moment xs 4 in
  (m4 /. (m2 *. m2)) -. 3.

(* Type-7 quantile over an already-sorted array; the public [quantile]
   sorts a private copy, [summarize] reuses one shared sorted copy. *)
let quantile_of_sorted sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let quantile xs p =
  require_nonempty "Descriptive.quantile" xs;
  if not (p >= 0. && p <= 1.) then invalid_arg "Descriptive.quantile: p outside [0, 1]";
  let sorted = Array.copy xs in
  sort sorted;
  quantile_of_sorted sorted p

let quantile_sorted sorted p =
  require_nonempty "Descriptive.quantile_sorted" sorted;
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Descriptive.quantile_sorted: p outside [0, 1]";
  quantile_of_sorted sorted p

let median xs = quantile xs 0.5

type summary = {
  n : int;
  mean : float;
  std : float;
  minimum : float;
  maximum : float;
  median : float;
  q1 : float;
  q3 : float;
  cv : float;
}

(* One sort and one mean for the whole record (the old implementation
   sorted three times for median/q1/q3 and recomputed the mean twice via
   [sample_std]/[coefficient_of_variation]); every field is bit-identical
   to the multi-pass version, which test_stats.ml pins. *)
let summarize xs =
  let n = Array.length xs in
  require_nonempty "Descriptive.summarize" xs;
  let sorted = Array.copy xs in
  sort sorted;
  let mean = mean xs in
  let std = if n >= 2 then sqrt (sample_variance_about mean xs) else 0. in
  {
    n;
    mean;
    std;
    minimum = sorted.(0);
    maximum = sorted.(n - 1);
    median = quantile_of_sorted sorted 0.5;
    q1 = quantile_of_sorted sorted 0.25;
    q3 = quantile_of_sorted sorted 0.75;
    cv = (if n >= 2 && mean <> 0. then std /. mean else 0.);
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.2f std=%.2f min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f cv=%.4f" s.n s.mean
    s.std s.minimum s.q1 s.median s.q3 s.maximum s.cv
