(* Input guards are real [Invalid_argument] raises, never [assert]: these
   kernels gate the paper's whole evidential chain, and an assert silently
   vanishes under [-noassert] — exactly the release configuration a flight
   build would use. *)
let require_nonempty fn xs =
  if Array.length xs = 0 then invalid_arg (fn ^ ": empty sample")

(* [le x y] is exactly [Float.compare x y <= 0]: NaN below everything, -0.
   equal to +0. *)
let[@inline] le (x : float) y = x <= y || x <> x

(* Inputs this short are insertion-sorted. *)
let cutoff = 8

let insertion_sort (a : float array) n =
  for i = 1 to n - 1 do
    let e = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= 0 && not (le (Array.unsafe_get a !j) e) do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) e
  done

(* The float sort kernel: a stable LSD radix sort on a 64-bit key that
   orders floats, compared unsigned, exactly as [Float.compare] does.
   Every NaN maps to 0, below everything.  [x +. 0.] folds -0. into +0.
   A negative float's bits are complemented, so a larger magnitude gives a
   smaller key, and a positive float's get the sign bit set, above every
   negative; the mask does either without a branch on the sign.  Two keys
   are equal exactly when [Float.compare] says the floats are, so a stable
   sort by key is the unique stable sort under [Float.compare]. *)
let[@inline] key (x : float) =
  if x <> x then 0L
  else
    let b = Int64.bits_of_float (x +. 0.) in
    Int64.logxor b (Int64.logor (Int64.shift_right b 63) Int64.min_int)

let[@inline] byte k p = Int64.to_int (Int64.shift_right_logical k (8 * p)) land 0xFF

let[@inline] count (counts : int array) c =
  Array.unsafe_set counts c (Array.unsafe_get counts c + 1)

(* One pass counts all eight key bytes and ORs every key's difference from
   the first one.  A byte no two keys differ in needs no pass: cycle counts
   are integer-valued, so their low bytes are zero, and counts between the
   same two powers of two share the top byte.  Each remaining byte, least
   significant first, scatters the array into the other of [a] and one
   scratch array; the key is recomputed from the float on every pass,
   which keeps the scratch to n floats. *)
let radix_sort (a : float array) n =
  let counts = Array.make (8 * 256) 0 in
  let first = key (Array.unsafe_get a 0) in
  let diff = ref 0L in
  for i = 0 to n - 1 do
    let k = key (Array.unsafe_get a i) in
    diff := Int64.logor !diff (Int64.logxor k first);
    count counts (byte k 0);
    count counts (256 + byte k 1);
    count counts (512 + byte k 2);
    count counts (768 + byte k 3);
    count counts (1024 + byte k 4);
    count counts (1280 + byte k 5);
    count counts (1536 + byte k 6);
    count counts (1792 + byte k 7)
  done;
  let diff = !diff in
  let src = ref a and dst = ref [||] in
  for p = 0 to 7 do
    if byte diff p <> 0 then begin
      if Array.length !dst = 0 then dst := Array.create_float n;
      let base = p * 256 in
      let sum = ref 0 in
      for b = base to base + 255 do
        let c = Array.unsafe_get counts b in
        Array.unsafe_set counts b !sum;
        sum := !sum + c
      done;
      let s = !src and d = !dst in
      for i = 0 to n - 1 do
        let x = Array.unsafe_get s i in
        let b = base + byte (key x) p in
        let o = Array.unsafe_get counts b in
        Array.unsafe_set d o x;
        Array.unsafe_set counts b (o + 1)
      done;
      src := d;
      dst := s
    end
  done;
  if !src != a then Array.blit !src 0 a 0 n

let sort a =
  let n = Array.length a in
  if n <= cutoff then insertion_sort a n else radix_sort a n

(* The counting path.  Flipping the key's top bit makes the signed order
   the unsigned one, so [<] on the flipped keys orders the floats; every
   NaN maps to [Int64.min_int]. *)
let[@inline] signed_key x = Int64.logxor (key x) Int64.min_int

let[@inline] float_of_signed_key k =
  Int64.float_of_bits (if k >= 0L then k else Int64.logxor k Int64.max_int)

type span = { low : int64; shift : int; buckets : int }

(* One pass finds the least and the greatest key and ORs every key's
   difference from the first.  Every key agrees with the first below the
   difference's lowest set bit, so dividing by that power of two maps the
   keys present one-to-one onto buckets, in order: cycle counts between
   2^17 and 2^18 differ first at bit 35, one cycle.  The bucket count
   saturates at [max_int].  A NaN or a -0. shares its key with values of
   other bits, so a sample holding one is not counted. *)
let span xs =
  require_nonempty "Descriptive.span" xs;
  let first = signed_key (Array.unsafe_get xs 0) in
  let lo = ref first and hi = ref first and diff = ref 0L and negative_zero = ref false in
  for i = 0 to Array.length xs - 1 do
    let x = Array.unsafe_get xs i in
    let k = signed_key x in
    diff := Int64.logor !diff (Int64.logxor k first);
    if k < !lo then lo := k;
    if k > !hi then hi := k;
    if x = 0. && 1. /. x < 0. then negative_zero := true
  done;
  if !negative_zero || !lo = Int64.min_int then None
  else begin
    let shift = ref 0 and d = ref !diff in
    if !d <> 0L then
      while Int64.logand !d 1L = 0L do
        d := Int64.shift_right_logical !d 1;
        incr shift
      done;
    let width = Int64.shift_right_logical (Int64.sub !hi !lo) !shift in
    let buckets =
      if width < 0L || width >= Int64.of_int max_int then max_int else Int64.to_int width + 1
    in
    Some { low = !lo; shift = !shift; buckets }
  end

let span_buckets s = s.buckets

(* [counts.(2b)] counts the even-indexed values in bucket [b] and
   [counts.(2b + 1)] the odd-indexed ones.  The writes are bounds-checked:
   a sample other than the spanned one cannot write outside [counts]. *)
let count_halves s xs =
  let n = Array.length xs in
  if s.buckets > n then invalid_arg "Descriptive.count_halves: more buckets than values";
  let counts = Array.make (2 * s.buckets) 0 in
  let low = s.low and shift = s.shift in
  for i = 0 to n - 1 do
    let k = signed_key (Array.unsafe_get xs i) in
    let c = (2 * Int64.to_int (Int64.shift_right_logical (Int64.sub k low) shift)) + (i land 1) in
    counts.(c) <- counts.(c) + 1
  done;
  counts

(* The values of one bucket have one key, and without a NaN or a -0. one
   bit pattern, so each bucket's run is its key's float, written as many
   times as the bucket counts: a sequential pass that reads no sample. *)
let sort_counted s counts =
  if Array.length counts <> 2 * s.buckets then
    invalid_arg "Descriptive.sort_counted: counts of another span";
  let n = Array.fold_left ( + ) 0 counts in
  let dst = Array.create_float n in
  let o = ref 0 in
  for b = 0 to s.buckets - 1 do
    let c = Array.unsafe_get counts (2 * b) + Array.unsafe_get counts ((2 * b) + 1) in
    if c > 0 then begin
      let x = float_of_signed_key (Int64.add s.low (Int64.shift_left (Int64.of_int b) s.shift)) in
      for i = !o to !o + c - 1 do
        dst.(i) <- x
      done;
      o := !o + c
    end
  done;
  dst

(* Ties are taken from [a] first. *)
let merge_sorted (a : float array) (b : float array) =
  let la = Array.length a and lb = Array.length b in
  let dst = Array.create_float (la + lb) in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
    if le x y then begin
      Array.unsafe_set dst !k x;
      incr i
    end
    else begin
      Array.unsafe_set dst !k y;
      incr j
    end;
    incr k
  done;
  if !i < la then Array.blit a !i dst !k (la - !i) else Array.blit b !j dst !k (lb - !j);
  dst

(* A loop, not [Array.fold_left]: the fold boxes every partial sum. *)
let mean xs =
  require_nonempty "Descriptive.mean" xs;
  let sum = ref 0. in
  for i = 0 to Array.length xs - 1 do
    sum := !sum +. Array.unsafe_get xs i
  done;
  !sum /. float_of_int (Array.length xs)

(* k-th central moment about a precomputed mean: [summarize] computes the
   mean once. *)
let centered_moment_about m xs k =
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** float_of_int k)) 0. xs
  /. float_of_int (Array.length xs)

let sample_variance_about m xs =
  let n = Array.length xs in
  centered_moment_about m xs 2 *. float_of_int n /. float_of_int (n - 1)

let sample_variance xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Descriptive.sample_variance: need at least 2 observations";
  sample_variance_about (mean xs) xs

let sample_std xs = sqrt (sample_variance xs)

let min xs =
  require_nonempty "Descriptive.min" xs;
  Array.fold_left Float.min xs.(0) xs

let max xs =
  require_nonempty "Descriptive.max" xs;
  Array.fold_left Float.max xs.(0) xs

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

(* One sort and one mean for the whole record; every field is
   bit-identical to the multi-pass reference test_stats.ml pins it
   against (one sort each for median/q1/q3, and the mean recomputed by
   [sample_std] for [std] and again for [cv]). *)
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
