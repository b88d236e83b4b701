type verdict = { statistic : float; p_value : float; passed : bool }

let pp_verdict ppf v =
  Format.fprintf ppf "stat=%.4f p=%.4f %s" v.statistic v.p_value
    (if v.passed then "PASS" else "FAIL")

(* Complementary error function (Abramowitz & Stegun 7.1.26 applied to a
   rational approximation with < 1.2e-7 absolute error). *)
let erfc x =
  let z = Float.abs x in
  let t = 1. /. (1. +. (0.5 *. z)) in
  let poly =
    -1.26551223
    +. t
       *. (1.00002368
          +. t
             *. (0.37409196
                +. t
                   *. (0.09678418
                      +. t
                         *. (-0.18628806
                            +. t
                               *. (0.27886807
                                  +. t
                                     *. (-1.13520398
                                        +. t
                                           *. (1.48851587
                                              +. t *. (-0.82215223 +. (t *. 0.17087277)))))))))
  in
  let ans = t *. exp ((-.z *. z) +. poly) in
  if x >= 0. then ans else 2. -. ans

(* Two-sided normal p-value for a standard-normal statistic. *)
let normal_two_sided z = erfc (Float.abs z /. sqrt 2.)

(* Upper tail of the chi-square distribution via the Wilson-Hilferty normal
   approximation — good enough for screening with df >= 10. *)
let chi_square_upper_tail ~df x =
  if x <= 0. then 1.
  else begin
    let k = float_of_int df in
    let t = ((x /. k) ** (1. /. 3.)) -. (1. -. (2. /. (9. *. k))) in
    let z = t /. sqrt (2. /. (9. *. k)) in
    0.5 *. erfc (z /. sqrt 2.)
  end

let chi_square_uniformity ?(alpha = 0.01) ?(buckets = 64) prng ~draws =
  if buckets < 2 then invalid_arg "Quality.chi_square_uniformity: buckets must be >= 2";
  if draws < buckets * 5 then
    invalid_arg
      (Printf.sprintf
         "Quality.chi_square_uniformity: %d draws, need at least 5 per bucket (%d)"
         draws (buckets * 5));
  let counts = Array.make buckets 0 in
  for _ = 1 to draws do
    let b = int_of_float (Prng.float prng *. float_of_int buckets) in
    let b = if b >= buckets then buckets - 1 else b in
    counts.(b) <- counts.(b) + 1
  done;
  let expected = float_of_int draws /. float_of_int buckets in
  let stat =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. counts
  in
  let p = chi_square_upper_tail ~df:(buckets - 1) stat in
  { statistic = stat; p_value = p; passed = p >= alpha }

(* NIST SP 800-22 frequency test: one-bits over [draws] 32-bit outputs
   against the binomial expectation. *)
let monobit ?(alpha = 0.01) prng ~draws =
  let ones = ref 0 in
  for _ = 1 to draws do
    let v = Prng.bits32 prng in
    let rec popcount acc x = if x = 0 then acc else popcount (acc + (x land 1)) (x lsr 1) in
    ones := !ones + popcount 0 v
  done;
  let n = float_of_int (draws * 32) in
  let z = ((2. *. float_of_int !ones) -. n) /. sqrt n in
  let p = normal_two_sided z in
  { statistic = z; p_value = p; passed = p >= alpha }

let runs ?(alpha = 0.01) prng ~draws =
  if draws < 20 then invalid_arg "Quality.runs: draws must be >= 20";
  let xs = Array.init draws (fun _ -> Prng.float prng) in
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let median = sorted.(draws / 2) in
  let signs = Array.map (fun x -> x >= median) xs in
  let n_plus = Array.fold_left (fun a s -> if s then a + 1 else a) 0 signs in
  let n_minus = draws - n_plus in
  let runs_count = ref 1 in
  for i = 1 to draws - 1 do
    if signs.(i) <> signs.(i - 1) then incr runs_count
  done;
  let np = float_of_int n_plus and nm = float_of_int n_minus in
  let n = np +. nm in
  let mu = (2. *. np *. nm /. n) +. 1. in
  let sigma2 = 2. *. np *. nm *. ((2. *. np *. nm) -. n) /. (n *. n *. (n -. 1.)) in
  let z = (float_of_int !runs_count -. mu) /. sqrt sigma2 in
  let p = normal_two_sided z in
  { statistic = z; p_value = p; passed = p >= alpha }

let serial_correlation ?(alpha = 0.01) ?(lag = 1) prng ~draws =
  if lag < 1 then invalid_arg "Quality.serial_correlation: lag must be >= 1";
  if draws <= lag + 2 then
    invalid_arg
      (Printf.sprintf "Quality.serial_correlation: %d draws, need more than lag + 2 (%d)"
         draws (lag + 2));
  let xs = Array.init draws (fun _ -> Prng.float prng) in
  let n = float_of_int draws in
  let mean = Array.fold_left ( +. ) 0. xs /. n in
  let var = Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. xs /. n in
  let cov = ref 0. in
  for i = 0 to draws - 1 - lag do
    cov := !cov +. ((xs.(i) -. mean) *. (xs.(i + lag) -. mean))
  done;
  let r = !cov /. n /. var in
  (* Under H0, r ~ N(0, 1/n) asymptotically. *)
  let z = r *. sqrt n in
  let p = normal_two_sided z in
  { statistic = r; p_value = p; passed = p >= alpha }

let block_frequency ?(alpha = 0.01) ?(block_bits = 128) prng ~draws =
  if not (block_bits mod 32 = 0 && block_bits >= 32) then
    invalid_arg "Quality.block_frequency: block_bits must be a positive multiple of 32";
  let words_per_block = block_bits / 32 in
  let blocks = draws / words_per_block in
  if blocks < 10 then
    invalid_arg
      (Printf.sprintf "Quality.block_frequency: %d draws yield %d blocks, need >= 10"
         draws blocks);
  let rec popcount acc x = if x = 0 then acc else popcount (acc + (x land 1)) (x lsr 1) in
  let stat = ref 0. in
  for _ = 1 to blocks do
    let ones = ref 0 in
    for _ = 1 to words_per_block do
      ones := !ones + popcount 0 (Prng.bits32 prng)
    done;
    let pi = float_of_int !ones /. float_of_int block_bits in
    stat := !stat +. ((pi -. 0.5) ** 2.)
  done;
  let statistic = 4. *. float_of_int block_bits *. !stat in
  let p = chi_square_upper_tail ~df:blocks statistic in
  { statistic; p_value = p; passed = p >= alpha }

let gap ?(alpha = 0.01) prng ~draws =
  if draws < 2000 then invalid_arg "Quality.gap: draws must be >= 2000";
  (* Target interval [0, 0.5): hit probability 1/2, so a gap of length g
     (draws between successive hits) occurs with probability 2^-(g+1);
     lengths >= 8 are pooled. *)
  let bins = 9 in
  let counts = Array.make bins 0 in
  let gap_length = ref 0 in
  let gaps = ref 0 in
  for _ = 1 to draws do
    if Prng.float prng < 0.5 then begin
      let b = Stdlib.min (bins - 1) !gap_length in
      counts.(b) <- counts.(b) + 1;
      incr gaps;
      gap_length := 0
    end
    else incr gap_length
  done;
  let total = float_of_int !gaps in
  let stat = ref 0. in
  for b = 0 to bins - 1 do
    let p = if b < bins - 1 then 0.5 ** float_of_int (b + 1) else 0.5 ** float_of_int (bins - 1) in
    let expected = total *. p in
    let d = float_of_int counts.(b) -. expected in
    stat := !stat +. (d *. d /. expected)
  done;
  let p = chi_square_upper_tail ~df:(bins - 1) !stat in
  { statistic = !stat; p_value = p; passed = p >= alpha }

let qualify ?(alpha = 0.01) ?(draws = 20_000) prng =
  [
    ("chi-square-uniformity", chi_square_uniformity ~alpha prng ~draws);
    ("monobit", monobit ~alpha prng ~draws);
    ("runs", runs ~alpha prng ~draws);
    ("serial-correlation", serial_correlation ~alpha prng ~draws);
    ("block-frequency", block_frequency ~alpha prng ~draws);
    ("gap", gap ~alpha prng ~draws);
  ]

let all_passed verdicts = List.for_all (fun (_, v) -> v.passed) verdicts
