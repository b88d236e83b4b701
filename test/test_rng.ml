(* Tests for repro_rng: determinism, ranges, distribution quality,
   stream independence, and the qualification battery itself. *)

module Prng = Repro_rng.Prng
module Quality = Repro_rng.Quality
module Splitmix = Repro_rng.Splitmix

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Splitmix *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 7L and b = Splitmix.create 7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_splitmix_distinct_seeds () =
  let a = Splitmix.create 7L and b = Splitmix.create 8L in
  let distinct = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Splitmix.next a) (Splitmix.next b)) then distinct := true
  done;
  checkb "streams differ" true !distinct

let test_splitmix_nonzero () =
  let a = Splitmix.create 0L in
  for _ = 1 to 1000 do
    checkb "nonzero" true (not (Int64.equal (Splitmix.next_nonzero a) 0L))
  done

(* ------------------------------------------------------------------ *)
(* Per-algorithm basics *)

let algorithms = Prng.all_algorithms

let test_determinism () =
  List.iter
    (fun algorithm ->
      let a = Prng.create ~algorithm 123L and b = Prng.create ~algorithm 123L in
      for _ = 1 to 200 do
        check Alcotest.int (Prng.algorithm_name algorithm) (Prng.bits32 a) (Prng.bits32 b)
      done)
    algorithms

let test_bits32_range () =
  List.iter
    (fun algorithm ->
      let g = Prng.create ~algorithm 99L in
      for _ = 1 to 2000 do
        let v = Prng.bits32 g in
        checkb "in [0, 2^32)" true (v >= 0 && v < 0x100000000)
      done)
    algorithms

let test_copy_replays () =
  List.iter
    (fun algorithm ->
      let g = Prng.create ~algorithm 5L in
      (* advance a bit, then snapshot *)
      for _ = 1 to 17 do
        ignore (Prng.bits32 g)
      done;
      let snapshot = Prng.copy g in
      let original = Array.init 50 (fun _ -> Prng.bits32 g) in
      let replayed = Array.init 50 (fun _ -> Prng.bits32 snapshot) in
      check (Alcotest.array Alcotest.int) (Prng.algorithm_name algorithm) original replayed)
    algorithms

let test_split_independent () =
  let g = Prng.create 5L in
  let child = Prng.split g in
  (* The child must not replay the parent's upcoming stream. *)
  let parent_next = Array.init 20 (fun _ -> Prng.bits32 g) in
  let child_next = Array.init 20 (fun _ -> Prng.bits32 child) in
  checkb "different streams" true (parent_next <> child_next)

let test_algorithm_accessor () =
  List.iter
    (fun algorithm ->
      match Prng.algorithm (Prng.create ~algorithm 1L) with
      | Some a -> checkb "algorithm recorded" true (a = algorithm)
      | None -> Alcotest.fail "missing algorithm")
    algorithms

(* Every stream pinned bit for bit.  The statistical battery accepts any
   good generator, so a changed stream would pass it; these digests move
   instead.  Per algorithm and stream kind, one md5 over 1,000 draws from
   each of four seeds: raw bits, a copy taken after 1,000 draws, a split
   child, and the derived float, gaussian and rejection-sampled
   [int_below 6] draws (floats as their IEEE bits). *)
let golden_seeds = [ 0L; 2017L; -1L; Int64.max_int ]

let golden_kinds =
  let ints draw g b =
    for _ = 1 to 1_000 do
      Buffer.add_int64_le b (Int64.of_int (draw g))
    done
  in
  let floats draw g b =
    for _ = 1 to 1_000 do
      Buffer.add_int64_le b (Int64.bits_of_float (draw g))
    done
  in
  [
    ("bits32", ints Prng.bits32);
    ( "copy",
      fun g b ->
        for _ = 1 to 1_000 do
          ignore (Prng.bits32 g)
        done;
        ints Prng.bits32 (Prng.copy g) b );
    ("split", fun g b -> ints Prng.bits32 (Prng.split g) b);
    ("float", floats Prng.float);
    ("gaussian", floats Prng.gaussian);
    ("int_below 6", ints (fun g -> Prng.int_below g 6));
  ]

let golden_digests =
  [
    ( Prng.Xorshift128p,
      [
        "de8b166faaf51bdfb64e1a2fef18c928"; "28b8c3f02422935535a8d9f7baa46528";
        "c42528912ae42ed1613ad0ec40610a45"; "53348308a8cec2d4e114799469d16608";
        "fef0400acd6f88980cf766c4b948e0a1"; "aaa8fd71c817d39af6e30b5e5c43e79a";
      ] );
    ( Prng.Pcg32,
      [
        "923336d3798e3117707ad05da9218758"; "2faf393b87ac8013310e3232257398b0";
        "90bdd3991147504eb5a53ec5b1b24fad"; "de6ca37f82ab09b830eb44415b97107a";
        "3b1f996702f63c41d62da5f3e75b14fb"; "9f6fe4268d0a70c1b7d5a1888a7528e4";
      ] );
    ( Prng.Lfsr64,
      [
        "c83825d6df5d6872817a9ececb384718"; "039d144e80fc7c57a30b58bb981191c6";
        "81e5f53c14334d1403d31460bd2a1e06"; "ae96aef80ea793836f513a02ff7d73fd";
        "2e1395e07c5214cefa4995016e75aa31"; "bd3dc6a251c9673a0bf37ec7b9b8749f";
      ] );
    ( Prng.Mwc32,
      [
        "b48bd122e760f6d8978504c698f33239"; "7c02fd8a2552535b99dceae875293a89";
        "3ec3ac35e489223fb382b31e7f07fd68"; "0a37f7c6d818ea39994b5f31bb5e9fab";
        "e0d47ffaa6f38cb67021e9ab723b2aa1"; "b8b6ce23e3da27122432dc2e58eb15e4";
      ] );
  ]

let test_golden_streams () =
  List.iter
    (fun (algorithm, digests) ->
      List.iter2
        (fun (kind, draw) want ->
          let b = Buffer.create 32_768 in
          List.iter (fun seed -> draw (Prng.create ~algorithm seed) b) golden_seeds;
          check Alcotest.string
            (Printf.sprintf "%s %s" (Prng.algorithm_name algorithm) kind)
            want
            (Digest.to_hex (Digest.string (Buffer.contents b))))
        golden_kinds digests)
    golden_digests

(* ------------------------------------------------------------------ *)
(* Derived draws *)

let test_float_range =
  qtest
    (QCheck.Test.make ~name:"float in [0,1)" ~count:200
       QCheck.(pair int64 small_nat)
       (fun (seed, n) ->
         let g = Prng.create seed in
         let ok = ref true in
         for _ = 0 to n do
           let u = Prng.float g in
           if not (u >= 0. && u < 1.) then ok := false
         done;
         !ok))

let test_int_below_range =
  qtest
    (QCheck.Test.make ~name:"int_below in range" ~count:500
       QCheck.(pair int64 (int_range 1 1000))
       (fun (seed, n) ->
         let g = Prng.create seed in
         let v = Prng.int_below g n in
         v >= 0 && v < n))

let test_int_in_range =
  qtest
    (QCheck.Test.make ~name:"int_in_range inclusive" ~count:500
       QCheck.(triple int64 (int_range (-50) 50) (int_range 0 100))
       (fun (seed, lo, span) ->
         let g = Prng.create seed in
         let hi = lo + span in
         let v = Prng.int_in_range g ~lo ~hi in
         v >= lo && v <= hi))

let test_int_below_unbiased () =
  (* n = 3 exercises the rejection path; frequencies within 2% of 1/3. *)
  let g = Prng.create 1234L in
  let counts = Array.make 3 0 in
  let draws = 90_000 in
  for _ = 1 to draws do
    let v = Prng.int_below g 3 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let f = float_of_int c /. float_of_int draws in
      checkb "near 1/3" true (Float.abs (f -. (1. /. 3.)) < 0.02))
    counts

let test_gaussian_moments () =
  let g = Prng.create 77L in
  let n = 50_000 in
  let sum = ref 0. and sum2 = ref 0. in
  for _ = 1 to n do
    let x = Prng.gaussian g in
    sum := !sum +. x;
    sum2 := !sum2 +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  checkb "mean near 0" true (Float.abs mean < 0.02);
  checkb "variance near 1" true (Float.abs (var -. 1.) < 0.05)

let test_exponential_mean () =
  let g = Prng.create 78L in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential g
  done;
  checkb "mean near 1" true (Float.abs ((!sum /. float_of_int n) -. 1.) < 0.03)

let test_shuffle_permutation =
  qtest
    (QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
       QCheck.(pair int64 (list int))
       (fun (seed, xs) ->
         let g = Prng.create seed in
         let a = Array.of_list xs in
         Prng.shuffle_in_place g a;
         List.sort compare (Array.to_list a) = List.sort compare xs))

(* ------------------------------------------------------------------ *)
(* Qualification battery *)

let test_all_algorithms_qualify () =
  List.iter
    (fun algorithm ->
      let g = Prng.create ~algorithm 2024L in
      let verdicts = Quality.qualify ~alpha:0.001 ~draws:20_000 g in
      List.iter
        (fun (name, v) ->
          checkb
            (Printf.sprintf "%s/%s" (Prng.algorithm_name algorithm) name)
            true v.Quality.passed)
        verdicts)
    algorithms

let test_battery_rejects_constant () =
  (* A degenerate generator must fail uniformity. *)
  let module Broken = struct
    type state = unit

    let name = "broken-constant"
    let create _ = ()
    let next32 () = 12345
    let copy () = ()
  end in
  let g = Prng.of_module (module Broken) 0L in
  let v = Quality.chi_square_uniformity ~alpha:0.01 g ~draws:5000 in
  checkb "constant generator fails" false v.Quality.passed

let test_battery_rejects_alternating () =
  (* A strictly alternating generator must fail the runs test. *)
  let module Alternating = struct
    type state = int ref

    let name = "broken-alternating"
    let create _ = ref 0
    let next32 s =
      incr s;
      if !s land 1 = 0 then 0x10000000 else 0xF0000000

    let copy s = ref !s
  end in
  let g = Prng.of_module (module Alternating) 0L in
  let v = Quality.runs ~alpha:0.01 g ~draws:2000 in
  checkb "alternating generator fails runs" false v.Quality.passed

let test_block_frequency_rejects_drift () =
  (* a generator whose bit density drifts over time must fail *)
  let module Drifting = struct
    type state = int ref

    let name = "broken-drift"
    let create _ = ref 0
    let next32 s =
      incr s;
      (* starts all-zeros, ends all-ones *)
      if !s < 5000 then 0 else 0xFFFFFFFF

    let copy s = ref !s
  end in
  let g = Prng.of_module (module Drifting) 0L in
  let v = Quality.block_frequency ~alpha:0.01 g ~draws:10_000 in
  checkb "drift fails block frequency" false v.Quality.passed

let test_gap_rejects_periodic () =
  (* strictly alternating values give only gaps of length 1 *)
  let module Alternating = struct
    type state = int ref

    let name = "broken-period2"
    let create _ = ref 0
    let next32 s =
      incr s;
      if !s land 1 = 0 then 0x20000000 (* < 0.5 *) else 0xC0000000 (* >= 0.5 *)

    let copy s = ref !s
  end in
  let g = Prng.of_module (module Alternating) 0L in
  let v = Quality.gap ~alpha:0.01 g ~draws:4000 in
  checkb "periodic fails gap test" false v.Quality.passed

let test_all_passed_helper () =
  let good = [ ("a", { Quality.statistic = 0.; p_value = 0.5; passed = true }) ] in
  let bad = ("b", { Quality.statistic = 9.; p_value = 0.0001; passed = false }) :: good in
  checkb "all passed" true (Quality.all_passed good);
  checkb "not all passed" false (Quality.all_passed bad)

let () =
  Alcotest.run "repro_rng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "distinct seeds" `Quick test_splitmix_distinct_seeds;
          Alcotest.test_case "next_nonzero" `Quick test_splitmix_nonzero;
        ] );
      ( "generators",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "bits32 range" `Quick test_bits32_range;
          Alcotest.test_case "copy replays" `Quick test_copy_replays;
          Alcotest.test_case "split independent" `Quick test_split_independent;
          Alcotest.test_case "algorithm accessor" `Quick test_algorithm_accessor;
          Alcotest.test_case "golden streams" `Quick test_golden_streams;
        ] );
      ( "draws",
        [
          test_float_range;
          test_int_below_range;
          test_int_in_range;
          Alcotest.test_case "int_below unbiased" `Quick test_int_below_unbiased;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          test_shuffle_permutation;
        ] );
      ( "quality",
        [
          Alcotest.test_case "all algorithms qualify" `Slow test_all_algorithms_qualify;
          Alcotest.test_case "rejects constant" `Quick test_battery_rejects_constant;
          Alcotest.test_case "rejects alternating" `Quick test_battery_rejects_alternating;
          Alcotest.test_case "block frequency rejects drift" `Quick
            test_block_frequency_rejects_drift;
          Alcotest.test_case "gap rejects periodic" `Quick test_gap_rejects_periodic;
          Alcotest.test_case "all_passed helper" `Quick test_all_passed_helper;
        ] );
    ]
