(* Input-validation guard tests.

   Every guard exercised here was once an [assert] — which vanishes under
   the [-noassert] release profile, silently admitting the invalid input.
   The guards are now unconditional [Invalid_argument] raises; this suite
   runs in both build profiles (CI runs it under [-noassert] explicitly),
   so a regression back to [assert] fails the release build, not just the
   dev one. *)

module Stats = Repro_stats
module Evt = Repro_evt
module P = Repro_platform
module T = Repro_tvca
module W = Repro_workloads
module M = Repro_mbpta
module Prng = Repro_rng.Prng
module Quality = Repro_rng.Quality

let expect_invalid_arg name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument, got a value" name
  | exception Invalid_argument _ -> ()

let guard name f = Alcotest.test_case name `Quick (fun () -> expect_invalid_arg name f)

let prng () = Prng.create 42L

(* ------------------------------------------------------------------ *)
(* rng *)

let rng_guards =
  [
    guard "Prng.int_below rejects n = 0" (fun () -> Prng.int_below (prng ()) 0);
    guard "Prng.int_in_range rejects empty range" (fun () ->
        Prng.int_in_range (prng ()) ~lo:3 ~hi:2);
    guard "Quality.chi_square_uniformity rejects 1 bucket" (fun () ->
        Quality.chi_square_uniformity ~buckets:1 (prng ()) ~draws:1000);
    guard "Quality.chi_square_uniformity rejects sparse draws" (fun () ->
        Quality.chi_square_uniformity ~buckets:64 (prng ()) ~draws:100);
    guard "Quality.runs rejects < 20 draws" (fun () -> Quality.runs (prng ()) ~draws:5);
    guard "Quality.serial_correlation rejects lag = 0" (fun () ->
        Quality.serial_correlation ~lag:0 (prng ()) ~draws:100);
    guard "Quality.serial_correlation rejects draws <= lag + 2" (fun () ->
        Quality.serial_correlation ~lag:10 (prng ()) ~draws:12);
    guard "Quality.block_frequency rejects unaligned block_bits" (fun () ->
        Quality.block_frequency ~block_bits:33 (prng ()) ~draws:10_000);
    guard "Quality.block_frequency rejects too few blocks" (fun () ->
        Quality.block_frequency ~block_bits:128 (prng ()) ~draws:8);
    guard "Quality.gap rejects < 2000 draws" (fun () -> Quality.gap (prng ()) ~draws:100);
  ]

(* ------------------------------------------------------------------ *)
(* stats: Welch comparator + special functions (timing-leak machinery) *)

let stats_guards =
  [
    guard "Special.betainc rejects a <= 0" (fun () ->
        Stats.Special.betainc ~a:0. ~b:1. ~x:0.5);
    guard "Special.betainc rejects x outside [0, 1]" (fun () ->
        Stats.Special.betainc ~a:1. ~b:1. ~x:(-0.1));
    guard "Special.student_t_survival rejects df <= 0" (fun () ->
        Stats.Special.student_t_survival ~df:0. 1.);
    guard "Welch.t_test rejects a singleton sample" (fun () ->
        Stats.Welch.t_test [| 1. |] [| 1.; 2. |]);
    guard "Welch.t_test rejects an empty sample" (fun () ->
        Stats.Welch.t_test [| 1.; 2. |] [||]);
    guard "Welch.t_test rejects alpha outside (0, 1)" (fun () ->
        Stats.Welch.t_test ~alpha:1. [| 1.; 2. |] [| 3.; 4. |]);
    guard "Effect_size.cohens_d rejects a singleton sample" (fun () ->
        Stats.Effect_size.cohens_d [| 1. |] [| 1.; 2. |]);
  ]

(* ------------------------------------------------------------------ *)
(* evt *)

let sample n = Array.init n (fun i -> 100. +. float_of_int ((i * 7919) mod 97))

let pwcet_curve () =
  Evt.Pwcet.create
    ~model:(Evt.Pwcet.Gumbel_tail (Stats.Distribution.Gumbel.create ~mu:150. ~beta:5.))
    ~block_size:10 ~sample:(sample 100)

let evt_guards =
  [
    guard "Convergence.study rejects sample below min_runs" (fun () ->
        Evt.Convergence.study ~min_runs:100 (sample 50));
    guard "Convergence.study rejects step = 0" (fun () ->
        Evt.Convergence.study ~step:0 (sample 500));
    guard "Convergence.study rejects stable_steps = 0" (fun () ->
        Evt.Convergence.study ~stable_steps:0 (sample 500));
    guard "Gumbel_fit.fit rejects a singleton" (fun () ->
        Evt.Gumbel_fit.fit [| 1. |]);
    guard "Gumbel_fit.fit (MLE) rejects a singleton" (fun () ->
        Evt.Gumbel_fit.fit ~method_:Evt.Gumbel_fit.Mle [| 1. |]);
    guard "Gev_fit.fit rejects < 4 maxima" (fun () -> Evt.Gev_fit.fit (sample 3));
    guard "Gpd_fit.fit rejects negative excesses" (fun () ->
        Evt.Gpd_fit.fit ~threshold:0. [| 1.; -2.; 3.; 4. |]);
    guard "Gpd_fit.fit (PWM) rejects < 4 excesses" (fun () ->
        Evt.Gpd_fit.fit ~threshold:0. [| 1.; 2. |]);
    guard "Pot.analyze rejects quantile outside (0, 1)" (fun () ->
        Evt.Gpd_fit.Pot.analyze ~quantile:1.5 (sample 200));
    guard "Pot.quantile_of_exceedance rejects p beyond the exceedance rate" (fun () ->
        let t = Evt.Gpd_fit.Pot.analyze (sample 200) in
        Evt.Gpd_fit.Pot.quantile_of_exceedance t 0.9);
    guard "Bootstrap.pwcet_interval rejects < 20 replicates" (fun () ->
        Evt.Bootstrap.pwcet_interval ~replicates:5 ~prng:(prng ()) ~sample:(sample 100)
          ~cutoff_probability:1e-9 ());
    guard "Bootstrap.pwcet_interval rejects confidence outside (0, 1)" (fun () ->
        Evt.Bootstrap.pwcet_interval ~confidence:1.5 ~prng:(prng ()) ~sample:(sample 100)
          ~cutoff_probability:1e-9 ());
    guard "Bootstrap.pwcet_interval rejects < 60 observations" (fun () ->
        Evt.Bootstrap.pwcet_interval ~prng:(prng ()) ~sample:(sample 30)
          ~cutoff_probability:1e-9 ());
    guard "Pwcet.ccdf_series rejects decades_below = 0" (fun () ->
        Evt.Pwcet.ccdf_series (pwcet_curve ()) ~decades_below:0);
  ]

(* ------------------------------------------------------------------ *)
(* platform *)

let platform_guards =
  [
    guard "Bus.create rejects contention probability outside [0, 1]" (fun () ->
        P.Bus.create ~latencies:P.Config.default_latencies ~contenders:[ 1.5 ]);
    guard "Dram.create rejects banks = 0" (fun () ->
        P.Dram.create ~mode:P.Config.Open_page ~banks:0 ~row_bytes:1024
          ~latencies:P.Config.default_latencies);
    guard "Dram.create rejects row_bytes = 0" (fun () ->
        P.Dram.create ~mode:P.Config.Open_page ~banks:4 ~row_bytes:0
          ~latencies:P.Config.default_latencies);
    guard "Core_sim.advance rejects negative cycles" (fun () ->
        let core =
          P.Core_sim.create ~config:P.Config.deterministic ~seed:1L ()
        in
        P.Core_sim.advance core (-1));
  ]

(* ------------------------------------------------------------------ *)
(* tvca *)

let tvca_guards =
  [
    guard "Controller.sensor_channel rejects a wrong-length window" (fun () ->
        T.Controller.sensor_channel T.Controller.default_gains [| 0.; 1. |]);
    guard "Controller.control_axis rejects a negative frame" (fun () ->
        T.Controller.control_axis T.Controller.default_gains
          (T.Controller.fresh_state ()) ~axis:`X ~frame:(-1) ~reference:0.);
    guard "Controller.control_axis rejects frame >= history_length" (fun () ->
        T.Controller.control_axis T.Controller.default_gains
          (T.Controller.fresh_state ()) ~axis:`Y ~frame:T.Controller.history_length
          ~reference:0.);
    guard "Mission.generate rejects frames = 0" (fun () ->
        T.Mission.generate ~frames:0 ~seed:1L ());
    guard "Mission.generate rejects frames beyond the history ring" (fun () ->
        T.Mission.generate ~frames:(T.Controller.history_length + 1) ~seed:1L ());
    guard "Codegen.program rejects frames = 0" (fun () ->
        T.Codegen.program ~frames:0 ());
    guard "Rtos.apply_policy rejects negative max_jitter" (fun () ->
        T.Rtos.apply_policy T.Rtos.Offset_jitter ~seed:1L ~max_jitter:(-1)
          (T.Rtos.tvca_tasks ~period:60_000 ()));
    guard "Rtos.randomization_of_signatures rejects an empty campaign" (fun () ->
        T.Rtos.randomization_of_signatures []);
  ]

(* ------------------------------------------------------------------ *)
(* workloads *)

let workload_guards =
  [
    guard "Kernels.bubble_sort rejects n = 1" (fun () -> W.Kernels.bubble_sort ~n:1 ());
    guard "Kernels.binary_search rejects lookups = 0" (fun () ->
        W.Kernels.binary_search ~lookups:0 ());
    guard "Kernels.matrix_multiply rejects n = 1" (fun () ->
        W.Kernels.matrix_multiply ~n:1 ());
    guard "Kernels.fir_filter rejects taps = 0" (fun () ->
        W.Kernels.fir_filter ~taps:0 ());
    guard "Kernels.fir_filter rejects n <= taps" (fun () ->
        W.Kernels.fir_filter ~taps:16 ~n:10 ());
    guard "Kernels.newton_roots rejects iterations = 0" (fun () ->
        W.Kernels.newton_roots ~iterations:0 ());
    guard "Kernels.histogram rejects bins = 1" (fun () ->
        W.Kernels.histogram ~bins:1 ());
  ]

(* ------------------------------------------------------------------ *)
(* core *)

let core_guards =
  [
    guard "Mbta.bound rejects an empty sample" (fun () -> M.Mbta.bound [||]);
    guard "Mbta.bound rejects engineering_factor < 1" (fun () ->
        M.Mbta.bound ~engineering_factor:0.5 (sample 10));
    guard "Schedulability.required_cutoff rejects zero activation rate" (fun () ->
        M.Schedulability.required_cutoff ~activations_per_hour:0.
          ~target_failures_per_hour:1e-9);
    guard "Ascii_plot.qq_plot rejects a singleton" (fun () ->
        M.Ascii_plot.qq_plot ~data:[| 1. |] ~quantile:(fun p -> p) ());
    guard "Ascii_plot.exceedance_plot rejects width < 20" (fun () ->
        M.Ascii_plot.exceedance_plot ~width:10 (pwcet_curve ()));
    guard "Parallel.init_checkpointed rejects chunk_size = 0" (fun () ->
        M.Parallel.init_checkpointed ~chunk_size:0
          ~lookup:(fun ~lo:_ ~len:_ -> None)
          ~persist:(fun ~lo:_ _ -> ())
          4 float_of_int);
  ]

let () =
  Alcotest.run "guards"
    [
      ("rng", rng_guards);
      ("stats", stats_guards);
      ("evt", evt_guards);
      ("platform", platform_guards);
      ("tvca", tvca_guards);
      ("workloads", workload_guards);
      ("core", core_guards);
    ]
