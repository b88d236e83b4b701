(* Tests for repro_workloads: every kernel's generated code must compute
   exactly what its golden reference computes, on any input; path-dependent
   kernels must actually vary their paths; and each kernel must be
   measurable and analyzable on the randomized platform. *)

module Prng = Repro_rng.Prng
module Isa = Repro_isa
module P = Repro_platform
module K = Repro_workloads.Kernels
module M = Repro_mbpta

let checkb = Alcotest.check Alcotest.bool
let qtest = QCheck_alcotest.to_alcotest

let execute kernel seed =
  let memory = Isa.Memory.create kernel.K.program in
  kernel.K.load_input memory (Prng.create seed);
  let layout = Isa.Layout.sequential kernel.K.program in
  let (_ : Isa.Executor.stats) =
    Isa.Executor.run ~program:kernel.K.program ~layout ~memory ()
  in
  (kernel, memory)

let test_functional_equivalence =
  (* every kernel, many random inputs: generated code == golden, bitwise *)
  qtest
    (QCheck.Test.make ~name:"kernels match golden references" ~count:60
       QCheck.(pair (int_range 0 5) int64)
       (fun (which, seed) ->
         let kernel = List.nth (K.all ()) which in
         let kernel, memory = execute kernel seed in
         match kernel.K.check memory with
         | Ok () -> true
         | Error what -> QCheck.Test.fail_report what))

let test_each_kernel_once () =
  List.iter
    (fun kernel ->
      let kernel, memory = execute kernel 424242L in
      match kernel.K.check memory with
      | Ok () -> ()
      | Error what -> Alcotest.failf "%s: %s" kernel.K.name what)
    (K.all ())

let measure_early kernel ~run_index =
  let memory = Isa.Memory.create kernel.K.program in
  kernel.K.load_input memory (Prng.create (Int64.of_int (9100 + run_index)));
  let core =
    P.Core_sim.create ~config:P.Config.deterministic ~seed:(Int64.of_int (5100 + run_index)) ()
  in
  let metrics =
    P.Core_sim.run_program core ~program:kernel.K.program
      ~layout:(Isa.Layout.sequential kernel.K.program)
      ~memory
  in
  float_of_int (P.Metrics.cycles metrics)

let path_signature kernel seed =
  let memory = Isa.Memory.create kernel.K.program in
  kernel.K.load_input memory (Prng.create seed);
  Isa.Executor.path_signature ~program:kernel.K.program
    ~layout:(Isa.Layout.sequential kernel.K.program)
    ~memory ()

let test_data_dependent_paths () =
  (* sorting/searching follow input-dependent paths *)
  List.iter
    (fun kernel ->
      let sigs = List.init 8 (fun i -> path_signature kernel (Int64.of_int (100 + i))) in
      checkb (kernel.K.name ^ " paths vary") true
        (List.length (List.sort_uniq compare sigs) > 1))
    [ K.bubble_sort (); K.binary_search () ]

let test_regular_kernels_single_path () =
  (* matmul/fir/newton have input-independent control flow; histogram's
     data-dependence lives in its store addresses, not its branches (the
     clamp never fires for in-range samples), so it is single-path too *)
  List.iter
    (fun kernel ->
      let sigs = List.init 6 (fun i -> path_signature kernel (Int64.of_int (200 + i))) in
      checkb (kernel.K.name ^ " single path") true
        (List.length (List.sort_uniq compare sigs) = 1))
    [ K.matrix_multiply (); K.fir_filter (); K.newton_roots (); K.histogram () ]

let test_histogram_addresses_vary () =
  (* ...but its DL1 access pattern does depend on the data: on the DET
     platform (fixed layout, no randomization) timing still varies across
     inputs through the bin addresses *)
  let kernel = K.histogram () in
  let xs =
    Array.init 10 (fun i -> measure_early kernel ~run_index:i)
  in
  checkb "DET timing varies through addresses" true
    (Array.exists (fun x -> x <> xs.(0)) xs)

let measure kernel ~config ~run_index =
  let memory = Isa.Memory.create kernel.K.program in
  kernel.K.load_input memory (Prng.create (Int64.of_int (9000 + run_index)));
  let core = P.Core_sim.create ~config ~seed:(Int64.of_int (5000 + run_index)) () in
  let metrics =
    P.Core_sim.run_program core ~program:kernel.K.program
      ~layout:(Isa.Layout.sequential kernel.K.program)
      ~memory
  in
  float_of_int (P.Metrics.cycles metrics)

let test_kernels_analyzable_on_rand () =
  (* a small MBPTA pass on one data-dependent and one regular kernel *)
  List.iter
    (fun kernel ->
      let xs =
        Array.init 150 (fun i -> measure kernel ~config:P.Config.mbpta_compliant ~run_index:i)
      in
      let options =
        {
          M.Protocol.default_options with
          M.Protocol.check_convergence = false;
          M.Protocol.gate_on_iid = false;
        }
      in
      match M.Protocol.analyze ~options xs with
      | Ok a ->
          let v = Repro_evt.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:1e-9 in
          let top = Array.fold_left Float.max xs.(0) xs in
          checkb (kernel.K.name ^ " pWCET above observations") true (v >= top *. 0.995)
      | Error f ->
          Alcotest.failf "%s analysis failed: %a" kernel.K.name M.Protocol.pp_failure f)
    [ K.bubble_sort (); K.matrix_multiply () ]

let test_newton_exercises_fpu_jitter () =
  (* value-dependent FDIV latency: DET cycles must vary across inputs even
     though the path is fixed *)
  let kernel = K.newton_roots () in
  let xs =
    Array.init 12 (fun i -> measure kernel ~config:P.Config.deterministic ~run_index:i)
  in
  checkb "DET timing varies with operand values" true
    (Array.exists (fun x -> x <> xs.(0)) xs)

let () =
  Alcotest.run "repro_workloads"
    [
      ( "functional",
        [
          test_functional_equivalence;
          Alcotest.test_case "each kernel once" `Quick test_each_kernel_once;
        ] );
      ( "paths",
        [
          Alcotest.test_case "data-dependent paths" `Quick test_data_dependent_paths;
          Alcotest.test_case "regular kernels single path" `Quick
            test_regular_kernels_single_path;
          Alcotest.test_case "histogram address-dependence" `Quick
            test_histogram_addresses_vary;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "analyzable on RAND" `Slow test_kernels_analyzable_on_rand;
          Alcotest.test_case "newton FPU jitter" `Quick test_newton_exercises_fpu_jitter;
        ] );
    ]
