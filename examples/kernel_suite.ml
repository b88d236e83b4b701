(* The WCET benchmark-kernel suite under MBPTA.

   Beyond the TVCA case study, a timing-analysis tool is exercised on
   standard kernels (in the tradition of the Malardalen / TACLe WCET
   suites).  For each kernel this example verifies the generated code
   against its golden reference, measures it on the deterministic and the
   time-randomized platforms, and prints the pWCET estimate at 1e-9 —
   showing how the analysis applies to arbitrary programs, not just the
   flight application.

   Run with:  dune exec examples/kernel_suite.exe -- [runs]  (default 300) *)

module Prng = Repro_rng.Prng
module Isa = Repro_isa
module P = Repro_platform
module K = Repro_workloads.Kernels
module M = Repro_mbpta
module E = Repro_evt
module D = Repro_stats.Descriptive

let measure kernel ~config ~run_index =
  let memory = Isa.Memory.create kernel.K.program in
  kernel.K.load_input memory (Prng.create (Int64.of_int (70_000 + run_index)));
  let core = P.Core_sim.create ~config ~seed:(Int64.of_int (90_000 + run_index)) () in
  let metrics =
    P.Core_sim.run_program core ~program:kernel.K.program
      ~layout:(Isa.Layout.sequential kernel.K.program)
      ~memory
  in
  float_of_int (P.Metrics.cycles metrics)

let () =
  let runs = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 300 in
  Format.printf "%-16s %9s %11s %11s %11s %12s@." "kernel" "golden" "DET mean" "RAND mean"
    "RAND max" "pWCET(1e-9)";
  List.iter
    (fun kernel ->
      (* functional verification first *)
      let memory = Isa.Memory.create kernel.K.program in
      kernel.K.load_input memory (Prng.create 1L);
      let (_ : Isa.Executor.stats) =
        Isa.Executor.run ~program:kernel.K.program
          ~layout:(Isa.Layout.sequential kernel.K.program)
          ~memory ()
      in
      let golden =
        match kernel.K.check memory with Ok () -> "exact" | Error _ -> "MISMATCH"
      in
      let det =
        Array.init runs (fun i -> measure kernel ~config:P.Config.deterministic ~run_index:i)
      in
      let rand =
        Array.init runs (fun i ->
            measure kernel ~config:P.Config.mbpta_compliant ~run_index:i)
      in
      let options =
        {
          M.Protocol.default_options with
          M.Protocol.check_convergence = false;
          M.Protocol.gate_on_iid = false;
        }
      in
      let pwcet =
        match M.Protocol.analyze ~options rand with
        | Ok a ->
            Printf.sprintf "%.0f"
              (E.Pwcet.estimate a.M.Protocol.curve ~cutoff_probability:1e-9)
        | Error _ -> "n/a"
      in
      Format.printf "%-16s %9s %11.0f %11.0f %11.0f %12s@." kernel.K.name golden
        (D.mean det) (D.mean rand) (D.max rand) pwcet)
    (K.all ())
