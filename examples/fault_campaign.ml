(* A measurement campaign under radiation: single-event upsets (SEUs) are
   injected into cache tags, TLB entries and executor registers while the
   TVCA runs, and the resilient campaign runner classifies, retries and
   quarantines the affected runs instead of dying on the first divergence.

   Demonstrates:
     1. fault-free and faulted pipelines agree exactly at --seu-rate 0;
     2. injected faults are detected, retried and reported per run;
     3. the whole fault schedule is reproducible from the base seed.

   Run with:  dune exec examples/fault_campaign.exe -- [runs] [seu_rate]
              (defaults: 400 runs, 40 upsets per million instructions) *)

module P = Repro_platform
module T = Repro_tvca
module M = Repro_mbpta

let outcome_of = function
  | T.Experiment.Completed { metrics; _ } ->
      M.Resilience.Completed (float_of_int (P.Metrics.cycles metrics))
  | T.Experiment.Watchdog { cycles; budget; _ } ->
      M.Resilience.Timeout
        (Printf.sprintf "watchdog at %d cycles (budget %d)" cycles budget)
  | T.Experiment.Runaway { program; _ } ->
      M.Resilience.Timeout ("runaway execution of " ^ program)
  | T.Experiment.Crashed { detail; _ } -> M.Resilience.Crashed detail
  | T.Experiment.Corrupted { worst_error; _ } ->
      M.Resilience.Corrupted (Printf.sprintf "worst output error %g" worst_error)

let () =
  let runs = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 400 in
  let seu_rate = if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 40. in
  let base_seed = 2017L in
  let det = T.Experiment.create ~config:P.Config.deterministic ~base_seed () in
  let rand = T.Experiment.create ~config:P.Config.mbpta_compliant ~base_seed () in

  (* 1. rate 0 is bit-identical to the fault-free pipeline *)
  let fault0 = T.Experiment.fault_config () in
  (match T.Experiment.run_faulty rand ~fault:fault0 ~run_index:0 () with
  | T.Experiment.Completed { metrics; _ } ->
      let plain = T.Experiment.measure rand ~run_index:0 in
      Format.printf "SEU rate 0: faulted pipeline %d cycles, plain pipeline %.0f  (%s)@."
        (P.Metrics.cycles metrics) plain
        (if float_of_int (P.Metrics.cycles metrics) = plain then "identical" else "MISMATCH!")
  | o -> Format.printf "unexpected outcome at rate 0: %a@." T.Experiment.pp_fault_outcome o);

  (* 2. the resilient campaign under radiation *)
  let fault = T.Experiment.fault_config ~seu_rate ~watchdog_budget:2_000_000 () in
  let measure exp ~run_index ~attempt =
    outcome_of (T.Experiment.run_faulty exp ~fault ~attempt ~run_index ())
  in
  let base =
    {
      (M.Campaign.default_input
         ~measure_det:(fun i -> T.Experiment.measure det ~run_index:i)
         ~measure_rand:(fun i -> T.Experiment.measure rand ~run_index:i))
      with
      M.Campaign.runs;
      M.Campaign.options =
        {
          M.Protocol.default_options with
          M.Protocol.check_convergence = false;
          M.Protocol.gate_on_iid = false;
        };
    }
  in
  let policy = { M.Resilience.default_policy with M.Resilience.max_retries = 3 } in
  Format.printf "@.%d runs per platform at %.0f SEUs / M instructions:@.@." runs seu_rate;
  (match
     M.Campaign.run_resilient
       (M.Campaign.resilient_input ~policy ~base ~measure_det_outcome:(measure det)
          ~measure_rand_outcome:(measure rand) ())
   with
  | Error f -> Format.printf "campaign failed: %a@." M.Protocol.pp_failure f
  | Ok campaign -> print_endline (M.Campaign.render campaign));

  (* 3. determinism: replay one faulted run, compare the fault log *)
  let show run_index =
    let o = T.Experiment.run_faulty rand ~fault ~run_index () in
    Format.asprintf "%a / %a" T.Experiment.pp_fault_outcome o
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         P.Fault.pp_record)
      (T.Experiment.fault_records o)
  in
  let first = show 1 and replay = show 1 in
  Format.printf "@.replay of run 1: %s@."
    (if first = replay then "bit-identical fault schedule and outcome" else "DIVERGED!");
  Format.printf "  %s@." first
