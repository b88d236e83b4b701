module Stats = Repro_stats
module Evt = Repro_evt

type tail = Gumbel | Gev | Pot | Exponential_pot

type bootstrap_options = {
  replicates : int;
  bootstrap_confidence : float;
  bootstrap_seed : int64;
  bootstrap_probability : float;
}

let default_bootstrap_options =
  {
    replicates = 200;
    bootstrap_confidence = 0.95;
    bootstrap_seed = 0x9E3779B97F4A7C15L;
    bootstrap_probability = 1e-9;
  }

type options = {
  alpha : float;
  gate_on_iid : bool;
  tail : tail;
  block_size : int option;
  fit_method : [ `Pwm | `Mle ];
  check_convergence : bool;
  convergence_probability : float;
  convergence_tolerance : float;
  bootstrap : bootstrap_options option;
}

let default_options =
  {
    alpha = 0.05;
    gate_on_iid = true;
    tail = Gumbel;
    block_size = None;
    fit_method = `Pwm;
    check_convergence = true;
    convergence_probability = 1e-9;
    convergence_tolerance = 0.01;
    bootstrap = None;
  }

type gate = { iid : Iid.gate; convergence : Evt.Convergence.result option }

type model = {
  tail_model : Evt.Pwcet.tail_model;
  block_size : int;
  fitted : float array;
}

type analysis = {
  sample : float array;
  iid : Iid.result;
  convergence : Evt.Convergence.result option;
  block_size : int;
  curve : Evt.Pwcet.t;
  goodness_of_fit : Stats.Ks.result;
  goodness_of_fit_ad : Stats.Anderson_darling.result;
  tail_diagnostic : Evt.Tail_test.verdict option;
  bootstrap : Evt.Bootstrap.interval option;
}

type failure =
  | Not_enough_runs of { have : int; need : int }
  | Iid_rejected of Iid.result
  | Not_converged of Evt.Convergence.result
  | Invalid_sample of { index : int; value : float; reason : string }
  | Faulted_runs of { survivors : int; required : int; total : int }
  | Budget_exhausted of { spent : int; limit : int; runs_completed : int }

let pp_failure ppf = function
  | Not_enough_runs { have; need } ->
      Format.fprintf ppf "not enough runs: have %d, need at least %d" have need
  | Iid_rejected iid -> Format.fprintf ppf "i.i.d. hypothesis rejected:@ %a" Iid.pp iid
  | Not_converged c ->
      Format.fprintf ppf "convergence criterion not met:@ %a" Evt.Convergence.pp_result c
  | Invalid_sample { index; value; reason } ->
      (* index < 0 marks a configuration problem rather than a bad
         observation (e.g. an invalid resilience policy) *)
      if index < 0 then Format.fprintf ppf "invalid campaign input: %s" reason
      else Format.fprintf ppf "invalid sample: observation %d is %s (%h)" index reason value
  | Faulted_runs { survivors; required; total } ->
      Format.fprintf ppf
        "too many faulted runs: only %d of %d survived, need at least %d" survivors total
        required
  | Budget_exhausted { spent; limit; runs_completed } ->
      Format.fprintf ppf "retry budget exhausted: %d of %d retries spent after %d runs"
        spent limit runs_completed

let min_runs = 100

(* Execution times are finite non-negative cycle counts; anything else in
   the vector means the harness fed us a corrupted or uninitialized
   measurement.  Catch it here with a typed failure instead of letting a
   NaN poison the order statistics and the fits downstream. *)
let validate_sample xs =
  let n = Array.length xs in
  let rec go i =
    if i >= n then None
    else
      let v = xs.(i) in
      if Float.is_nan v then Some (Invalid_sample { index = i; value = v; reason = "NaN" })
      else if Float.abs v = Float.infinity then
        Some (Invalid_sample { index = i; value = v; reason = "infinite" })
      else if v < 0. then
        Some (Invalid_sample { index = i; value = v; reason = "negative" })
      else go (i + 1)
  in
  go 0

(* Observability glue: translate the pipeline's verdicts into trace
   events.  All no-ops when no trace is attached. *)
let trace_emit trace event =
  match trace with None -> () | Some t -> Trace.emit t event

let trace_fit trace (m : model) ~gof ~ad =
  match trace with
  | None -> ()
  | Some t ->
      let tail, params =
        match m.tail_model with
        | Evt.Pwcet.Gumbel_tail g ->
            ( "gumbel",
              [
                ("mu", g.Stats.Distribution.Gumbel.mu);
                ("beta", g.Stats.Distribution.Gumbel.beta);
              ] )
        | Evt.Pwcet.Gev_tail g ->
            ( "gev",
              [
                ("mu", g.Stats.Distribution.Gev.mu);
                ("sigma", g.Stats.Distribution.Gev.sigma);
                ("xi", g.Stats.Distribution.Gev.xi);
              ] )
        | Evt.Pwcet.Pot_tail p ->
            ( "pot",
              [
                ("threshold", p.Evt.Gpd_fit.Pot.threshold);
                ("sigma", p.Evt.Gpd_fit.Pot.model.Stats.Distribution.Gpd.sigma);
                ("xi", p.Evt.Gpd_fit.Pot.model.Stats.Distribution.Gpd.xi);
                ("exceedance_rate", p.Evt.Gpd_fit.Pot.exceedance_rate);
              ] )
      in
      Trace.emit t
        (Trace.Evt_fit
           {
             tail;
             block_size = m.block_size;
             params;
             gof_ks_p = gof.Stats.Ks.p_value;
             gof_ad_stat = ad.Stats.Anderson_darling.statistic;
           })

let counter_add trace name v =
  match trace with
  | None -> ()
  | Some t -> Trace.Counters.add (Trace.counters t) name v

let gate ?(options = default_options) ?trace xs =
  let n = Array.length xs in
  if n < min_runs then Error (Not_enough_runs { have = n; need = min_runs })
  else
    match validate_sample xs with
    | Some failure -> Error failure
    | None ->
        let iid = Iid.gate ~alpha:options.alpha xs in
        trace_emit trace (Trace.iid_event iid);
        if options.gate_on_iid && not iid.Iid.accepted then
          (* the failure prints the whole battery, the runs line too *)
          Error (Iid_rejected (Iid.complete iid xs))
        else begin
          (* Ljung-Box, the convergence study and block-maxima extraction
             read the time-ordered [xs], where run order is the point. *)
          let convergence =
            if options.check_convergence then
              Some
                (Evt.Convergence.study ~probability:options.convergence_probability
                   ~tolerance:options.convergence_tolerance xs)
            else None
          in
          match convergence with
          | Some c ->
              counter_add trace "analysis.convergence_steps"
                (List.length c.Evt.Convergence.history);
              trace_emit trace
                (Trace.Convergence
                   {
                     converged = c.Evt.Convergence.converged;
                     runs_used = c.Evt.Convergence.runs_used;
                   });
              if c.Evt.Convergence.converged then Ok { iid; convergence }
              else Error (Not_converged c)
          | None -> Ok { iid; convergence }
        end

(* Block maxima are formed over the time-ordered [xs]: a block is a
   window of consecutive runs.  POT reads order statistics only, so it
   takes the gate's sorted sample. *)
let model ?(options = default_options) (g : gate) xs =
  let block_size =
    match options.block_size with
    | Some b -> b
    | None -> Evt.Block_maxima.suggest_block_size (Array.length xs)
  in
  match options.tail with
  | Gumbel ->
      let maxima = Evt.Block_maxima.extract ~block_size xs in
      let method_ =
        match options.fit_method with `Pwm -> Evt.Gumbel_fit.Pwm | `Mle -> Evt.Gumbel_fit.Mle
      in
      let fit = Evt.Gumbel_fit.fit ~method_ maxima in
      { tail_model = Evt.Pwcet.Gumbel_tail fit; block_size; fitted = maxima }
  | Gev ->
      let maxima = Evt.Block_maxima.extract ~block_size xs in
      let method_ =
        match options.fit_method with `Pwm -> Evt.Gev_fit.Pwm | `Mle -> Evt.Gev_fit.Mle
      in
      let fit = Evt.Gev_fit.fit ~method_ maxima in
      { tail_model = Evt.Pwcet.Gev_tail fit; block_size; fitted = maxima }
  | Pot | Exponential_pot ->
      let method_ =
        if options.tail = Exponential_pot then Evt.Gpd_fit.Exponential
        else match options.fit_method with
          | `Pwm -> Evt.Gpd_fit.Pwm
          | `Mle -> Evt.Gpd_fit.Mle
      in
      let sorted_xs = Lazy.force g.iid.Iid.sorted in
      let pot = Evt.Gpd_fit.Pot.analyze ~method_ ~sorted:true sorted_xs in
      (* the observations above the threshold: a suffix of [sorted_xs] *)
      let k = pot.Evt.Gpd_fit.Pot.n_exceedances in
      {
        tail_model = Evt.Pwcet.Pot_tail pot;
        block_size = 1;
        fitted = Array.sub sorted_xs (Array.length sorted_xs - k) k;
      }

let analyze ?(options = default_options) ?(jobs = 1) ?trace xs =
  if jobs < 1 then invalid_arg "Protocol.analyze: jobs must be >= 1";
  match gate ~options ?trace xs with
  | Error _ as failed -> failed
  | Ok g ->
      (* The gate's sorted sample is the only full sort of the
         measurement vector: the runs-test median, the curve's ECDF, the
         POT threshold and the tail-test threshold all read it. *)
      let sorted_xs = Lazy.force g.iid.Iid.sorted in
      let iid = Iid.complete g.iid xs in
      let m = model ~options g xs in
      let curve =
        Evt.Pwcet.create_sorted ~model:m.tail_model ~block_size:m.block_size ~sample:sorted_xs
      in
      let cdf =
        match m.tail_model with
        | Evt.Pwcet.Gumbel_tail t -> Stats.Distribution.Gumbel.cdf t
        | Evt.Pwcet.Gev_tail t -> Stats.Distribution.Gev.cdf t
        | Evt.Pwcet.Pot_tail p -> Stats.Distribution.Gpd.cdf p.Evt.Gpd_fit.Pot.model
      in
      let goodness_of_fit = Stats.Ks.one_sample m.fitted ~cdf in
      let goodness_of_fit_ad = Stats.Anderson_darling.test m.fitted ~cdf in
      trace_fit trace m ~gof:goodness_of_fit ~ad:goodness_of_fit_ad;
      let tail_diagnostic =
        (* near-constant samples (a jitterless platform) have no excesses
           to diagnose; that is fine, not an error *)
        try Some (Evt.Tail_test.exponentiality ~sorted:true sorted_xs)
        with Invalid_argument _ -> None
      in
      let bootstrap =
        match options.bootstrap with
        | None -> None
        | Some b ->
            let prng = Repro_rng.Prng.create b.bootstrap_seed in
            let itv =
              Evt.Bootstrap.pwcet_interval ~replicates:b.replicates
                ~confidence:b.bootstrap_confidence ~jobs ~prng ~sample:xs
                ~cutoff_probability:b.bootstrap_probability ()
            in
            counter_add trace "analysis.bootstrap_replicates" b.replicates;
            Some itv
      in
      Ok
        {
          sample = xs;
          iid;
          convergence = g.convergence;
          block_size = m.block_size;
          curve;
          goodness_of_fit;
          goodness_of_fit_ad;
          tail_diagnostic;
          bootstrap;
        }

let collect_and_analyze ?options ?jobs ~runs ~measure () =
  (* Explicit ascending loop: [Array.init]'s evaluation order is
     unspecified, and stateful measurement sources rely on run order. *)
  analyze ?options ?jobs (Parallel.init ~jobs:1 runs measure)

let standard_cutoffs = [ 1e-6; 1e-7; 1e-8; 1e-9; 1e-10; 1e-11; 1e-12; 1e-13; 1e-14; 1e-15 ]

let pwcet_table analysis =
  List.map
    (fun p -> (p, Evt.Pwcet.estimate analysis.curve ~cutoff_probability:p))
    standard_cutoffs

let pp_analysis ppf a =
  Format.fprintf ppf
    "@[<v>%a@,%a@,block size: %d@,model fit (KS on maxima): %a@,model fit (AD, \
     tail-weighted): %a@,tail: %a@,"
    Iid.pp a.iid Evt.Pwcet.pp a.curve a.block_size Stats.Ks.pp_result a.goodness_of_fit
    Stats.Anderson_darling.pp_result a.goodness_of_fit_ad
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.pp_print_string ppf "(no excesses to diagnose)")
       Evt.Tail_test.pp_verdict)
    a.tail_diagnostic;
  (match a.convergence with
  | Some c -> Format.fprintf ppf "convergence: %a@," Evt.Convergence.pp_result c
  | None -> ());
  (match a.bootstrap with
  | Some b -> Format.fprintf ppf "bootstrap interval: %a@," Evt.Bootstrap.pp_interval b
  | None -> ());
  Format.fprintf ppf "pWCET estimates:@,";
  List.iter
    (fun (p, v) -> Format.fprintf ppf "  P(exceed) <= %.0e : %.0f cycles@," p v)
    (pwcet_table a);
  Format.fprintf ppf "@]"
