module Stats = Repro_stats

type gate = {
  ljung_box : Stats.Ljung_box.result;
  kolmogorov_smirnov : Stats.Ks.result;
  alpha : float;
  accepted : bool;
  sorted : float array Lazy.t;
}

type result = {
  ljung_box : Stats.Ljung_box.result;
  kolmogorov_smirnov : Stats.Ks.result;
  runs_diagnostic : Stats.Runs_test.result;
  alpha : float;
  accepted : bool;
}

let gate ?(alpha = 0.05) xs =
  let ljung_box = Stats.Ljung_box.test ~alpha xs in
  (* The KS test orders both halves, which puts the whole sample in order
     in O(n), left to whoever needs it. *)
  let kolmogorov_smirnov, sorted = Stats.Ks.two_halves ~alpha xs in
  {
    ljung_box;
    kolmogorov_smirnov;
    alpha;
    accepted =
      ljung_box.Stats.Ljung_box.independent && kolmogorov_smirnov.Stats.Ks.same_distribution;
    sorted;
  }

let complete (g : gate) xs =
  let median = Stats.Descriptive.quantile_sorted (Lazy.force g.sorted) 0.5 in
  {
    ljung_box = g.ljung_box;
    kolmogorov_smirnov = g.kolmogorov_smirnov;
    runs_diagnostic = Stats.Runs_test.test_about ~alpha:g.alpha ~median xs;
    alpha = g.alpha;
    accepted = g.accepted;
  }

let check_and_sort ?alpha xs =
  let g = gate ?alpha xs in
  (complete g xs, Lazy.force g.sorted)

let check ?alpha xs = fst (check_and_sort ?alpha xs)

let pp ppf r =
  Format.fprintf ppf
    "@[<v>i.i.d. check (alpha=%.2f):@,\
    \  independence (Ljung-Box):     %a@,\
    \  identical distribution (KS):  %a@,\
    \  runs diagnostic:              %a@,\
    \  verdict: %s@]"
    r.alpha Stats.Ljung_box.pp_result r.ljung_box Stats.Ks.pp_result r.kolmogorov_smirnov
    Stats.Runs_test.pp_result r.runs_diagnostic
    (if r.accepted then "i.i.d. ACCEPTED - MBPTA enabled" else "i.i.d. REJECTED")
