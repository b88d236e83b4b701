module Stats = Repro_stats

type result = {
  ljung_box : Stats.Ljung_box.result;
  kolmogorov_smirnov : Stats.Ks.result;
  runs_diagnostic : Stats.Runs_test.result;
  alpha : float;
  accepted : bool;
}

let check_and_sort ?(alpha = 0.05) xs =
  let ljung_box = Stats.Ljung_box.test ~alpha xs in
  (* The KS test needs both halves sorted; merging them is the whole
     sample sorted, in O(n), which gives the runs test its median. *)
  let first, second = Stats.Ks.split_halves xs in
  Stats.Descriptive.sort first;
  Stats.Descriptive.sort second;
  let kolmogorov_smirnov = Stats.Ks.two_sample_sorted ~alpha first second in
  let sorted = Stats.Descriptive.merge_sorted first second in
  let runs_diagnostic =
    Stats.Runs_test.test_about ~alpha ~median:(Stats.Descriptive.quantile_sorted sorted 0.5) xs
  in
  ( {
      ljung_box;
      kolmogorov_smirnov;
      runs_diagnostic;
      alpha;
      accepted =
        ljung_box.Stats.Ljung_box.independent
        && kolmogorov_smirnov.Stats.Ks.same_distribution;
    },
    sorted )

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
