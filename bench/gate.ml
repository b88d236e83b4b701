(* Paired performance gate over perfbench/: does the checkout CHANGE_DIR
   run a benchmark workload significantly slower than PARENT_DIR?

   Usage:  gate.exe PARENT_DIR CHANGE_DIR

   Both directories are checkouts of this repository.  For each workload
   listed in both checkouts' BENCHMARK.json, the gate alternates [pairs]
   pairs of short runs, [python3 DIR/perfbench/run.py --workload W
   --seconds 1], one in each checkout, and compares every end-to-end
   metric of the change's BENCHMARK.json.  It prints one row per workload
   x metric: both medians with their quartiles, the change in the median,
   the one-sided p of a slowdown, Cohen's d and the verdict.

   Exit codes: 0 pass; 1 a metric regressed, or a change run did not
   print "correct": true; 2 usage error, or a change run could not build
   or finish.  A workload on which a parent run fails is reported as not
   compared and does not fail the gate: the change may be the fix. *)

module J = Repro_mbpta.Trace.Json
module S = Repro_stats
module D = S.Descriptive

(* At 5 pairs the split significance level below needs t > 3.8, which a
   10% slowdown of a metric with 5.8% run-to-run noise (paper_protocol
   op_p50_ms) often misses.  At 10, a significant result already has
   |Cohen's d| >= 1.4, so the effect size needs no threshold of its own. *)
let pairs = 10

(* The shortest run perfbench takes: one pass of each simulating workload,
   100 queries of warm_store, about 25 s for the three.  Identical code
   varies 3.5-13% run to run on the time metrics at this length. *)
let seconds = 1

(* A regression is worse than the parent's median by more than 5%, so a
   small but significant trade-off, such as +1.2% peak RSS, passes. *)
let floor = 0.05

(* The family-wise significance level, split evenly over the workload x
   metric pairs compared (Bonferroni), so that one noisy pass among them
   does not fail the gate. *)
let alpha = 0.05

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("gate: " ^ msg);
      exit code)
    fmt

let parent_dir, change_dir =
  match Sys.argv with
  | [| _; parent; change |] -> (parent, change)
  | _ -> die 2 "usage: gate.exe PARENT_DIR CHANGE_DIR"

let benchmark dir =
  let file = Filename.concat dir "BENCHMARK.json" in
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> die 2 "%s" e
  | text -> (
      match J.of_string text with Ok j -> j | Error e -> die 2 "%s: %s" file e)

let parent_benchmark = benchmark parent_dir
let change_benchmark = benchmark change_dir
let list key j = match J.member key j with Some (J.List l) -> l | _ -> []
let name j = Option.bind (J.member "name" j) J.to_str

(* Each metric with whether lower is better. *)
let metrics =
  List.filter_map
    (fun m ->
      Option.map
        (fun n -> (n, Option.bind (J.member "better" m) J.to_str = Some "lower"))
        (name m))
    (list "end_to_end" change_benchmark)

let workloads =
  let names b = List.filter_map name (list "workloads" b) in
  let in_parent = names parent_benchmark in
  List.filter (fun w -> List.mem w in_parent) (names change_benchmark)

type outcome = Metrics of (string * float) list | Incorrect | Unfinished

(* One run.py pass; its result is the last line of its standard output. *)
let run dir workload =
  let script = Filename.concat (Filename.concat dir "perfbench") "run.py" in
  let ic =
    Unix.open_process_args_in "python3"
      [| "python3"; script; "--workload"; workload; "--seconds"; string_of_int seconds |]
  in
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' (In_channel.input_all ic))
  in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match J.of_string last with
      | Ok j when J.member "correct" j = Some (J.Bool true) ->
          let value (n, m) =
            Option.map (fun v -> (n, v)) (Option.bind (J.member "value" m) J.to_float)
          in
          Metrics
            (match J.member "metrics" j with
            | Some (J.Obj ms) -> List.filter_map value ms
            | _ -> [])
      | _ -> Incorrect)
  | _ -> Unfinished

(* [pairs] alternating pairs of one workload: the parent's and the change's
   results, or [None] when a parent run failed. *)
let measure workload =
  let parent = ref [] and change = ref [] and parent_ok = ref true in
  let on_parent = function
    | Metrics m -> parent := m :: !parent
    | Incorrect | Unfinished -> parent_ok := false
  in
  let on_change = function
    | Metrics m -> change := m :: !change
    | Incorrect -> die 1 "%s: a change run did not print \"correct\": true" workload
    | Unfinished -> die 2 "%s: a change run could not build or finish" workload
  in
  for i = 0 to pairs - 1 do
    if i mod 2 = 0 then begin
      on_parent (run parent_dir workload);
      on_change (run change_dir workload)
    end
    else begin
      on_change (run change_dir workload);
      on_parent (run parent_dir workload)
    end;
    Printf.eprintf "gate: %s pair %d/%d done\n%!" workload (i + 1) pairs
  done;
  if !parent_ok then Some (!parent, !change) else None

type row = {
  parent : D.summary;
  change : D.summary;
  delta : float;  (** relative change of the median *)
  p_worse : float;  (** one-sided p of the change being worse *)
  d : float;  (** Cohen's d, change minus parent *)
  worse_by : float;  (** [delta] signed so that positive is worse *)
}

(* [None] when a run's result lacks the metric. *)
let compare_metric parent change (metric, lower) =
  let values runs = Array.of_list (List.filter_map (List.assoc_opt metric) runs) in
  let p = values parent and c = values change in
  if Array.length p < pairs || Array.length c < pairs then None
  else
    let ps = D.summarize p and cs = D.summarize c in
    let t = S.Welch.t_test p c in
    let delta = (cs.D.median -. ps.D.median) /. ps.D.median in
    let worse_mean = if lower then t.mean_b > t.mean_a else t.mean_b < t.mean_a in
    let half = t.p_value /. 2. in
    Some
      {
        parent = ps;
        change = cs;
        delta;
        p_worse = (if worse_mean then half else 1. -. half);
        d = S.Effect_size.cohens_d c p;
        worse_by = (if lower then delta else -.delta);
      }

let () =
  let table =
    List.map
      (fun w ->
        ( w,
          Option.map
            (fun (parent, change) ->
              List.map (fun m -> (fst m, compare_metric parent change m)) metrics)
            (measure w) ))
      workloads
  in
  let rows =
    List.concat_map
      (fun (_, r) -> List.filter_map snd (Option.value r ~default:[]))
      table
  in
  let level = alpha /. float_of_int (Stdlib.max 1 (List.length rows)) in
  let regressed r = r.worse_by > floor && r.p_worse < level in
  let quartiles (s : D.summary) = Printf.sprintf "%.4g [%.4g, %.4g]" s.median s.q1 s.q3 in
  Printf.printf
    "%d alternating pairs of %d s runs per workload; a regression is > %.0f%% worse in \
     the median with one-sided p < %.2g (%g / %d comparisons)\n\n"
    pairs seconds (100. *. floor) level alpha (List.length rows);
  Printf.printf "%-15s %-12s %-31s %-31s %8s %9s %6s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "delta" "p(worse)" "d" "verdict";
  List.iter
    (fun (w, r) ->
      match r with
      | None -> Printf.printf "%-15s not compared: a parent run failed\n" w
      | Some metric_rows ->
          List.iter
            (fun (metric, row) ->
              Printf.printf "%-15s %-12s " w metric;
              match row with
              | None -> print_endline "not compared: missing from a run"
              | Some r ->
                  Printf.printf "%-31s %-31s %+7.1f%% %9.2g %+6.2f  %s\n"
                    (quartiles r.parent) (quartiles r.change) (100. *. r.delta) r.p_worse
                    r.d
                    (if regressed r then "REGRESSION" else "ok"))
            metric_rows)
    table;
  match List.length (List.filter regressed rows) with
  | 0 -> print_endline "\ngate: pass"
  | n ->
      Printf.printf "\ngate: FAIL, %d metric(s) regressed\n" n;
      exit 1
