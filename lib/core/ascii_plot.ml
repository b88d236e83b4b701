module Stats = Repro_stats
module Evt = Repro_evt

let exceedance_plot ?(width = 72) ?(decades = 15) curve =
  if width < 20 then invalid_arg "Ascii_plot.exceedance_plot: width must be >= 20";
  if decades < 2 then invalid_arg "Ascii_plot.exceedance_plot: decades must be >= 2";
  let ecdf = Evt.Pwcet.sample_ecdf curve in
  let observed = Stats.Ecdf.ccdf_points ecdf in
  let x_min = Stats.Ecdf.order_statistic ecdf 0 in
  let x_max =
    Float.max
      (Evt.Pwcet.estimate curve ~cutoff_probability:(10. ** float_of_int (-decades)))
      (Stats.Ecdf.order_statistic ecdf (Stats.Ecdf.size ecdf - 1))
    *. 1.02
  in
  let col_of x =
    let c = int_of_float (float_of_int (width - 1) *. (x -. x_min) /. (x_max -. x_min)) in
    Stdlib.max 0 (Stdlib.min (width - 1) c)
  in
  (* grid.(row) is the decade row: row d covers p in (10^-(d+1), 10^-d]. *)
  let grid = Array.init decades (fun _ -> Bytes.make width ' ') in
  let row_of p =
    if p >= 1. then 0
    else begin
      let d = int_of_float (Float.floor (-.Float.log10 p)) in
      Stdlib.min (decades - 1) d
    end
  in
  List.iter
    (fun (x, p) ->
      let r = row_of p in
      Bytes.set grid.(r) (col_of x) 'o')
    observed;
  (* Model curve: sample densely along probability, inside the model's
     domain (a POT curve starts below its exceedance rate). *)
  let limit = Evt.Pwcet.cutoff_probability_limit curve in
  let steps = decades * 8 in
  for i = 0 to steps - 1 do
    let exponent = float_of_int i /. 8. in
    let p = 10. ** -.exponent in
    if p < limit then begin
      let v = Evt.Pwcet.estimate curve ~cutoff_probability:p in
      let r = row_of p in
      let c = col_of v in
      if Bytes.get grid.(r) c = ' ' then Bytes.set grid.(r) c '*'
    end
  done;
  let buffer = Buffer.create ((decades + 4) * (width + 12)) in
  Buffer.add_string buffer
    "P(exceedance)  ('o' observed ECDF tail, '*' pWCET projection)\n";
  Array.iteri
    (fun d row ->
      Buffer.add_string buffer (Printf.sprintf "1e-%02d |%s|\n" d (Bytes.to_string row)))
    grid;
  Buffer.add_string buffer
    (Printf.sprintf "      %s\n" (String.make (width + 2) '-'));
  Buffer.add_string buffer
    (Printf.sprintf "      %-12.0f%*s\n" x_min (width - 10) (Printf.sprintf "%.0f" x_max));
  Buffer.add_string buffer "      execution time (cycles)\n";
  Buffer.contents buffer

let qq_plot ?(width = 64) ?(height = 20) ~data ~quantile () =
  let n = Array.length data in
  if n < 2 then
    invalid_arg (Printf.sprintf "Ascii_plot.qq_plot: %d points, need at least 2" n);
  if width < 10 then invalid_arg "Ascii_plot.qq_plot: width must be >= 10";
  if height < 5 then invalid_arg "Ascii_plot.qq_plot: height must be >= 5";
  let sorted = Array.copy data in
  Stats.Descriptive.sort sorted;
  let nf = float_of_int n in
  (* model quantiles at the (i+0.5)/n plotting positions *)
  let model = Array.init n (fun i -> quantile ((float_of_int i +. 0.5) /. nf)) in
  let lo = Float.min sorted.(0) model.(0) in
  let hi = Float.max sorted.(n - 1) model.(n - 1) in
  let span = if hi > lo then hi -. lo else 1. in
  let col x = Stdlib.max 0 (Stdlib.min (width - 1)
                              (int_of_float (float_of_int (width - 1) *. (x -. lo) /. span))) in
  let row y = (height - 1) - Stdlib.max 0 (Stdlib.min (height - 1)
                                             (int_of_float (float_of_int (height - 1) *. (y -. lo) /. span))) in
  let grid = Array.init height (fun _ -> Bytes.make width ' ') in
  (* identity diagonal *)
  for c = 0 to width - 1 do
    let x = lo +. (span *. float_of_int c /. float_of_int (width - 1)) in
    Bytes.set grid.(row x) c '.'
  done;
  for i = 0 to n - 1 do
    Bytes.set grid.(row sorted.(i)) (col model.(i)) '+'
  done;
  let buffer = Buffer.create ((height + 3) * (width + 4)) in
  Buffer.add_string buffer "empirical quantiles (Y) vs model quantiles (X); '.' = perfect fit\n";
  Array.iter
    (fun r -> Buffer.add_string buffer (Printf.sprintf "|%s|\n" (Bytes.to_string r)))
    grid;
  Buffer.add_string buffer (Printf.sprintf "%-12.0f%*s\n" lo (width - 10) (Printf.sprintf "%.0f" hi));
  Buffer.contents buffer

let convergence_plot ?(width = 50) history =
  match history with
  | [] -> "(empty history)\n"
  | points ->
      let estimates = List.map (fun p -> p.Evt.Convergence.estimate) points in
      let lo = List.fold_left Float.min (List.hd estimates) estimates in
      let hi = List.fold_left Float.max (List.hd estimates) estimates in
      let span = if hi > lo then hi -. lo else 1. in
      let buffer = Buffer.create 1024 in
      List.iter
        (fun p ->
          let bar =
            int_of_float
              (float_of_int (width - 1) *. (p.Evt.Convergence.estimate -. lo) /. span)
          in
          Buffer.add_string buffer
            (Printf.sprintf "%6d runs %12.0f |%s*\n" p.Evt.Convergence.runs
               p.Evt.Convergence.estimate (String.make bar ' ')))
        points;
      Buffer.contents buffer
