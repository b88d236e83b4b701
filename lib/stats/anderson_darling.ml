type result = { statistic : float; p_value : float; accepted : bool }

(* Asymptotic case-0 critical values (Stephens 1974). *)
let table = [ (0.10, 1.933); (0.05, 2.492); (0.025, 3.070); (0.01, 3.857) ]

let critical_value alpha =
  match List.assoc_opt alpha table with
  | Some c -> c
  | None ->
      invalid_arg "Anderson_darling.test: alpha must be 0.10, 0.05, 0.025 or 0.01"

(* Log-linear interpolation of the (alpha, critical) table, clamped. *)
let approximate_p_value a2 =
  if a2 <= 0. then 0.5
  else begin
    let pts = List.map (fun (alpha, c) -> (c, log alpha)) table in
    let rec interpolate = function
      | (c1, l1) :: ((c2, l2) :: _ as rest) ->
          if a2 <= c1 then
            (* extrapolate above 10%: clamp at 0.5 *)
            Float.min 0.5 (exp (l1 +. ((a2 -. c1) *. (l2 -. l1) /. (c2 -. c1))))
          else if a2 <= c2 then exp (l1 +. ((a2 -. c1) *. (l2 -. l1) /. (c2 -. c1)))
          else interpolate rest
      | [ (c_last, l_last) ] ->
          (* beyond the 1% point: keep the last slope, floor at 0.001 *)
          Float.max 0.001 (exp (l_last +. ((a2 -. c_last) *. -1.)))
      | [] -> 0.5
    in
    Float.max 0.001 (Float.min 0.5 (interpolate pts))
  end

let test ?(alpha = 0.05) xs ~cdf =
  let n = Array.length xs in
  if n < 5 then invalid_arg "Anderson_darling.test: need at least 5 observations";
  let sorted = Array.copy xs in
  Descriptive.sort sorted;
  let nf = float_of_int n in
  (* Clamp F values away from {0,1}: an observation outside the model's
     support would otherwise produce infinities; the clamp turns it into a
     very large (correctly damning) statistic instead. *)
  let eps = 1e-12 in
  let f i = Float.max eps (Float.min (1. -. eps) (cdf sorted.(i))) in
  let sum = ref 0. in
  for i = 0 to n - 1 do
    let weight = float_of_int ((2 * (i + 1)) - 1) in
    sum := !sum +. (weight *. (log (f i) +. Float.log1p (-.f (n - 1 - i))))
  done;
  let statistic = -.nf -. (!sum /. nf) in
  {
    statistic;
    p_value = approximate_p_value statistic;
    accepted = statistic < critical_value alpha;
  }

let pp_result ppf r =
  Format.fprintf ppf "A2=%.4f p~%.3f -> %s" r.statistic r.p_value
    (if r.accepted then "fit not rejected" else "fit REJECTED")
