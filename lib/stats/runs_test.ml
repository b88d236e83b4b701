type result = { runs : int; expected : float; z : float; p_value : float; random : bool }

let require_20 xs =
  if Array.length xs < 20 then invalid_arg "Runs_test.test: need at least 20 observations"

let test_about ?(alpha = 0.05) ~(median : float) xs =
  require_20 xs;
  (* Observations equal to the median are dropped, the usual convention.
     One pass over the rest counts both signs and the runs: a run starts
     wherever the sign differs from the previous kept observation's. *)
  let n_plus = ref 0 and n_minus = ref 0 and runs = ref 0 and last = ref 0 in
  for i = 0 to Array.length xs - 1 do
    let x = xs.(i) in
    if x <> median then begin
      let sign = if x > median then 1 else -1 in
      if sign > 0 then incr n_plus else incr n_minus;
      if sign <> !last then incr runs;
      last := sign
    end
  done;
  let n_plus = !n_plus and n_minus = !n_minus in
  let m = n_plus + n_minus in
  if n_plus = 0 || n_minus = 0 then
    (* Degenerate series (constant, or one-sided around the median): no
       evidence either way, so randomness cannot be rejected. *)
    { runs = Stdlib.max 1 m; expected = float_of_int (Stdlib.max 1 m); z = 0.; p_value = 1.; random = true }
  else begin
    let np = float_of_int n_plus and nm = float_of_int n_minus in
    let total = np +. nm in
    let expected = (2. *. np *. nm /. total) +. 1. in
    let variance =
      2. *. np *. nm *. ((2. *. np *. nm) -. total) /. (total *. total *. (total -. 1.))
    in
    let z = (float_of_int !runs -. expected) /. sqrt variance in
    let p_value = Special.erfc (Float.abs z /. sqrt 2.) in
    { runs = !runs; expected; z; p_value; random = p_value >= alpha }
  end

let test ?alpha xs =
  require_20 xs;
  test_about ?alpha ~median:(Descriptive.median xs) xs

let pp_result ppf r =
  Format.fprintf ppf "runs=%d expected=%.1f z=%.3f p=%.4f -> %s" r.runs r.expected r.z
    r.p_value
    (if r.random then "randomness not rejected" else "randomness REJECTED")
