(* Lanczos approximation, g = 7, n = 9 coefficients. *)
let lanczos =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

(* Guards below raise [Invalid_argument] instead of asserting: every
   p-value in the i.i.d. battery funnels through these kernels, and the
   guards must hold in a [-noassert] release build too. *)
let rec log_gamma x =
  if not (x > 0.) then invalid_arg "Special.log_gamma: x must be > 0";
  if x < 0.5 then
    (* Reflection formula keeps accuracy near 0. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let a = ref lanczos.(0) in
    let t = x +. 7.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
  end

(* Series representation of P(a,x), converges quickly for x < a + 1. *)
let gamma_p_series ~a ~x =
  let eps = 1e-15 in
  let rec go ap sum del n =
    if n > 1000 then sum
    else begin
      let ap = ap +. 1. in
      let del = del *. x /. ap in
      let sum = sum +. del in
      if Float.abs del < Float.abs sum *. eps then sum else go ap sum del (n + 1)
    end
  in
  let sum = go a (1. /. a) (1. /. a) 0 in
  sum *. exp ((-.x) +. (a *. log x) -. log_gamma a)

(* Continued fraction for Q(a,x) (modified Lentz), for x >= a + 1. *)
let gamma_q_cf ~a ~x =
  let eps = 1e-15 and fpmin = 1e-300 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. fpmin) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let continue = ref true in
  while !continue && !i <= 1000 do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.;
    d := (an *. !d) +. !b;
    if Float.abs !d < fpmin then d := fpmin;
    c := !b +. (an /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.) < eps then continue := false;
    incr i
  done;
  !h *. exp ((-.x) +. (a *. log x) -. log_gamma a)

let gamma_p ~a ~x =
  if not (a > 0. && x >= 0.) then invalid_arg "Special.gamma_p: need a > 0 and x >= 0";
  if x = 0. then 0.
  else if x < a +. 1. then gamma_p_series ~a ~x
  else 1. -. gamma_q_cf ~a ~x

let gamma_q ~a ~x =
  if not (a > 0. && x >= 0.) then invalid_arg "Special.gamma_q: need a > 0 and x >= 0";
  if x = 0. then 1.
  else if x < a +. 1. then 1. -. gamma_p_series ~a ~x
  else gamma_q_cf ~a ~x

let erfc x =
  (* erfc(x) = Q(1/2, x^2) for x >= 0; reflection for x < 0. *)
  if x >= 0. then gamma_q ~a:0.5 ~x:(x *. x) else 2. -. gamma_q ~a:0.5 ~x:(x *. x)

let erf x = 1. -. erfc x

let normal_cdf z = 0.5 *. erfc (-.z /. sqrt 2.)

let log_beta a b = log_gamma a +. log_gamma b -. log_gamma (a +. b)

(* Continued fraction for the incomplete beta (modified Lentz), evaluated
   at [x < (a + 1) / (a + b + 2)] where it converges fastest; callers use
   the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for the other half. *)
let betacf ~a ~b ~x =
  let eps = 1e-15 and fpmin = 1e-300 in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. in
  let d = ref (1. -. (qab *. x /. qap)) in
  if Float.abs !d < fpmin then d := fpmin;
  d := 1. /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue = ref true in
  while !continue && !m <= 1000 do
    let mf = float_of_int !m in
    let m2 = 2. *. mf in
    (* Even step. *)
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1. +. (aa *. !d);
    if Float.abs !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1. /. !d;
    h := !h *. !d *. !c;
    (* Odd step. *)
    let aa = -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1. +. (aa *. !d);
    if Float.abs !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if Float.abs !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.) < eps then continue := false;
    incr m
  done;
  !h

let betainc ~a ~b ~x =
  if not (a > 0. && b > 0.) then invalid_arg "Special.betainc: need a > 0 and b > 0";
  if not (x >= 0. && x <= 1.) then invalid_arg "Special.betainc: x outside [0, 1]";
  if x = 0. then 0.
  else if x = 1. then 1.
  else begin
    let front = exp ((a *. log x) +. (b *. log (1. -. x)) -. log_beta a b) in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. betacf ~a ~b ~x /. a
    else 1. -. (front *. betacf ~a:b ~b:a ~x:(1. -. x) /. b)
  end

let student_t_survival ~df t =
  if not (df > 0.) then invalid_arg "Special.student_t_survival: df must be > 0";
  if Float.is_nan t then Float.nan
  else if t = Float.infinity then 0.
  else if t = Float.neg_infinity then 1.
  else begin
    let tail = 0.5 *. betainc ~a:(df /. 2.) ~b:0.5 ~x:(df /. (df +. (t *. t))) in
    if t >= 0. then tail else 1. -. tail
  end

let chi_square_survival ~df x =
  if df < 1 then invalid_arg "Special.chi_square_survival: df must be >= 1";
  if x <= 0. then 1. else gamma_q ~a:(float_of_int df /. 2.) ~x:(x /. 2.)

let kolmogorov_survival lambda =
  if lambda <= 0. then 1.
  else begin
    let rec sum k acc =
      if k > 100 then acc
      else begin
        let kf = float_of_int k in
        let term =
          (if k mod 2 = 1 then 2. else -2.) *. exp (-2. *. kf *. kf *. lambda *. lambda)
        in
        let acc' = acc +. term in
        if Float.abs term < 1e-12 then acc' else sum (k + 1) acc'
      end
    in
    Float.max 0. (Float.min 1. (sum 1 0.))
  end
