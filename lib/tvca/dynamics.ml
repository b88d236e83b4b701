type params = {
  inertia : float;
  damping : float;
  stiffness : float;
  actuator_gain : float;
}

let default_params = { inertia = 1.2; damping = 0.8; stiffness = 4.0; actuator_gain = 6.0 }

type state = { theta : float; omega : float }

let initial ~theta ~omega = { theta; omega }

(* theta' = omega; omega' = (G u - c omega - k theta + d) / J.  Inlined at
   every use, so the RK4 stages below stay in unboxed float locals. *)
let[@inline] alpha p ~u ~disturbance ~theta ~omega =
  ((p.actuator_gain *. u) -. (p.damping *. omega) -. (p.stiffness *. theta) +. disturbance)
  /. p.inertia

let angular_acceleration p ~u ~disturbance s =
  alpha p ~u ~disturbance ~theta:s.theta ~omega:s.omega

(* Classic RK4: stage [i]'s slope is (omega, alpha) at the point the
   previous stage reached. *)
let step p ~dt ~u ~disturbance s =
  let k1t = s.omega in
  let k1o = alpha p ~u ~disturbance ~theta:s.theta ~omega:s.omega in
  let k2t = s.omega +. (dt /. 2. *. k1o) in
  let k2o = alpha p ~u ~disturbance ~theta:(s.theta +. (dt /. 2. *. k1t)) ~omega:k2t in
  let k3t = s.omega +. (dt /. 2. *. k2o) in
  let k3o = alpha p ~u ~disturbance ~theta:(s.theta +. (dt /. 2. *. k2t)) ~omega:k3t in
  let k4t = s.omega +. (dt *. k3o) in
  let k4o = alpha p ~u ~disturbance ~theta:(s.theta +. (dt *. k3t)) ~omega:k4t in
  {
    theta = s.theta +. (dt /. 6. *. (k1t +. (2. *. k2t) +. (2. *. k3t) +. k4t));
    omega = s.omega +. (dt /. 6. *. (k1o +. (2. *. k2o) +. (2. *. k3o) +. k4o));
  }

let simulate p ~dt ~steps ~u ~disturbance s0 =
  let out = Array.make (steps + 1) s0 in
  for i = 1 to steps do
    out.(i) <- step p ~dt ~u:(u (i - 1)) ~disturbance:(disturbance (i - 1)) out.(i - 1)
  done;
  out
