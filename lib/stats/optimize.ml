let golden_ratio = (sqrt 5. -. 1.) /. 2.

let golden_section ~f ~lo ~hi ?(tol = 1e-9) () =
  if not (hi > lo) then invalid_arg "Optimize.golden_section: need hi > lo";
  let rec go a b c fc d fd =
    (* invariant: c < d, both inside [a, b] at golden sections *)
    if b -. a < tol then (a +. b) /. 2.
    else if fc < fd then begin
      let b = d in
      let d = c and fd = fc in
      let c = b -. (golden_ratio *. (b -. a)) in
      go a b c (f c) d fd
    end
    else begin
      let a = c in
      let c = d and fc = fd in
      let d = a +. (golden_ratio *. (b -. a)) in
      go a b c fc d (f d)
    end
  in
  let c = hi -. (golden_ratio *. (hi -. lo)) in
  let d = lo +. (golden_ratio *. (hi -. lo)) in
  go lo hi c (f c) d (f d)

let nelder_mead ~f ~start ?(step = 0.1) ?(tol = 1e-10) ?(max_iter = 5000) () =
  let n = Array.length start in
  if n < 1 then invalid_arg "Optimize.nelder_mead: empty start vector";
  (* Initial simplex: start plus one perturbed vertex per dimension. *)
  let simplex =
    Array.init (n + 1) (fun i ->
        let v = Array.copy start in
        if i > 0 then begin
          let j = i - 1 in
          let delta = if v.(j) = 0. then step else step *. Float.abs v.(j) in
          v.(j) <- v.(j) +. delta
        end;
        v)
  in
  let values = Array.map f simplex in
  let order () =
    let idx = Array.init (n + 1) Fun.id in
    Array.sort (fun i j -> compare values.(i) values.(j)) idx;
    idx
  in
  let centroid except =
    let c = Array.make n 0. in
    Array.iteri
      (fun i v ->
        if i <> except then Array.iteri (fun j x -> c.(j) <- c.(j) +. x) v)
      simplex;
    Array.map (fun x -> x /. float_of_int n) c
  in
  let combine a alpha b beta = Array.init n (fun j -> (alpha *. a.(j)) +. (beta *. b.(j))) in
  let rec iterate k =
    let idx = order () in
    let best = idx.(0) and worst = idx.(n) and second_worst = idx.(n - 1) in
    let spread = Float.abs (values.(worst) -. values.(best)) in
    let scale = 1. +. Float.abs values.(best) in
    if k >= max_iter || spread /. scale < tol then (Array.copy simplex.(best), values.(best))
    else begin
      let c = centroid worst in
      let reflected = combine c 2. simplex.(worst) (-1.) in
      let fr = f reflected in
      if fr < values.(best) then begin
        (* Try expanding further along the same direction. *)
        let expanded = combine c 3. simplex.(worst) (-2.) in
        let fe = f expanded in
        if fe < fr then begin
          simplex.(worst) <- expanded;
          values.(worst) <- fe
        end
        else begin
          simplex.(worst) <- reflected;
          values.(worst) <- fr
        end;
        iterate (k + 1)
      end
      else if fr < values.(second_worst) then begin
        simplex.(worst) <- reflected;
        values.(worst) <- fr;
        iterate (k + 1)
      end
      else begin
        let contracted = combine c 0.5 simplex.(worst) 0.5 in
        let fc = f contracted in
        if fc < values.(worst) then begin
          simplex.(worst) <- contracted;
          values.(worst) <- fc;
          iterate (k + 1)
        end
        else begin
          (* Shrink everything toward the best vertex. *)
          Array.iteri
            (fun i v ->
              if i <> best then begin
                simplex.(i) <- combine simplex.(best) 0.5 v 0.5;
                values.(i) <- f simplex.(i)
              end)
            simplex;
          iterate (k + 1)
        end
      end
    end
  in
  iterate 0
