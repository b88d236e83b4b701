(** Small numerical-optimization toolkit used by the maximum-likelihood
    fitters in [repro_evt]: 1-D golden-section search and an n-dimensional
    Nelder-Mead simplex.  Both are derivative-free, which keeps the EVT
    likelihoods (which have hard support boundaries) easy to handle — the
    objective may return [infinity] outside the feasible region. *)

(** [golden_section ~f ~lo ~hi ?tol ()] minimizes a unimodal [f] on
    [[lo, hi]]; returns the minimizer. *)
val golden_section : f:(float -> float) -> lo:float -> hi:float -> ?tol:float -> unit -> float

(** [nelder_mead ~f ~start ?step ?tol ?max_iter ()] minimizes [f] from the
    initial point [start]; [step] scales the initial simplex (default: 10% of
    each coordinate, or 0.1 if zero).  Returns [(argmin, min)]. *)
val nelder_mead :
  f:(float array -> float) ->
  start:float array ->
  ?step:float ->
  ?tol:float ->
  ?max_iter:int ->
  unit ->
  float array * float
