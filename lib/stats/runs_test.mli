(** Wald-Wolfowitz runs test on the above/below-median dichotomization of a
    series: a second, cheaper independence check used alongside Ljung-Box as
    cross-validation of the i.i.d. hypothesis. *)

type result = { runs : int; expected : float; z : float; p_value : float; random : bool }

(** @raise Invalid_argument if the series has fewer than 20 observations
    (the normal approximation is unusable below that). *)
val test : ?alpha:float -> float array -> result

(** [test_about ?alpha ~median xs] is {!test} with the dichotomizing
    median given: [test xs] is [test_about ~median:(Descriptive.median xs)
    xs], for callers that already hold the sorted sample.  Same guard. *)
val test_about : ?alpha:float -> median:float -> float array -> result

val pp_result : Format.formatter -> result -> unit
