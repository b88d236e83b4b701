(** Sample autocorrelation function, the ingredient of the Ljung-Box
    independence test applied by the paper to the execution-time series. *)

(** [acf xs ~lag] is the sample autocorrelation at a single [lag >= 1]
    (biased estimator, normalized by the lag-0 autocovariance). *)
val acf : float array -> lag:int -> float

(** [acf_up_to xs ~max_lag] returns [| r_1; ...; r_max_lag |], bit-identical
    to calling {!acf} per lag.  The mean and the lag-0 autocovariance are
    evaluated once instead of [max_lag] times, and the lags are swept in
    blocks of four: one pass over the data fills four independent sums,
    each still collecting its terms in ascending index order.  No float is
    boxed per element. *)
val acf_up_to : float array -> max_lag:int -> float array
