(** Block-maxima extraction, the sampling scheme behind the GEV/Gumbel fit
    of the MBPTA process (Cucu-Grosjean et al., ECRTS 2012): the run series
    is cut into consecutive blocks of [block_size] and only each block's
    maximum is kept. *)

(** [max x y] is [Float.max x y], bit for bit (NaN absorbs, +0 beats -0),
    with the out-of-line sign-bit test left to ties and NaNs. *)
val max : float -> float -> float

(** [extract ~block_size xs] — each block's maximum is the left fold of
    {!max} over it; incomplete trailing blocks are dropped.
    Raises [Invalid_argument] if fewer than one full block is available. *)
val extract : block_size:int -> float array -> float array

(** [suggest_block_size n] — a pragmatic default: the largest power of two
    that still leaves at least 30 block maxima, clamped to [[1, 64]].  30 is
    the usual minimum sample size for a stable tail fit. *)
val suggest_block_size : int -> int
