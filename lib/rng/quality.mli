(** Statistical qualification battery for the MBPTA-class generators.

    Agirre et al. (DSD 2015) argue that a PRNG used for time randomization in
    a safety-critical (IEC-61508 SIL3) context must come with statistical
    evidence of uniformity and independence.  This module provides the
    classic screening tests; each returns a test statistic and the
    information needed to decide acceptance at a significance level.

    These are self-contained (they do not depend on [repro_stats], which sits
    above this library in the build order); p-values are computed with local
    chi-square / normal tail approximations adequate for screening. *)

type verdict = { statistic : float; p_value : float; passed : bool }

val pp_verdict : Format.formatter -> verdict -> unit

(** [chi_square_uniformity ?alpha ?buckets prng ~draws] bins [draws] outputs
    of [Prng.float] into [buckets] equal cells and tests uniformity. *)
val chi_square_uniformity : ?alpha:float -> ?buckets:int -> Prng.t -> draws:int -> verdict

(** [runs ?alpha prng ~draws] Wald-Wolfowitz runs test on the
    above/below-median sequence of [draws] floats: detects serial
    dependence. *)
val runs : ?alpha:float -> Prng.t -> draws:int -> verdict

(** [serial_correlation ?alpha ?lag prng ~draws] lag-[lag] (default 1)
    autocorrelation of [draws] floats, normal-approximated under H0. *)
val serial_correlation : ?alpha:float -> ?lag:int -> Prng.t -> draws:int -> verdict

(** [block_frequency ?alpha ?block_bits prng ~draws] — NIST SP 800-22 block
    frequency test: the one-bit proportion inside each [block_bits]-bit
    block (default 128) must not drift; chi-square over blocks. *)
val block_frequency : ?alpha:float -> ?block_bits:int -> Prng.t -> draws:int -> verdict

(** [gap ?alpha prng ~draws] — Knuth's gap test on [[0, 0.5)]: the gaps
    between successive hits of the target interval are geometric(1/2);
    chi-square against that law with gap lengths binned at 0..7 and
    ">= 8". *)
val gap : ?alpha:float -> Prng.t -> draws:int -> verdict

(** [qualify ?alpha ?draws prng] runs the whole battery and returns the
    labelled verdicts.  A generator is MBPTA-qualified when every test
    passes. *)
val qualify : ?alpha:float -> ?draws:int -> Prng.t -> (string * verdict) list

val all_passed : (string * verdict) list -> bool
