(** Common interface implemented by every hardware-class pseudo-random number
    generator in this library.

    The paper relies on a pseudo-random number generator "shown to provide
    enough randomization for MBPTA" (Agirre et al., DSD 2015, an IEC-61508
    SIL3-class generator).  All generators here are of the same family:
    small-state, cheap enough for a hardware implementation, and qualified by
    the statistical battery in {!Quality}. *)

module type S = sig
  type state

  (** Human-readable generator name, e.g. ["xorshift128+"]. *)
  val name : string

  (** [create seed] initializes the state by expanding [seed] with
      {!Splitmix}; equal seeds give equal streams. *)
  val create : int64 -> state

  (** [next32 s] returns 32 uniformly distributed bits in [[0, 2^32)]
      (as a non-negative [int]) and advances the state. *)
  val next32 : state -> int

  (** [copy s] snapshots the state: the copy replays the same stream. *)
  val copy : state -> state
end

(** Unboxed access to the native-endian 64-bit words of a [Bytes], where
    the generators keep their state: a read or write boxes no [int64], so
    a draw allocates nothing (a mutable [int64] record field boxes a fresh
    value on every write).  No bounds check. *)
module Word : sig
  external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
end
