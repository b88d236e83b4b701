module type S = sig
  type state

  val name : string
  val create : int64 -> state
  val next32 : state -> int
  val copy : state -> state
end

module Word = struct
  external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
end
