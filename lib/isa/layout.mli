(** Memory layout: where a program's code and data land in the address
    space.

    The paper's central argument for random placement is that "the memory
    layout of code/data determines the cache sets where they are placed,
    with large impact on program's execution time".  This module makes the
    layout an explicit, controllable object: the deterministic platform's
    execution time depends on it, while the time-randomized platform is
    insensitive to it by construction.

    Instructions are 4 bytes; data elements are 8-byte doubles. *)

type t

val element_bytes : int

(** [sequential ?code_base ?data_base ?gap program] — the "natural" linker
    layout: code at [code_base], then each data symbol consecutively from
    [data_base], [gap] bytes between symbols. *)
val sequential : ?code_base:int -> ?data_base:int -> ?gap:int -> Program.t -> t

(** [shifted ~offset program] — the sequential layout with every data symbol
    displaced by [offset] bytes (aligned down to an element): models
    re-linking the same program at a different address, the perturbation a
    user of a deterministic platform must enumerate. *)
val shifted : offset:int -> Program.t -> t

(** [scrambled ~seed program] — code at a seed-dependent base and data
    symbols placed in a seed-dependent order with seed-dependent padding:
    a randomly re-linked executable. *)
val scrambled : seed:int64 -> Program.t -> t

(** Byte address of instruction [index]. *)
val code_address : t -> int -> int

(** [data_address t ~symbol ~element] — byte address of an element.
    Raises [Not_found] for unknown symbols and [Invalid_argument] for
    out-of-bounds elements. *)
val data_address : t -> symbol:string -> element:int -> int

val pp : Format.formatter -> t -> unit
