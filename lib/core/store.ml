(* Persistent, content-addressed measurement store.

   One JSONL record per campaign configuration, addressed by a digest of
   everything that could change a stored byte (schema, chunk size, full
   measurement config).  The record is append-only at chunk granularity:
   [Parallel.init_checkpointed] hands us each checkpoint chunk in
   ascending order on the calling domain, so an interruption leaves a
   clean prefix (or, if the kill landed mid-write, a prefix plus one
   malformed tail line which validation drops).  Because chunk layout is
   a pure function of the run count, the same record serves any [--jobs]
   count bit-identically — the resume contract in store.mli.

   Every line ends with an integrity trailer (see [seal]) so that
   verification can tell a torn tail (crash: resumable) from a
   bit-flipped, truncated-in-the-middle or foreign record (hostile input:
   quarantined, never merged).  Fault-free chunk payloads are base64 of
   the floats' little-endian IEEE-754 bit patterns — bit-exact by
   construction — and records are read by streaming over the file with
   bounded buffers: records are never slurped whole, chunk payloads are
   decoded on demand through a per-record byte index, and an [.idx]
   sidecar lets header-only listings skip the scan entirely.  Shard
   sessions restrict a record to a chunk-aligned span of the run space;
   [merge] recombines shard records into the byte-identical single-process
   record in O(chunk) memory.

   This build reads and writes [schema_version] only.  A record whose
   intact meta line names any other schema is [Unsupported]: listed,
   never collected, exported, merged, quarantined or deleted.

   Each job is done in one place.  One frame decoder ([decode_frame])
   reads every chunk line, for scans, lookups and warm reads alike; the
   trailer's shape ([trailer_start]), the layout ([layout_step]),
   completeness ([record_complete]) and the record copy ([copy_record])
   each have one function too.  A sidecar row that the hand-rolled row
   parser declines (a phase name holding an escape) voids the sidecar,
   and the record takes the verified scan. *)

module Json = Trace.Json

let schema_version = "store/v3"
let default_chunk_size = 256

exception Injected_crash of { appended_chunks : int }

(* ------------------------------------------------------------------ *)
(* Integrity trailer

   Every line ends with [,"sum":"<md5-hex>"}] — the digest of the line
   with the trailer spliced back out.  Sealing and verification are string
   surgery on the serialized line (not a JSON round-trip), so the check is
   byte-exact by construction: any flipped bit in the body, a truncation,
   or a hand-edited value fails the digest comparison. *)

let seal body =
  (* [body] is a serialized JSON object, so it ends with '}'. *)
  Printf.sprintf "%s,\"sum\":\"%s\"}"
    (String.sub body 0 (String.length body - 1))
    (Digest.to_hex (Digest.string body))

let trailer_len = String.length ",\"sum\":\"\"}" + 32
let trailer_head = ",\"sum\":\""

(* The one check of a trailer's shape: where [,"sum":"<32 chars>"}]
   starts in [line], or [None].  Scans verify the digest on top of it
   ([unseal]); lookups and warm reads check the shape alone (see
   [read_chunk]). *)
let trailer_start line =
  let n = String.length line in
  let start = n - trailer_len in
  let rec head i =
    i = String.length trailer_head || (line.[start + i] = trailer_head.[i] && head (i + 1))
  in
  if n > trailer_len && head 0 && line.[n - 2] = '"' && line.[n - 1] = '}' then Some start
  else None

let unseal line =
  match trailer_start line with
  | None -> Error `No_sum
  | Some start ->
      let body = String.sub line 0 start ^ "}" in
      if Digest.to_hex (Digest.string body) = String.sub line (start + 8) 32 then Ok body
      else Error `Bad_sum

(* ------------------------------------------------------------------ *)
(* Binary float payloads

   Fault-free chunks carry their samples as base64 over the concatenated
   little-endian [Int64.bits_of_float] patterns: 8 bytes per float before
   encoding, ~10.7 after — and the round-trip is bit-exact by construction
   for every pattern, including -0., subnormals, infinities and NaN
   payloads.  The encoder is hand-rolled (no new dependencies) with the
   standard alphabet and '=' padding; base64 keeps the record greppable
   JSONL and needs no JSON string escaping. *)

let b64_chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let b64_value =
  lazy
    (let t = Array.make 256 (-1) in
     String.iteri (fun i c -> t.(Char.code c) <- i) b64_chars;
     t)

(* Encoded length of [n] raw bytes, padding included. *)
let b64_len n = (n + 2) / 3 * 4

let b64_encode src =
  let n = Bytes.length src in
  let out = Buffer.create (b64_len n) in
  let byte i = Char.code (Bytes.get src i) in
  let i = ref 0 in
  while !i + 2 < n do
    let b0 = byte !i and b1 = byte (!i + 1) and b2 = byte (!i + 2) in
    Buffer.add_char out b64_chars.[b0 lsr 2];
    Buffer.add_char out b64_chars.[((b0 land 3) lsl 4) lor (b1 lsr 4)];
    Buffer.add_char out b64_chars.[((b1 land 15) lsl 2) lor (b2 lsr 6)];
    Buffer.add_char out b64_chars.[b2 land 63];
    i := !i + 3
  done;
  (match n - !i with
  | 1 ->
      let b0 = byte !i in
      Buffer.add_char out b64_chars.[b0 lsr 2];
      Buffer.add_char out b64_chars.[(b0 land 3) lsl 4];
      Buffer.add_string out "=="
  | 2 ->
      let b0 = byte !i and b1 = byte (!i + 1) in
      Buffer.add_char out b64_chars.[b0 lsr 2];
      Buffer.add_char out b64_chars.[((b0 land 3) lsl 4) lor (b1 lsr 4)];
      Buffer.add_char out b64_chars.[(b1 land 15) lsl 2];
      Buffer.add_char out '='
  | _ -> ());
  Buffer.contents out

(* Decode the window [pos, pos+len) of [s] into [dst] at [dst_pos];
   returns the decoded byte count.  The windowed input lets the chunk
   reader decode a payload in place (no copy out of the record line), and
   the caller-supplied output lets the warm materialization loop reuse one
   scratch buffer across every chunk instead of allocating ~10 MB of
   short-lived byte strings per million-run query.  All quads but the last
   run on an unsafe branch-light fast path (bounds are established once
   from [len] and [out_len]; '=' padding is only legal in the final quad,
   so a negative table entry anywhere else rejects). *)
let b64_decode_into s ~pos ~len dst ~dst_pos =
  if len mod 4 <> 0 then Error "base64 payload length is not a multiple of 4"
  else if len = 0 then Ok 0
  else if pos < 0 || pos + len > String.length s then Error "base64 window out of range"
  else begin
    let last = pos + len in
    let pad = if s.[last - 1] = '=' then if s.[last - 2] = '=' then 2 else 1 else 0 in
    let table = Lazy.force b64_value in
    let out_len = (len / 4 * 3) - pad in
    if dst_pos < 0 || dst_pos + out_len > Bytes.length dst then
      Error "base64 output window out of range"
    else begin
      let stop = dst_pos + out_len in
      let error = ref None in
      let reject c = error := Some (Printf.sprintf "invalid base64 character %C" c) in
      (* tail recursion over plain int arguments keeps the cursor pair in
         registers — a [ref] pair costs a load/store per field per quad.
         The 1 KB digit table stays resident in L1; a 64K pair table
         measured slower here because its live entries scatter across
         512 KB. *)
      let rec quads i o =
        if i + 4 >= last then (i, o)
        else begin
          let a = Array.unsafe_get table (Char.code (String.unsafe_get s i))
          and b = Array.unsafe_get table (Char.code (String.unsafe_get s (i + 1)))
          and c = Array.unsafe_get table (Char.code (String.unsafe_get s (i + 2)))
          and d = Array.unsafe_get table (Char.code (String.unsafe_get s (i + 3))) in
          if a lor b lor c lor d < 0 then begin
            (* first offending character of the quad, for the message *)
            let rec first j =
              if j >= i + 4 || table.(Char.code s.[j]) < 0 then j else first (j + 1)
            in
            reject s.[first i];
            raise Exit
          end;
          let v = (a lsl 18) lor (b lsl 12) lor (c lsl 6) lor d in
          Bytes.unsafe_set dst o (Char.unsafe_chr (v lsr 16));
          Bytes.unsafe_set dst (o + 1) (Char.unsafe_chr ((v lsr 8) land 255));
          Bytes.unsafe_set dst (o + 2) (Char.unsafe_chr (v land 255));
          quads (i + 4) (o + 3)
        end
      in
      (* two quads per iteration halves the loop/branch overhead; an
         invalid digit falls back to [quads], which re-scans the pair to
         name the offending character *)
      let rec quads2 i o =
        if i + 8 >= last then quads i o
        else begin
          let a = Array.unsafe_get table (Char.code (String.unsafe_get s i))
          and b = Array.unsafe_get table (Char.code (String.unsafe_get s (i + 1)))
          and c = Array.unsafe_get table (Char.code (String.unsafe_get s (i + 2)))
          and d = Array.unsafe_get table (Char.code (String.unsafe_get s (i + 3)))
          and e = Array.unsafe_get table (Char.code (String.unsafe_get s (i + 4)))
          and f = Array.unsafe_get table (Char.code (String.unsafe_get s (i + 5)))
          and g = Array.unsafe_get table (Char.code (String.unsafe_get s (i + 6)))
          and h = Array.unsafe_get table (Char.code (String.unsafe_get s (i + 7))) in
          if a lor b lor c lor d lor e lor f lor g lor h < 0 then quads i o
          else begin
            let v = (a lsl 18) lor (b lsl 12) lor (c lsl 6) lor d
            and w = (e lsl 18) lor (f lsl 12) lor (g lsl 6) lor h in
            Bytes.unsafe_set dst o (Char.unsafe_chr (v lsr 16));
            Bytes.unsafe_set dst (o + 1) (Char.unsafe_chr ((v lsr 8) land 255));
            Bytes.unsafe_set dst (o + 2) (Char.unsafe_chr (v land 255));
            Bytes.unsafe_set dst (o + 3) (Char.unsafe_chr (w lsr 16));
            Bytes.unsafe_set dst (o + 4) (Char.unsafe_chr ((w lsr 8) land 255));
            Bytes.unsafe_set dst (o + 5) (Char.unsafe_chr (w land 255));
            quads2 (i + 8) (o + 6)
          end
        end
      in
      (try
         let i, o = quads2 pos dst_pos in
         (* final quad: the only place '=' padding is legal *)
         let digit j =
           let c = s.[i + j] in
           let x = table.(Char.code c) in
           if x >= 0 then x
           else if c = '=' && ((j = 3 && pad >= 1) || (j = 2 && pad = 2)) then 0
           else begin
             reject c;
             raise Exit
           end
         in
         let v = (digit 0 lsl 18) lor (digit 1 lsl 12) lor (digit 2 lsl 6) lor digit 3 in
         if o < stop then Bytes.set dst o (Char.chr ((v lsr 16) land 255));
         if o + 1 < stop then Bytes.set dst (o + 1) (Char.chr ((v lsr 8) land 255));
         if o + 2 < stop then Bytes.set dst (o + 2) (Char.chr (v land 255))
       with Exit -> ());
      match !error with Some e -> Error e | None -> Ok out_len
    end
  end

module F64 = struct
  let encode a =
    let n = Array.length a in
    let raw = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_le raw (8 * i) (Int64.bits_of_float a.(i))
    done;
    b64_encode raw

  (* Decode straight into [dst.(at) .. dst.(at + n - 1)] — the warm
     materialization path fills one preallocated sample array from
     disjoint chunk slices, skipping the per-chunk array and the final
     concatenation copy.  [scratch] receives the raw bytes (the caller
     reuses one buffer across chunks); bounds on both [scratch] and [dst]
     are checked before any write. *)
  let decode_into s ~pos ~len ~n ~scratch dst ~at =
    if n < 0 then Error "chunk with a negative run count"
    else
      match b64_decode_into s ~pos ~len scratch ~dst_pos:0 with
      | Error e -> Error e
      | Ok out_len when out_len <> 8 * n ->
          Error
            (Printf.sprintf "binary payload holds %d bytes, %d runs need %d" out_len n
               (8 * n))
      | Ok _ when at < 0 || at + n > Array.length dst -> Error "decode window out of range"
      | Ok _ ->
          for i = 0 to n - 1 do
            Array.unsafe_set dst (at + i)
              (Int64.float_of_bits (Bytes.get_int64_le scratch (8 * i)))
          done;
          Ok ()

  (* [decode_into] over a fresh array.  Both buffers are sized from the
     payload, never from [n]: a run count read from a record header is
     untrusted, and one the payload cannot hold is rejected above before
     it could size an allocation. *)
  let decode_window s ~pos ~len ~n =
    let scratch = Bytes.create (len / 4 * 3) in
    let dst = Array.make (Stdlib.max 0 (Stdlib.min n (Bytes.length scratch / 8))) 0. in
    Result.map (fun () -> dst) (decode_into s ~pos ~len ~n ~scratch dst ~at:0)

  let decode s ~n = decode_window s ~pos:0 ~len:(String.length s) ~n
end

(* ------------------------------------------------------------------ *)
(* Store root *)

type t = { root : string }

let open_root ~dir =
  Trace.ensure_dir dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (Printf.sprintf "store: %s is not a directory" dir));
  { root = dir }

let dir t = t.root

let key ?(chunk_size = default_chunk_size) config =
  let b = Buffer.create 256 in
  Buffer.add_string b schema_version;
  Buffer.add_char b '\n';
  Buffer.add_string b (Printf.sprintf "chunk_size=%d\n" chunk_size);
  (* Canonical order plus %S-quoting: the digest cannot depend on how the
     harness ordered the pairs, and a value containing '=' or '\n' cannot
     collide with a differently-split pair. *)
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%S=%S\n" k v))
    (List.sort compare config);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Record lines *)

type outcome =
  | Completed of float
  | Timeout of string
  | Crashed of string
  | Corrupted of string

type trail = outcome list
type payload = Floats of float array | Trails of trail array

let payload_len = function
  | Floats a -> Array.length a
  | Trails a -> Array.length a

let json_of_outcome = function
  | Completed v -> Json.Obj [ ("k", Json.String "c"); ("v", Json.Float v) ]
  | Timeout d -> Json.Obj [ ("k", Json.String "t"); ("d", Json.String d) ]
  | Crashed d -> Json.Obj [ ("k", Json.String "x"); ("d", Json.String d) ]
  | Corrupted d -> Json.Obj [ ("k", Json.String "o"); ("d", Json.String d) ]

let outcome_of_json j =
  let detail () =
    match Option.bind (Json.member "d" j) Json.to_str with Some d -> d | None -> ""
  in
  match Option.bind (Json.member "k" j) Json.to_str with
  | Some "c" -> (
      match Option.bind (Json.member "v" j) Json.to_float with
      | Some v -> Ok (Completed v)
      | None -> Error "completed outcome without a numeric value")
  | Some "t" -> Ok (Timeout (detail ()))
  | Some "x" -> Ok (Crashed (detail ()))
  | Some "o" -> Ok (Corrupted (detail ()))
  | Some k -> Error (Printf.sprintf "unknown outcome kind %S" k)
  | None -> Error "outcome without a kind"

let meta_line ~skey ~runs ~resilient ~chunk_size ~shard ~config =
  let shard_fields =
    match shard with
    | None -> []
    | Some (lo, hi) -> [ ("shard_lo", Json.Int lo); ("shard_hi", Json.Int hi) ]
  in
  seal
    (Json.to_string
       (Json.Obj
          ([
             ("kind", Json.String "meta");
             ("schema", Json.String schema_version);
             ("key", Json.String skey);
             ("runs", Json.Int runs);
             ("resilient", Json.Bool resilient);
             ("chunk_size", Json.Int chunk_size);
           ]
          @ shard_fields
          @ [
              ( "config",
                Json.Obj
                  (List.map
                     (fun (k, v) -> (k, Json.String v))
                     (List.sort compare config)) );
            ])))

(* Chunk lines carry no shard information on purpose: a chunk written by a
   shard worker is byte-for-byte the chunk the single-process walk writes
   at the same offset, which is what makes [merge] a pure concatenation.

   Fault-free chunks are framed by hand (not via [Json.to_string]) so
   the field order is pinned: the reader's fast path peeks the header
   without parsing JSON, and the base64 payload needs no escaping.  The
   frame is still a valid JSON object, so [Json.of_string] remains a
   correct (slow) fallback. *)
let chunk_line ~phase ~lo payload =
  seal
    (match payload with
    | Floats values ->
        Printf.sprintf
          "{\"kind\":\"chunk\",\"phase\":%s,\"lo\":%d,\"n\":%d,\"enc\":\"f64le\",\"bits\":\"%s\"}"
          (Json.to_string (Json.String phase))
          lo (Array.length values) (F64.encode values)
    | Trails runs ->
        Json.to_string
          (Json.Obj
             [
               ("kind", Json.String "rchunk");
               ("phase", Json.String phase);
               ("lo", Json.Int lo);
               ( "runs",
                 Json.List
                   (Array.to_list
                      (Array.map
                         (fun trail -> Json.List (List.map json_of_outcome trail))
                         runs)) );
             ]))

(* ------------------------------------------------------------------ *)
(* Record parsing *)

type meta = {
  m_key : string;
  m_runs : int;
  m_resilient : bool;
  m_csize : int;
  m_config : (string * string) list;
  m_lo : int;  (* shard span; (0, m_runs) for a full record *)
  m_hi : int;
}

(* Why a record cannot be read.  [`Corrupt] is damage: [gc] removes the
   record and [merge] quarantines it.  [`Unsupported schema] is a meta
   line that is intact (sealed and verified, or carrying no seal at all)
   but names a schema other than [schema_version]: another build's
   record, which this one leaves alone. *)
type unreadable = [ `Corrupt of string | `Unsupported of string ]

(* The one place that decides whether a record is this build's to read.
   The seal is checked before the schema is read: one flipped bit turns
   "store/v3" into "store/v2", and that record is damage to reclaim, not
   another build's record to protect. *)
let parse_meta line : (meta, unreadable) result =
  let parse ~sealed body =
    match Json.of_string body with
    | Error e -> Error (`Corrupt (Printf.sprintf "meta line unreadable (%s)" e))
    | Ok j -> (
        let str f = Option.bind (Json.member f j) Json.to_str in
        let int f = Option.bind (Json.member f j) Json.to_int in
        let bool f = Option.bind (Json.member f j) Json.to_bool in
        match (str "kind", str "schema") with
        | Some "meta", Some s when s <> schema_version -> Error (`Unsupported s)
        | Some "meta", Some _ when not sealed ->
            Error (`Corrupt (schema_version ^ " meta line has no integrity checksum"))
        | Some "meta", Some _ -> (
            let config =
              match Json.member "config" j with
              | Some (Json.Obj fields) ->
                  let ok =
                    List.for_all (function _, Json.String _ -> true | _ -> false) fields
                  in
                  if ok then
                    Some
                      (List.map
                         (function
                           | k, Json.String v -> (k, v)
                           | _ -> assert false (* filtered above *))
                         fields)
                  else None
              | _ -> None
            in
            match (str "key", int "runs", bool "resilient", int "chunk_size", config) with
            | Some m_key, Some m_runs, Some m_resilient, Some m_csize, Some m_config ->
                let m_lo = Option.value (int "shard_lo") ~default:0 in
                let m_hi = Option.value (int "shard_hi") ~default:m_runs in
                if m_lo < 0 || m_hi > m_runs || m_lo > m_hi then
                  Error (`Corrupt "meta shard span out of range")
                else Ok { m_key; m_runs; m_resilient; m_csize; m_config; m_lo; m_hi }
            | _ -> Error (`Corrupt "meta line is missing fields"))
        | _ -> Error (`Corrupt "first line is not a meta line"))
  in
  match unseal line with
  | Ok body -> parse ~sealed:true body
  | Error `Bad_sum -> Error (`Corrupt "meta line checksum mismatch (bit flip or edit)")
  | Error `No_sum -> parse ~sealed:false line

(* What a session or an export says about a record it will not read. *)
let unreadable_error ~file : unreadable -> string = function
  | `Corrupt e -> Printf.sprintf "store: %s: %s" file e
  | `Unsupported schema ->
      Printf.sprintf "store: %s: record has schema %S; this build reads %s only" file schema
        schema_version

let trails_of_json = function
  | Json.List items ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | Json.List os :: rest -> (
            let rec outcomes acc' = function
              | [] -> Ok (List.rev acc')
              | o :: tl -> (
                  match outcome_of_json o with
                  | Ok o -> outcomes (o :: acc') tl
                  | Error e -> Error e)
            in
            match outcomes [] os with
            | Ok trail -> go (trail :: acc) rest
            | Error e -> Error e)
        | _ :: _ -> Error "trail is not a list"
      in
      go [] items
  | _ -> Error "rchunk runs is not a list"

(* One layout-validated chunk line, located by byte range.  Payloads are
   not retained: readers that need the values seek back to [c_off] and
   decode one chunk at a time, which is what keeps every whole-record
   operation (open, ls, merge, export) in O(chunk) memory. *)
type parsed_chunk = {
  c_phase : string;
  c_lo : int;
  c_len : int;  (* runs in the chunk *)
  c_off : int;  (* byte offset of the line start *)
  c_bytes : int;  (* line length, excluding the newline *)
  c_sum : string;  (* integrity trailer digest; [""] in rows read from the sidecar *)
}

(* First invalid line of a record.  [d_tampered] separates the two failure
   worlds: [false] is a torn tail (kill mid-write — the valid prefix is
   trustworthy and resumable), [true] is an integrity failure (bit flip,
   mid-record truncation, foreign or edited content — the record is
   hostile input and must be quarantined, never merged or resumed). *)
type defect = { d_reason : string; d_tampered : bool }

(* ------------------------------------------------------------------ *)
(* Chunk frames

   [decode_frame] is the one decoder of a chunk line: every scan, lookup
   and warm read calls it.  It reads the frame in place: [line.[0 ..
   stop)] is the frame less its closing '}', i.e. a sealed line cut at its
   trailer.  The pinned fault-free frame

     {"kind":"chunk","phase":"…","lo":N,"n":N,"enc":"f64le","bits":"…"}

   is read field by field, with no body copy and no JSON tree.  Resilient
   [rchunk] lines, and fault-free frames the pinned reader declines (an
   escaped phase name, a hand-written record), go through the JSON parser
   over a copy of the body.  The caller's [sink] says how far to decode
   the payload. *)
type sink =
  | Length  (* check the payload's length against the header only: shallow scans *)
  | Payload  (* decode the payload: deep scans and lookups *)
  | Slice of { scratch : Bytes.t; dst : float array; at : int; len : int }
      (* decode a [len]-run fault-free chunk straight into [dst.(at) ..]
         through the caller's raw-bytes [scratch], with no per-chunk
         array: warm reads *)

(* [(phase, lo, n, bits_start, bits_len)] of a pinned frame, or [None]. *)
let pinned_frame line ~stop =
  let starts_with p i =
    i + String.length p <= stop && String.sub line i (String.length p) = p
  in
  let prefix = "{\"kind\":\"chunk\",\"phase\":\"" in
  if stop > String.length line || not (starts_with prefix 0) then None
  else begin
    let pstart = String.length prefix in
    let rec scan_str i =
      if i >= stop then None
      else match line.[i] with '"' -> Some i | '\\' -> None | _ -> scan_str (i + 1)
    in
    let scan_int i =
      let rec go i acc any =
        if i < stop && line.[i] >= '0' && line.[i] <= '9' then
          go (i + 1) ((acc * 10) + (Char.code line.[i] - 48)) true
        else if any then Some (acc, i)
        else None
      in
      go i 0 false
    in
    let ( let* ) o f = Option.bind o f in
    let expect lit i = if starts_with lit i then Some (i + String.length lit) else None in
    let* pend = scan_str pstart in
    let phase = String.sub line pstart (pend - pstart) in
    let* i = expect ",\"lo\":" (pend + 1) in
    let* lo, i = scan_int i in
    let* i = expect ",\"n\":" i in
    let* n, i = scan_int i in
    let* bstart = expect ",\"enc\":\"f64le\",\"bits\":\"" i in
    if stop < bstart + 1 || line.[stop - 1] <> '"' then None
    else Some (phase, lo, n, bstart, stop - 1 - bstart)
  end

(* The JSON route: [body] is a whole frame. *)
let parsed_frame ~resilient body =
  match Json.of_string body with
  | Error e -> Error (Printf.sprintf "unreadable (%s)" e)
  | Ok j -> (
      let str f = Option.bind (Json.member f j) Json.to_str in
      let int f = Option.bind (Json.member f j) Json.to_int in
      let payload =
        match str "kind" with
        | Some "chunk" when not resilient -> (
            match (str "bits", int "n") with
            | Some bits, Some n -> Result.map (fun a -> Floats a) (F64.decode bits ~n)
            | Some _, None -> Error "binary chunk without a run count"
            | None, _ -> Error "chunk without a bits payload")
        | Some "rchunk" when resilient -> (
            match Json.member "runs" j with
            | Some v -> Result.map (fun a -> Trails a) (trails_of_json v)
            | None -> Error "rchunk without runs")
        | Some k -> Error (Printf.sprintf "unexpected line kind %S" k)
        | None -> Error "line without a kind"
      in
      match (str "phase", int "lo", payload) with
      | Some phase, Some lo, Ok p -> Ok (phase, lo, p)
      | _, _, Error e -> Error e
      | _ -> Error "chunk without phase/lo")

(* [(phase, lo, runs, payload)]: [payload] is [Some] whenever the decode
   built one — always under [Payload], never under [Slice]. *)
let decode_frame ~resilient sink line ~stop =
  let runs_mismatch n len =
    Error (Printf.sprintf "chunk holds %d runs, layout expects %d" n len)
  in
  match if resilient then None else pinned_frame line ~stop with
  | Some (phase, lo, n, pos, len) -> (
      let chunk payload = Ok (phase, lo, n, payload) in
      match sink with
      | Length ->
          if n < 0 then Error "chunk with a negative run count"
          else if len <> b64_len (8 * n) then
            Error
              (Printf.sprintf "binary payload is %d base64 bytes, %d runs need %d" len n
                 (b64_len (8 * n)))
          else chunk None
      | Payload ->
          Result.bind (F64.decode_window line ~pos ~len ~n) (fun a ->
              chunk (Some (Floats a)))
      | Slice s ->
          if n <> s.len then runs_mismatch n s.len
          else
            Result.bind
              (F64.decode_into line ~pos ~len ~n ~scratch:s.scratch s.dst ~at:s.at)
              (fun () -> chunk None))
  | None -> (
      match parsed_frame ~resilient (String.sub line 0 stop ^ "}") with
      | Error e -> Error e
      | Ok (phase, lo, p) -> (
          let n = payload_len p in
          match (sink, p) with
          | (Length | Payload), _ -> Ok (phase, lo, n, Some p)
          | Slice s, Floats a when n = s.len ->
              Array.blit a 0 s.dst s.at n;
              Ok (phase, lo, n, None)
          | Slice s, _ -> runs_mismatch n s.len))

(* ------------------------------------------------------------------ *)
(* Chunk layout *)

(* The one layout step, replayed over a scanned record's lines and over
   sidecar rows alike: a chunk must sit at its phase's write frontier,
   inside the span, with the length the fixed layout gives its offset.
   On success the phase's frontier moves past it. *)
let layout_step m frontier ~phase ~lo ~len =
  let front = match Hashtbl.find_opt frontier phase with Some f -> f | None -> m.m_lo in
  let expected = Stdlib.min m.m_csize (m.m_runs - lo) in
  if lo <> front then
    Error (Printf.sprintf "%s chunk at %d, expected frontier %d" phase lo front)
  else if lo >= m.m_hi then Error "chunk beyond the record's span"
  else if len <> expected then
    Error (Printf.sprintf "chunk at %d has %d runs, layout expects %d" lo len expected)
  else begin
    Hashtbl.replace frontier phase (lo + expected);
    Ok ()
  end

(* The one completeness rule: every phase the record holds reaches the
   end of its span.  An empty span is complete with no chunk at all. *)
let record_complete m frontier =
  m.m_lo >= m.m_hi
  || Hashtbl.length frontier > 0
     && Hashtbl.fold (fun _ f complete -> complete && f >= m.m_hi) frontier true

type parsed_record = {
  r_meta : meta;
  r_meta_line : string;  (* raw first line, verbatim *)
  r_chunks : parsed_chunk list;  (* file order; the valid prefix *)
  r_frontier : (string, int) Hashtbl.t;
  r_defect : defect option;  (* first invalid line, if any *)
  r_valid_end : int;  (* byte offset just past the last valid line *)
}

(* Stream over a record file, validating every line against the fixed
   layout and the per-phase write frontier, in O(line) memory.  Anything
   off — checksum failure, wrong kind for the record, lo not at the
   frontier, wrong length, parse failure — is a defect: the record's
   valid prefix ends just before that line.  [deep] additionally decodes
   every payload (and discards it), so a sealed-but-undecodable payload
   is caught; shallow scans still verify every line's checksum. *)
let scan_record ?(deep = false) file =
  match open_in_bin file with
  | exception Sys_error _ -> Error (`Corrupt "record unreadable or empty")
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      match input_line ic with
      | exception End_of_file -> Error (`Corrupt "record unreadable or empty")
      | meta_ln -> (
          match parse_meta meta_ln with
          | Error e -> Error e
          | Ok r_meta ->
              let frontier = Hashtbl.create 4 in
              let chunks = ref [] in
              let valid_end = ref (pos_in ic) in
              let defect = ref None in
              let lineno = ref 1 in
              let fail ?(tampered = false) fmt =
                Printf.ksprintf
                  (fun d_reason -> defect := Some { d_reason; d_tampered = tampered })
                  fmt
              in
              (* A crash tears at most the last line of the file; a missing
                 trailer anywhere else means the record was cut or edited. *)
              let rest_blank () =
                let rec go () =
                  match input_line ic with
                  | "" -> go ()
                  | _ -> false
                  | exception End_of_file -> true
                in
                go ()
              in
              let sink = if deep then Payload else Length in
              (try
                 while !defect = None do
                   let off = pos_in ic in
                   let line = input_line ic in
                   incr lineno;
                   let lineno = !lineno in
                   if line <> "" (* tolerate blank lines *) then
                     match unseal line with
                     | Error `Bad_sum ->
                         fail ~tampered:true "line %d: checksum mismatch (bit flip or edit)"
                           lineno
                     | Error `No_sum ->
                         if rest_blank () then
                           fail "line %d: torn tail (no checksum trailer)" lineno
                         else
                           fail ~tampered:true
                             "line %d: checksum trailer missing mid-record" lineno
                     | Ok body -> (
                         let stop = String.length body - 1 in
                         let chunk =
                           Result.bind
                             (decode_frame ~resilient:r_meta.m_resilient sink line ~stop)
                             (fun (phase, lo, len, _) ->
                               Result.map
                                 (fun () -> (phase, lo, len))
                                 (layout_step r_meta frontier ~phase ~lo ~len))
                         in
                         match chunk with
                         | Error e -> fail "line %d: %s" lineno e
                         | Ok (c_phase, c_lo, c_len) ->
                             chunks :=
                               {
                                 c_phase;
                                 c_lo;
                                 c_len;
                                 c_off = off;
                                 c_bytes = String.length line;
                                 c_sum = String.sub line (stop + 8) 32;
                               }
                               :: !chunks;
                             valid_end := pos_in ic)
                 done
               with End_of_file -> ());
              Ok
                {
                  r_meta;
                  r_meta_line = meta_ln;
                  r_chunks = List.rev !chunks;
                  r_frontier = frontier;
                  r_defect = !defect;
                  r_valid_end = !valid_end;
                }))

(* ------------------------------------------------------------------ *)
(* Index sidecar

   [<key>.jsonl.idx] caches the byte layout of a clean record — one row
   per chunk — so header-only reads ([ls ~deep:false]) and warm session
   opens skip the record scan entirely.  The sidecar is a derived
   cache, never a source of truth: it is only honored when its header
   stamps the record's exact byte size, mtime and meta-line digest, it
   is only ever written over chunks whose seals were verified (by the
   writer at append time, or by the full scan that rebuilt it — the
   git-index trust model), and any parse hiccup silently falls back to
   a scan that rebuilds it.  Written via tmp + rename (pid-stamped tmp
   name) so concurrent writers cannot tear it.  The [.idx] suffix keeps
   it invisible to the [.jsonl] filters in [ls]/[gc]/[merge]. *)

let file_bytes file =
  match open_in_bin file with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> in_channel_length ic)
  | exception Sys_error _ -> 0

let index_path file = file ^ ".idx"
let index_magic = "mbpta-idx/v1"

(* The sidecar stamps the record's mtime alongside its size (git-index
   style): any offline rewrite of the record — even one preserving the
   byte count, like a flipped bit — bumps the mtime and invalidates the
   sidecar, which is what lets a session adopt a fresh sidecar without
   rescanning.  Encoded as the IEEE-754 bit pattern so the stamp
   round-trips exactly. *)
let file_mtime_bits file =
  match Unix.stat file with
  | { Unix.st_mtime; _ } -> Int64.bits_of_float st_mtime
  | exception Unix.Unix_error _ -> 0L

let write_index ~file ~meta_sum ~bytes chunks =
  let idx = index_path file in
  let tmp = Printf.sprintf "%s.%d.tmp" idx (Unix.getpid ()) in
  match open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 tmp with
  | exception Sys_error _ -> ()
  | oc -> (
      match
        Printf.fprintf oc "%s %d %Ld %s\n" index_magic bytes (file_mtime_bits file)
          meta_sum;
        List.iter
          (fun c ->
            Printf.fprintf oc "%S %d %d %d %d\n" c.c_phase c.c_lo c.c_len c.c_off
              c.c_bytes)
          chunks;
        close_out oc;
        Sys.rename tmp idx
      with
      | () -> ()
      | exception Sys_error _ ->
          close_out_noerr oc;
          (try Sys.remove tmp with Sys_error _ -> ()))

(* Hand-rolled row parse ([%S %d %d %d %d]): [Scanf] costs microseconds
   per row, which at million-run index sizes puts whole milliseconds back
   into a warm open.  A row it declines, such as a phase name holding an
   escape (legal, but never written by the harness), voids the sidecar:
   the record then takes the verified scan, as on any other sidecar
   problem. *)
let parse_index_row line =
  let len = String.length line in
  if len < 2 || line.[0] <> '"' then None
  else begin
    let rec close i =
      if i >= len then None
      else match line.[i] with '"' -> Some i | '\\' -> None | _ -> close (i + 1)
    in
    match close 1 with
    | None -> None
    | Some q -> (
        let c_phase = String.sub line 1 (q - 1) in
        let ints = ref [] in
        let i = ref (q + 1) in
        (try
           while !i < len do
             while !i < len && line.[!i] = ' ' do
               incr i
             done;
             let st = !i in
             while !i < len && line.[!i] <> ' ' do
               incr i
             done;
             if !i > st then ints := int_of_string (String.sub line st (!i - st)) :: !ints
           done
         with Failure _ -> ints := [ -1 ]);
        match List.rev !ints with
        | [ c_lo; c_len; c_off; c_bytes ] ->
            Some { c_phase; c_lo; c_len; c_off; c_bytes; c_sum = "" }
        | _ -> None)
  end

(* [Some chunks] iff the sidecar exists and stamps exactly this record
   (size + mtime + meta digest); any mismatch or parse failure is [None]. *)
let read_index ~file ~meta_sum =
  match open_in_bin (index_path file) with
  | exception Sys_error _ -> None
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      try
        let header = input_line ic in
        let fresh =
          Scanf.sscanf header "%s %d %Ld %s" (fun magic bytes mtime sum ->
              magic = index_magic && bytes = file_bytes file
              && mtime = file_mtime_bits file && sum = meta_sum)
        in
        if not fresh then None
        else begin
          let rows = ref [] in
          let ok = ref true in
          (try
             while !ok do
               let line = input_line ic in
               if line <> "" then
                 match parse_index_row line with
                 | Some r -> rows := r :: !rows
                 | None -> ok := false
             done
           with End_of_file -> ());
          if !ok then Some (List.rev !rows) else None
        end
      with Scanf.Scan_failure _ | Failure _ | End_of_file | Sys_error _ -> None)

(* Replay the fixed layout over sidecar rows.  Returns the per-phase
   frontier (what an [ls] needs) or [None] if the rows are inconsistent
   with the meta line. *)
let index_frontier m rows =
  let frontier = Hashtbl.create 4 in
  let fits c =
    c.c_off > 0 && c.c_bytes > 0
    && Result.is_ok (layout_step m frontier ~phase:c.c_phase ~lo:c.c_lo ~len:c.c_len)
  in
  if List.for_all fits rows then Some frontier else None

let read_first_line file =
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | line -> Some line
          | exception End_of_file -> None)

(* ------------------------------------------------------------------ *)
(* Record copies *)

let fsync_channel ~file oc =
  match Unix.fsync (Unix.descr_of_out_channel oc) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "store: fsync %s: %s" file (Unix.error_message e)))

(* Copy [n] bytes between channels through a bounded buffer. *)
let copy_buf_len = 65536

let copy_bytes ic oc n =
  if n > 0 then begin
    let buf = Bytes.create (Stdlib.min n copy_buf_len) in
    let rec go remaining =
      if remaining > 0 then begin
        let k = Stdlib.min remaining (Bytes.length buf) in
        really_input ic buf 0 k;
        output oc buf 0 k;
        go (remaining - k)
      end
    in
    go n
  end

(* The one record copier: [meta], then each chunk line copied verbatim
   from its [(file, chunk)] byte range through a bounded buffer.  The
   rewrite after a torn tail, [merge] and [export_to] all write records
   this way, in O(chunk) memory.  [before_chunk] runs ahead of each line
   (merge's crash-injection budget).  Returns the chunks at their offsets
   in the copy, and the copy's byte size. *)
let copy_record ?(before_chunk = ignore) oc ~meta chunks =
  let handles = Hashtbl.create 4 in
  Fun.protect ~finally:(fun () -> Hashtbl.iter (fun _ ic -> close_in_noerr ic) handles)
  @@ fun () ->
  List.iter
    (fun (f, _) ->
      if not (Hashtbl.mem handles f) then Hashtbl.replace handles f (open_in_bin f))
    chunks;
  output_string oc meta;
  output_char oc '\n';
  let copied, bytes =
    List.fold_left
      (fun (copied, pos) (f, c) ->
        before_chunk ();
        let ic = Hashtbl.find handles f in
        seek_in ic c.c_off;
        copy_bytes ic oc c.c_bytes;
        output_char oc '\n';
        ({ c with c_off = pos } :: copied, pos + c.c_bytes + 1))
      ([], String.length meta + 1)
      chunks
  in
  (List.rev copied, bytes)

(* [copy_record] into [tmp], renamed over [file] once whole, so a crash at
   any point leaves the previous record intact.  The sidecar, stale from
   then on, goes first. *)
let rewrite_record ?before_chunk ~sync ~tmp file ~meta chunks =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 tmp in
  let copied =
    try
      let copied = copy_record ?before_chunk oc ~meta chunks in
      flush oc;
      if sync then fsync_channel ~file:tmp oc;
      close_out oc;
      copied
    with e ->
      close_out_noerr oc;
      raise e
  in
  (try Sys.remove (index_path file) with Sys_error _ -> ());
  Sys.rename tmp file;
  copied

(* Set a record aside as [<file>.quarantined], which [ls] lists as
   [Corrupt] and [gc] reclaims, and drop its sidecar. *)
let quarantine_file file =
  (try Sys.rename file (file ^ ".quarantined") with Sys_error _ -> ());
  try Sys.remove (index_path file) with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Sessions *)

type session = {
  skey : string;
  file : string;
  csize : int;
  s_runs : int;
  s_resilient : bool;
  s_lo : int;  (* shard span; (0, s_runs) for a full session *)
  s_hi : int;
  s_sync : bool;
  s_meta_sum : string;  (* md5 of the on-disk meta line; stamps the sidecar *)
  index : (string * int, int * int) Hashtbl.t;
      (* (phase, lo) -> (byte offset, line bytes): chunks are re-read on
         demand, never held in memory — session RSS is O(chunk) *)
  frontier : (string, int) Hashtbl.t;  (* phase -> next lo to append *)
  at_open : (string, int) Hashtbl.t;  (* frontier snapshot at open time *)
  mutable end_off : int;  (* byte offset just past the last valid line *)
  mutable oc : out_channel option;
  mutable ic : in_channel option;  (* lazy read handle for chunk lookups *)
  mutable lock : Unix.file_descr option;  (* held advisory writer lock *)
  mutable fail_after : int option;
  mutable appended : int;
  mutable closed : bool;
  s_idx_fresh : bool;
      (* session was adopted from a fresh sidecar: close can skip
         rewriting it as long as nothing was appended *)
}

let cached_runs s ~phase =
  let front =
    match Hashtbl.find_opt s.at_open phase with Some f -> f | None -> s.s_lo
  in
  Stdlib.max 0 (front - s.s_lo)

let complete s ~phase = cached_runs s ~phase >= s.s_hi - s.s_lo
let set_fail_after s n = s.fail_after <- Some n

let fail_after_from_env () =
  Option.bind (Sys.getenv_opt "MBPTA_STORE_FAIL_AFTER_CHUNKS") int_of_string_opt

(* ------------------------------------------------------------------ *)
(* Advisory writer locks.

   Two writers appending to one record would interleave chunk lines into
   a torn file that only the per-line checksum catches after the fact, so
   a session takes a non-blocking exclusive [fcntl] lock on
   [<key>.jsonl.lock] before it parses or truncates anything.  The lock
   lives on a sidecar file (never on the record itself) because closing
   *any* descriptor of a locked file drops all of the process's fcntl
   locks on it — and the record file is opened and closed freely by
   [scan_record].  For the same reason all lock-file descriptors go
   through a process-local registry: at most one open descriptor per lock
   path, which doubles as in-process mutual exclusion (fcntl locks never
   conflict within one process).  Locks die with the process, so a killed
   campaign leaves no stale lock — only a harmless sidecar file that
   [ls]/[gc]/[merge] ignore (they filter on the [.jsonl] suffix). *)

let lock_path file = file ^ ".lock"
let locks_held : (string, unit) Hashtbl.t = Hashtbl.create 8
let locks_mutex = Mutex.create ()

let locked_diagnostic ~file fd =
  let holder =
    try
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      let buf = Bytes.create 32 in
      let n = Unix.read fd buf 0 32 in
      match String.trim (Bytes.sub_string buf 0 n) with
      | "" -> ""
      | pid -> Printf.sprintf " (pid %s)" pid
    with Unix.Unix_error _ -> ""
  in
  Printf.sprintf
    "store: %s is locked by another writer%s — concurrent sessions on one key would \
     interleave its chunks; wait for that campaign, or point this one at its own \
     --cache-dir"
    file holder

let acquire_lock ~file =
  let path = lock_path file in
  Mutex.lock locks_mutex;
  let result =
    if Hashtbl.mem locks_held path then
      Error
        (Printf.sprintf
           "store: %s is locked by another session of this process — concurrent \
            sessions on one key would interleave its chunks"
           file)
    else
      match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "store: cannot open lock file %s: %s" path
               (Unix.error_message e))
      | fd -> (
          match Unix.lockf fd Unix.F_TLOCK 0 with
          | () ->
              (* Stamp our pid so the next contender's diagnostic can name
                 the holder; best-effort only. *)
              (try
                 ignore (Unix.ftruncate fd 0);
                 ignore (Unix.lseek fd 0 Unix.SEEK_SET);
                 let pid = string_of_int (Unix.getpid ()) in
                 ignore (Unix.write_substring fd pid 0 (String.length pid))
               with Unix.Unix_error _ -> ());
              Hashtbl.replace locks_held path ();
              Ok fd
          | exception Unix.Unix_error ((EAGAIN | EACCES), _, _) ->
              let msg = locked_diagnostic ~file fd in
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error msg
          | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Error
                (Printf.sprintf "store: cannot lock %s: %s" path (Unix.error_message e)))
  in
  Mutex.unlock locks_mutex;
  result

let release_lock ~file fd =
  Mutex.lock locks_mutex;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Hashtbl.remove locks_held (lock_path file);
  Mutex.unlock locks_mutex

let release_session_lock s =
  match s.lock with
  | None -> ()
  | Some fd ->
      s.lock <- None;
      release_lock ~file:s.file fd

let mk_session ?(idx_fresh = false) ~skey ~file ~csize ~runs ~resilient
    ~span:(s_lo, s_hi) ~sync ~meta_sum ~index ~end_off ~frontier ~oc ~lock () =
  let at_open = Hashtbl.copy frontier in
  {
    skey;
    file;
    csize;
    s_runs = runs;
    s_resilient = resilient;
    s_lo;
    s_hi;
    s_sync = sync;
    s_meta_sum = meta_sum;
    index;
    frontier;
    at_open;
    end_off;
    oc;
    ic = None;
    lock;
    fail_after = fail_after_from_env ();
    appended = 0;
    closed = false;
    s_idx_fresh = idx_fresh;
  }

let open_session ?(chunk_size = default_chunk_size) ?(resume = false) ?(sync = false)
    ?shard t ~key:skey ~config ~runs ~resilient =
  if runs < 0 then invalid_arg "Store.open_session: negative runs";
  if chunk_size < 1 then invalid_arg "Store.open_session: chunk_size must be >= 1";
  let s_lo, s_hi = match shard with None -> (0, runs) | Some (lo, hi) -> (lo, hi) in
  if s_lo < 0 || s_hi > runs || s_lo > s_hi then
    invalid_arg "Store.open_session: shard span out of range";
  if s_lo mod chunk_size <> 0 then
    invalid_arg "Store.open_session: shard lower bound must be chunk-aligned";
  if s_hi <> runs && s_hi mod chunk_size <> 0 then
    invalid_arg
      "Store.open_session: shard upper bound must be chunk-aligned or the run count";
  (* A span covering everything is a full session: its record carries no
     shard fields, so `--shard 1/1` writes the single-process record. *)
  let shard = if s_lo = 0 && s_hi = runs then None else Some (s_lo, s_hi) in
  let span = (s_lo, s_hi) in
  let derived = key ~chunk_size config in
  if derived <> skey then
    Error
      (Printf.sprintf "store: key %s does not match its configuration (digest %s)" skey
         derived)
  else begin
    let file = Filename.concat t.root (skey ^ ".jsonl") in
    (* The advisory writer lock is taken before the record is even parsed:
       admitting a second writer any later would let it truncate or append
       behind the first one's back.  Every path that does not hand the
       lock to a writer session (errors, and the read-only adoption of a
       complete record — warm readers must never serialize) releases it. *)
    match acquire_lock ~file with
    | Error e -> Error e
    | Ok lockfd ->
    let kept = ref false in
    let keep () = kept := true; Some lockfd in
    Fun.protect ~finally:(fun () -> if not !kept then release_lock ~file lockfd)
    @@ fun () ->
    let meta = meta_line ~skey ~runs ~resilient ~chunk_size ~shard ~config in
    (* [meta_line] sorts config pairs canonically, so whenever the
       metadata agreement check below passes, [meta] is byte-identical to
       the record's on-disk meta line. *)
    let meta_sum = Digest.to_hex (Digest.string meta) in
    (* What this campaign's record must say about itself. *)
    let want =
      {
        m_key = skey;
        m_runs = runs;
        m_resilient = resilient;
        m_csize = chunk_size;
        m_config = List.sort compare config;
        m_lo = s_lo;
        m_hi = s_hi;
      }
    in
    let fresh () =
      (* Eager meta write: an unwritable store fails before any simulation
         time is spent, and a killed campaign always leaves a parseable
         record. *)
      let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 file in
      output_string oc meta;
      output_char oc '\n';
      flush oc;
      if sync then fsync_channel ~file oc;
      Ok
        (mk_session ~skey ~file ~csize:chunk_size ~runs ~resilient ~span ~sync
           ~meta_sum ~index:(Hashtbl.create 16)
           ~end_off:(String.length meta + 1)
           ~frontier:(Hashtbl.create 4) ~oc:(Some oc) ~lock:(keep ()) ())
    in
    let index_of_chunks chunks =
      let h = Hashtbl.create 16 in
      List.iter (fun c -> Hashtbl.replace h (c.c_phase, c.c_lo) (c.c_off, c.c_bytes)) chunks;
      h
    in
    if not (Sys.file_exists file) then fresh ()
    else begin
      (* Warm fast path: when a sidecar stamps the record's exact size,
         mtime and meta digest, its rows replay to a complete record, and
         they tile the record's bytes exactly, a read-only session adopts
         the index without rescanning — O(index) instead of O(record) per
         warm query.  The integrity model is the same as git's index: the
         sidecar is only ever written over chunks that were seal-verified
         (at append time by the writer, or by the full scan that rebuilt
         it), adoption demands the record's exact byte size and mtime
         stamp plus a byte-for-byte match of the meta line, and any
         rewrite of the record voids the stamp and forces the full
         verified scan below.  [cache verify] stays the offline deep
         check.  Only complete records qualify — every append path
         scans. *)
      let warm_adopt () =
        if read_first_line file <> Some meta then None
        else
          match read_index ~file ~meta_sum with
          | None -> None
          | Some rows -> (
              match index_frontier want rows with
              | None -> None
              | Some frontier ->
                  let bytes = file_bytes file in
                  let pos = ref (String.length meta + 1) in
                  let tiled =
                    List.for_all
                      (fun c ->
                        let ok = c.c_off = !pos in
                        pos := c.c_off + c.c_bytes + 1;
                        ok)
                      rows
                    && !pos = bytes
                  in
                  if tiled && record_complete want frontier then
                    Some
                      (mk_session ~idx_fresh:true ~skey ~file ~csize:chunk_size ~runs
                         ~resilient ~span ~sync ~meta_sum
                         ~index:(index_of_chunks rows) ~end_off:bytes ~frontier
                         ~oc:None ~lock:None ())
                  else None)
      in
      match warm_adopt () with
      | Some s -> Ok s
      | None ->
      match scan_record file with
      | Error e -> Error (unreadable_error ~file e)
      | Ok r when { r.r_meta with m_config = List.sort compare r.r_meta.m_config } <> want
        ->
          Error
            (Printf.sprintf
               "store: %s: record metadata disagrees with this campaign (inspect with \
                `cache ls`, reclaim with `cache gc`)"
               file)
      | Ok r -> (
          match r.r_defect with
          | Some d when d.d_tampered && resume ->
              Error
                (Printf.sprintf
                   "store: %s: %s — record fails its integrity check; quarantine it or \
                    reclaim with `cache gc`"
                   file d.d_reason)
          | Some d when d.d_tampered -> fresh ()
          | _ ->
              let adopt ~index ~end_off ~lock =
                mk_session ~skey ~file ~csize:chunk_size ~runs ~resilient ~span ~sync
                  ~meta_sum ~index ~end_off ~frontier:r.r_frontier ~oc:None ~lock ()
              in
              if r.r_defect = None && record_complete want r.r_frontier then
                Ok
                  (adopt ~index:(index_of_chunks r.r_chunks) ~end_off:r.r_valid_end
                     ~lock:None)
              else if not resume then fresh ()
              else if r.r_defect = None && r.r_valid_end = file_bytes file then
                (* Clean partial record: append in place. *)
                Ok
                  (adopt ~index:(index_of_chunks r.r_chunks) ~end_off:r.r_valid_end
                     ~lock:(keep ()))
              else
                (* Resume after a torn tail (or stray blank lines): rewrite
                   the record to exactly the valid prefix, so the on-disk
                   bytes and the in-memory index agree before we append. *)
                let chunks, end_off =
                  rewrite_record ~sync ~tmp:(file ^ ".tmp") file ~meta
                    (List.map (fun c -> (file, c)) r.r_chunks)
                in
                Ok (adopt ~index:(index_of_chunks chunks) ~end_off ~lock:(keep ())))
    end
  end

(* Refresh the sidecar from the session's index — best-effort, and only
   when the file is exactly the bytes this session accounted for (a
   record modified behind our back must not get a fresh stamp). *)
let write_session_index s =
  if file_bytes s.file = s.end_off then begin
    let chunks =
      Hashtbl.fold
        (fun (c_phase, c_lo) (c_off, c_bytes) acc ->
          {
            c_phase;
            c_lo;
            c_len = Stdlib.min s.csize (s.s_runs - c_lo);
            c_off;
            c_bytes;
            c_sum = "";
          }
          :: acc)
        s.index []
      |> List.sort (fun a b -> compare a.c_off b.c_off)
    in
    write_index ~file:s.file ~meta_sum:s.s_meta_sum ~bytes:s.end_off chunks
  end

let close s =
  if not s.closed then begin
    s.closed <- true;
    (match s.oc with
    | Some oc ->
        s.oc <- None;
        (try flush oc with Sys_error _ -> ());
        close_out_noerr oc
    | None -> ());
    (match s.ic with
    | Some ic ->
        s.ic <- None;
        close_in_noerr ic
    | None -> ());
    (* A warm-adopted session that appended nothing leaves the sidecar it
       was built from untouched — rewriting it would only churn bytes. *)
    if not (s.s_idx_fresh && s.appended = 0) then
      (try write_session_index s with Sys_error _ -> ());
    release_session_lock s
  end

let ensure_oc s =
  match s.oc with
  | Some oc -> oc
  | None ->
      let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 s.file in
      s.oc <- Some oc;
      oc

let expected_len s ~lo = Stdlib.min s.csize (s.s_runs - lo)

let session_ic s =
  match s.ic with
  | Some ic -> ic
  | None ->
      let ic = open_in_bin s.file in
      s.ic <- Some ic;
      ic

let chunk_fail ~file ~phase ~lo fmt =
  Printf.ksprintf
    (fun m ->
      raise
        (Sys_error
           (Printf.sprintf
              "store: %s: chunk (%s, %d): %s (record modified behind the session?)"
              file phase lo m)))
    fmt

(* The one reader behind lookups and warm reads: seek to an indexed
   chunk line and decode it into [sink].  The seal digest is NOT
   recomputed here: every path that builds a session index has already
   vouched for these bytes — a full scan md5-verified each line, a warm
   adoption pinned the record's exact size+mtime+meta against a sidecar
   that was only ever written over verified chunks, and a writer session
   wrote the line itself.  Re-hashing per read would make warm queries
   O(record) in digest work again (the very cost the index removes);
   [cache verify] remains the offline deep check.  The structural checks
   (trailer shape, frame, phase/offset, run count) still catch a file
   swapped or resized behind the open session — that is an I/O-level
   fault, not a cache miss, and it raises [Sys_error].  The channel is
   explicit so parallel warm reads can decode chunks over per-worker
   channels.  With [buf], the line is read through the caller's reusable
   buffer (grown on a size change), which it aliases until the next read
   through the same buffer. *)
let read_chunk ?buf ~file ~resilient ic ~phase ~lo (off, bytes) sink =
  let fail fmt = chunk_fail ~file ~phase ~lo fmt in
  seek_in ic off;
  let line =
    match buf with
    | None -> (
        match really_input_string ic bytes with
        | l -> l
        | exception End_of_file -> fail "record truncated")
    | Some r -> (
        let b = if Bytes.length !r = bytes then !r else Bytes.create bytes in
        r := b;
        match really_input ic b 0 bytes with
        | () -> Bytes.unsafe_to_string b
        | exception End_of_file -> fail "record truncated")
  in
  match trailer_start line with
  | None -> fail "checksum trailer missing"
  | Some stop -> (
      match decode_frame ~resilient sink line ~stop with
      | Error e -> fail "%s" e
      | Ok (p, l, _, _) when p <> phase || l <> lo -> fail "phase/offset mismatch"
      | Ok (_, _, n, payload) -> (n, payload))

let lookup_payload s ~phase ~lo ~len =
  match Hashtbl.find_opt s.index (phase, lo) with
  | None -> None
  | Some loc -> (
      match
        read_chunk ~file:s.file ~resilient:s.s_resilient (session_ic s) ~phase ~lo loc
          Payload
      with
      | n, Some p when n = len -> Some p
      | _ -> None)

let persist_payload s ~phase ~lo payload =
  if s.closed then invalid_arg "Store.persist: session is closed";
  if lo < s.s_lo || lo >= s.s_hi then
    invalid_arg
      (Printf.sprintf "Store.persist: chunk offset %d outside the session span [%d, %d)"
         lo s.s_lo s.s_hi);
  let front =
    match Hashtbl.find_opt s.frontier phase with Some f -> f | None -> s.s_lo
  in
  if lo <> front then
    invalid_arg
      (Printf.sprintf "Store.persist: %s chunk at %d, write frontier is %d" phase lo
         front);
  let len = payload_len payload in
  if len <> expected_len s ~lo then
    invalid_arg
      (Printf.sprintf "Store.persist: %s chunk at %d has %d runs, layout expects %d"
         phase lo len (expected_len s ~lo));
  (match (payload, s.s_resilient) with
  | Floats _, true ->
      invalid_arg "Store.persist: resilient record expects attempt trails"
  | Trails _, false ->
      invalid_arg "Store.persist_trails: fault-free record expects plain samples"
  | _ -> ());
  (match s.fail_after with
  | Some n when n <= 0 -> raise (Injected_crash { appended_chunks = s.appended })
  | Some n -> s.fail_after <- Some (n - 1)
  | None -> ());
  let oc = ensure_oc s in
  let nbytes =
    Repro_profile.time Repro_profile.Store (fun () ->
        let line = chunk_line ~phase ~lo payload in
        output_string oc line;
        output_char oc '\n';
        (* The flush is the checkpoint barrier: after it returns, this chunk
           survives a kill.  With [sync] the barrier extends to power loss:
           the fsync pushes the chunk through the OS page cache before we
           acknowledge it. *)
        flush oc;
        if s.s_sync then fsync_channel ~file:s.file oc;
        String.length line)
  in
  s.appended <- s.appended + 1;
  Hashtbl.replace s.index (phase, lo) (s.end_off, nbytes);
  s.end_off <- s.end_off + nbytes + 1;
  Hashtbl.replace s.frontier phase (lo + len);
  (* The chunk just became durable, so this barrier is the one place a
     shutdown request can stop the campaign without losing work or
     leaving a torn tail: the record ends on a complete chunk boundary
     and a later [--resume] continues bit-identically. *)
  Shutdown.check ()

let lookup s ~phase ~lo ~len =
  match lookup_payload s ~phase ~lo ~len with Some (Floats a) -> Some a | _ -> None

let lookup_trails s ~phase ~lo ~len =
  match lookup_payload s ~phase ~lo ~len with Some (Trails a) -> Some a | _ -> None

let persist s ~phase ~lo a = persist_payload s ~phase ~lo (Floats a)
let persist_trails s ~phase ~lo a = persist_payload s ~phase ~lo (Trails a)

(* ------------------------------------------------------------------ *)
(* Collect drivers *)

let emit_cache_events trace s ~phase =
  match trace with
  | None -> ()
  | Some t ->
      let span = s.s_hi - s.s_lo in
      let cached = Stdlib.min (cached_runs s ~phase) span in
      (if cached >= span then
         Trace.emit t (Trace.Cache_hit { phase; key = s.skey; runs = span })
       else if cached = 0 then Trace.emit t (Trace.Cache_miss { phase; key = s.skey })
       else
         Trace.emit t
           (Trace.Resume { phase; key = s.skey; cached_runs = cached; total_runs = span }));
      let counters = Trace.counters t in
      Trace.Counters.add counters "cache.runs_cached" cached;
      Trace.Counters.add counters "cache.runs_simulated" (span - cached)

let check_runs s fn n =
  if n <> s.s_runs then
    invalid_arg
      (Printf.sprintf "Store.%s: %d runs requested, session holds %d" fn n s.s_runs)

(* Fully-cached fault-free span: indexed records make the warm read
   embarrassingly parallel — every chunk decodes independently from its
   byte range, so the materialization fans out over the same domain pool
   the cold computation uses (the PR9 scan-based warm path was inherently
   sequential).  Identity is untouched: the result is the same ascending
   concatenation of per-chunk arrays the sequential walk produces, reads
   mutate nothing, and the measurement function is never called.  Each
   worker decodes over its own read handle, recycled through a small
   pool. *)
let collect_cached_parallel ?trace ?jobs s ~phase =
  let pool_mutex = Mutex.create () in
  let free = ref [] in
  let all = ref [] in
  (* pool items bundle a read handle with a line buffer and a raw-bytes
     scratch sized for one full chunk — each worker reuses its bundle
     across every chunk it decodes, so a warm query's allocation stays
     O(workers × chunk), not O(record) *)
  let with_ic k =
    let item =
      Mutex.lock pool_mutex;
      let item =
        match !free with
        | item :: rest ->
            free := rest;
            item
        | [] ->
            let item =
              (open_in_bin s.file, Bytes.create (8 * s.csize), ref Bytes.empty)
            in
            all := item :: !all;
            item
      in
      Mutex.unlock pool_mutex;
      item
    in
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock pool_mutex;
        free := item :: !free;
        Mutex.unlock pool_mutex)
      (fun () -> k item)
  in
  let span = s.s_hi - s.s_lo in
  let nchunks = (span + s.csize - 1) / s.csize in
  let out = Array.make span 0. in
  Fun.protect ~finally:(fun () -> List.iter (fun (ic, _, _) -> close_in_noerr ic) !all)
  @@ fun () ->
  let (_ : unit array) =
    Parallel.init ?trace ?jobs nchunks (fun ci ->
        let lo = s.s_lo + (ci * s.csize) in
        let len = expected_len s ~lo in
        match Hashtbl.find_opt s.index (phase, lo) with
        | None ->
            raise
              (Sys_error
                 (Printf.sprintf "store: %s: chunk (%s, %d) missing from a cached span"
                    s.file phase lo))
        | Some loc ->
            with_ic @@ fun (ic, scratch, buf) ->
            (* workers write disjoint [out] slices: chunk ci owns
               [ci * csize, ci * csize + len) *)
            ignore
              (read_chunk ~buf ~file:s.file ~resilient:false ic ~phase ~lo loc
                 (Slice { scratch; dst = out; at = lo - s.s_lo; len })))
  in
  out

let phase_frontier s ~phase =
  match Hashtbl.find_opt s.frontier phase with Some f -> f | None -> s.s_lo

let collect ?trace ?jobs s ~phase n f =
  check_runs s "collect" n;
  emit_cache_events trace s ~phase;
  if (not s.s_resilient) && phase_frontier s ~phase >= s.s_hi then
    collect_cached_parallel ?trace ?jobs s ~phase
  else
    Parallel.init_checkpointed ?trace ?jobs ~lo:s.s_lo ~chunk_size:s.csize
      ~lookup:(fun ~lo ~len -> lookup s ~phase ~lo ~len)
      ~persist:(fun ~lo a -> persist s ~phase ~lo a)
      s.s_hi f

let collect_trails ?trace ?jobs s ~phase n f =
  check_runs s "collect_trails" n;
  emit_cache_events trace s ~phase;
  Parallel.init_checkpointed ?trace ?jobs ~lo:s.s_lo ~chunk_size:s.csize
    ~lookup:(fun ~lo ~len -> lookup_trails s ~phase ~lo ~len)
    ~persist:(fun ~lo a -> persist_trails s ~phase ~lo a)
    s.s_hi f

(* ------------------------------------------------------------------ *)
(* Inspection *)

type status = Complete | Partial of string | Corrupt of string | Unsupported of string

type entry = {
  file : string;
  entry_key : string;
  runs : int;
  resilient : bool;
  config : (string * string) list;
  phases : (string * int) list;
  shard : (int * int) option;
  bytes : int;
  status : status;
}

(* The entry of a file whose record was not read: its status and size,
   nothing else. *)
let unread_entry ~file ~entry_key ~bytes status =
  {
    file;
    entry_key;
    runs = 0;
    resilient = false;
    config = [];
    phases = [];
    shard = None;
    bytes;
    status;
  }

(* Shared status classifier: the same verdict whether the phase frontiers
   came from a full scan or from a fresh sidecar. *)
let classify_entry ~file ~entry_key ~bytes m frontier ~defect =
  let phases =
    Hashtbl.fold (fun p f acc -> (p, f) :: acc) frontier [] |> List.sort compare
  in
  let status =
    match defect with
    | Some d when d.d_tampered -> Corrupt d.d_reason
    | Some d when phases = [] -> Corrupt d.d_reason
    | Some d -> Partial (Printf.sprintf "valid prefix kept, tail dropped: %s" d.d_reason)
    | None when record_complete m frontier -> Complete
    | None when phases = [] -> Partial "no samples collected yet"
    | None ->
        Partial
          (String.concat ", "
             (List.map (fun (p, f) -> Printf.sprintf "%s %d/%d" p f m.m_runs) phases))
  in
  {
    file;
    entry_key;
    runs = m.m_runs;
    resilient = m.m_resilient;
    config = m.m_config;
    phases;
    shard = (if m.m_lo = 0 && m.m_hi = m.m_runs then None else Some (m.m_lo, m.m_hi));
    bytes;
    status;
  }

(* [deep] decode-validates every payload (what `cache verify` wants).
   [not deep] answers from the meta line plus a fresh [.idx] sidecar when
   one exists, falling back to a shallow checksum scan — and rebuilding
   the sidecar — when it does not.  The header-only path can therefore
   miss a payload-level bit flip that a stale-free sidecar predates;
   integrity-critical callers use [deep]. *)
let entry_of_file ?(deep = true) t name =
  let file = Filename.concat t.root name in
  let entry_key = Filename.chop_suffix name ".jsonl" in
  let bytes = file_bytes file in
  let refused : unreadable -> entry = function
    | `Corrupt reason -> unread_entry ~file ~entry_key ~bytes (Corrupt reason)
    | `Unsupported schema -> unread_entry ~file ~entry_key ~bytes (Unsupported schema)
  in
  let check_key m =
    let derived = key ~chunk_size:m.m_csize m.m_config in
    if m.m_key <> entry_key then
      Some (Printf.sprintf "meta key %s does not match filename" m.m_key)
    else if derived <> entry_key then
      Some
        (Printf.sprintf "content digest %s does not match filename (record edited?)"
           derived)
    else None
  in
  let scanned ~deep =
    match scan_record ~deep file with
    | Error e -> refused e
    | Ok r -> (
        match check_key r.r_meta with
        | Some reason -> refused (`Corrupt reason)
        | None ->
            (* A clean, fully-accounted record earns a sidecar rebuild so
               the next header-only listing skips the scan. *)
            if r.r_defect = None && r.r_valid_end = bytes then
              write_index ~file
                ~meta_sum:(Digest.to_hex (Digest.string r.r_meta_line))
                ~bytes r.r_chunks;
            classify_entry ~file ~entry_key ~bytes r.r_meta r.r_frontier ~defect:r.r_defect)
  in
  if deep then scanned ~deep:true
  else
    match read_first_line file with
    | None -> refused (`Corrupt "record unreadable or empty")
    | Some meta_ln -> (
        match parse_meta meta_ln with
        | Error e -> refused e
        | Ok m -> (
            match check_key m with
            | Some reason -> refused (`Corrupt reason)
            | None -> (
                let meta_sum = Digest.to_hex (Digest.string meta_ln) in
                match Option.bind (read_index ~file ~meta_sum) (index_frontier m) with
                | Some frontier ->
                    classify_entry ~file ~entry_key ~bytes m frontier ~defect:None
                | None -> scanned ~deep:false)))

let quarantine_suffix = ".jsonl.quarantined"

let quarantined_entry t name =
  let file = Filename.concat t.root name in
  unread_entry ~file
    ~entry_key:(Filename.chop_suffix name quarantine_suffix)
    ~bytes:(file_bytes file)
    (Corrupt "quarantined (failed an integrity check)")

let ls ?(deep = true) t =
  let names = Sys.readdir t.root |> Array.to_list in
  let records =
    names
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.sort compare
    |> List.map (entry_of_file ~deep t)
  in
  let quarantined =
    names
    |> List.filter (fun f -> Filename.check_suffix f quarantine_suffix)
    |> List.sort compare
    |> List.map (quarantined_entry t)
  in
  records @ quarantined

let gc ?(partial = false) t =
  let victims =
    List.filter
      (fun e ->
        match e.status with
        | Corrupt _ -> true
        | Partial _ -> partial
        | Complete | Unsupported _ -> false)
      (ls t)
  in
  let freed =
    List.fold_left
      (fun acc e ->
        match Sys.remove e.file with
        | () ->
            (* The sidecar is derived from the record; it goes with it. *)
            (try Sys.remove (index_path e.file) with Sys_error _ -> ());
            acc + e.bytes
        | exception Sys_error _ -> acc)
      0 victims
  in
  (victims, freed)

let quarantine t ~key:skey =
  let file = Filename.concat t.root (skey ^ ".jsonl") in
  match acquire_lock ~file with
  | Error e -> Error e
  | Ok lockfd -> (
      Fun.protect ~finally:(fun () -> release_lock ~file lockfd) @@ fun () ->
      match Option.map parse_meta (read_first_line file) with
      | Some (Error (`Unsupported _ as other)) -> Error (unreadable_error ~file other)
      | _ ->
          quarantine_file file;
          Ok ())

let pp_entry ppf e =
  let status =
    match e.status with
    | Complete -> "complete"
    | Partial d -> "partial (" ^ d ^ ")"
    | Corrupt d -> "corrupt (" ^ d ^ ")"
    | Unsupported schema ->
        Printf.sprintf "unsupported (schema %S; this build reads %s)" schema schema_version
  in
  Format.fprintf ppf "%s  runs=%d%s%s  %dB  %s" e.entry_key e.runs
    (if e.resilient then "  resilient" else "")
    (match e.shard with
    | None -> ""
    | Some (lo, hi) -> Printf.sprintf "  shard=[%d,%d)" lo hi)
    e.bytes status

(* ------------------------------------------------------------------ *)
(* Merge and export *)

type merge_report = {
  records_merged : int;
  chunks_merged : int;
  coverage : (string * int) list;
  contributed : string list;
  quarantined : (string * string) list;
  skipped : (string * string) list;
}

(* Merge walks every record key found in any source (and the destination),
   admits only candidates that pass the full integrity gauntlet — line
   checksums, digest-vs-filename, metadata agreement, byte-identical
   duplicate chunks — and composes the maximal contiguous prefix of the
   global chunk layout per phase.  Failing candidates are renamed aside
   ([.quarantined]) so reruns converge and the evidence survives.  The
   destination record is replaced via tmp+rename: a crash at any point
   leaves the previous record intact, and rerunning the merge is
   idempotent. *)
let merge ?trace ?fail_after ?(sync = false) ~src dst =
  let fuel = ref fail_after in
  let written = ref 0 in
  let burn () =
    match !fuel with
    | Some n when n <= 0 -> raise (Injected_crash { appended_chunks = !written })
    | Some n -> fuel := Some (n - 1)
    | None -> ()
  in
  let quarantined = ref [] in
  let skipped = ref [] in
  let contributed = ref [] in
  let coverage = ref [] in
  let records_merged = ref 0 in
  let note_quarantine file reason =
    quarantine_file file;
    quarantined := (file, reason) :: !quarantined
  in
  let skip file reason = skipped := (file, reason ^ "; left in place") :: !skipped in
  let process name =
    let dst_file = Filename.concat dst.root name in
    let entry_key = Filename.chop_suffix name ".jsonl" in
    let candidate_files =
      (if Sys.file_exists dst_file then [ dst_file ] else [])
      @ List.filter_map
          (fun root ->
            let f = Filename.concat root.root name in
            if Sys.file_exists f then Some f else None)
          src
    in
    let candidates =
      List.filter_map
        (fun f ->
          match scan_record f with
          | Error (`Corrupt e) ->
              note_quarantine f ("unreadable: " ^ e);
              None
          | Error (`Unsupported schema) ->
              skip f (Printf.sprintf "schema %S, this build reads %s" schema schema_version);
              None
          | Ok r ->
              let m = r.r_meta in
              if m.m_key <> entry_key || key ~chunk_size:m.m_csize m.m_config <> entry_key
              then begin
                note_quarantine f
                  "content digest does not match filename (foreign or edited record)";
                None
              end
              else (
                match r.r_defect with
                | Some d when d.d_tampered ->
                    note_quarantine f d.d_reason;
                    None
                | _ -> Some (f, r)))
        candidate_files
    in
    match candidates with
    | [] -> ()
    | _ when List.mem_assoc dst_file !skipped ->
        (* writing the merged record would replace another build's record *)
        List.iter
          (fun (f, _) -> skip f "the destination holds a record of another schema")
          candidates
    | (_, first) :: _ ->
        let m0 = first.r_meta in
        let same_campaign m =
          m.m_runs = m0.m_runs && m.m_resilient = m0.m_resilient
          && m.m_csize = m0.m_csize
          && List.sort compare m.m_config = List.sort compare m0.m_config
        in
        let candidates =
          List.filter
            (fun (f, r) ->
              if same_campaign r.r_meta then true
              else begin
                note_quarantine f "record metadata disagrees with its siblings";
                false
              end)
            candidates
        in
        let runs = m0.m_runs and csize = m0.m_csize in
        (* Union the chunks; duplicates must be byte-identical (the
           determinism contract says recomputing a chunk reproduces its
           bytes), so disagreement marks a corrupted or divergent record.
           Identity is (length, line digest) — the digest is the sealed
           line's md5 trailer, already verified by the scan — so no chunk
           bytes are held in memory. *)
        let table = Hashtbl.create 64 in
        let phase_order = ref [] in
        List.iter
          (fun (f, r) ->
            let conflict =
              List.exists
                (fun c ->
                  match Hashtbl.find_opt table (c.c_phase, c.c_lo) with
                  | Some (_, c') -> (c'.c_bytes, c'.c_sum) <> (c.c_bytes, c.c_sum)
                  | None -> false)
                r.r_chunks
            in
            if conflict then
              note_quarantine f
                "chunk bytes disagree with another record for the same key"
            else
              List.iter
                (fun c ->
                  if not (List.mem c.c_phase !phase_order) then
                    phase_order := !phase_order @ [ c.c_phase ];
                  if not (Hashtbl.mem table (c.c_phase, c.c_lo)) then
                    Hashtbl.replace table (c.c_phase, c.c_lo) (f, c))
                r.r_chunks)
          candidates;
        (* Compose the maximal contiguous prefix per phase over the global
           chunk layout; anything after a gap (e.g. an unrecoverable or
           quarantined shard) is dropped — partial coverage is reported,
           never silently wrong data. *)
        let compose phase =
          let rec go lo acc =
            if lo >= runs then (List.rev acc, runs)
            else
              match Hashtbl.find_opt table (phase, lo) with
              | Some entry -> go (lo + Stdlib.min csize (runs - lo)) (entry :: acc)
              | None -> (List.rev acc, lo)
          in
          go 0 []
        in
        let phases = List.map (fun p -> (p, compose p)) !phase_order in
        let lines = List.concat_map (fun (_, (ls, _)) -> ls) phases in
        let covered =
          if phases = [] then 0
          else List.fold_left (fun acc (_, (_, hi)) -> Stdlib.min acc hi) max_int phases
        in
        coverage := (entry_key, covered) :: !coverage;
        List.iter
          (fun (f, _) ->
            if not (List.mem f !contributed) then contributed := f :: !contributed)
          lines;
        let meta_ln =
          meta_line ~skey:entry_key ~runs ~resilient:m0.m_resilient ~chunk_size:csize
            ~shard:None ~config:m0.m_config
        in
        (* Idempotence check without re-reading any payload: the
           destination is already the merge result iff it is defect-free
           and its chunk sequence matches the composed one by (phase, lo,
           length, digest). *)
        let unchanged =
          Sys.file_exists dst_file
          && (match scan_record dst_file with
             | Error _ -> false
             | Ok d ->
                 d.r_defect = None
                 && d.r_meta_line = meta_ln
                 && d.r_valid_end = file_bytes dst_file
                 && List.length d.r_chunks = List.length lines
                 && List.for_all2
                      (fun dc (_, c) ->
                        dc.c_phase = c.c_phase && dc.c_lo = c.c_lo
                        && dc.c_bytes = c.c_bytes && dc.c_sum = c.c_sum)
                      d.r_chunks lines)
        in
        if not unchanged then begin
          (* Stream the composed record chunk by chunk out of the source
             files — peak memory is one copy buffer, independent of
             campaign size. *)
          let chunks, bytes =
            rewrite_record
              ~before_chunk:(fun () ->
                burn ();
                incr written)
              ~sync ~tmp:(dst_file ^ ".merge.tmp") dst_file ~meta:meta_ln lines
          in
          write_index ~file:dst_file
            ~meta_sum:(Digest.to_hex (Digest.string meta_ln))
            ~bytes chunks;
          incr records_merged
        end
  in
  let record_names root =
    Sys.readdir root.root |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  in
  match
    let names = List.sort_uniq compare (List.concat_map record_names src) in
    List.iter process names
  with
  | exception Sys_error e -> Error e
  | () ->
      (match trace with
      | None -> ()
      | Some t ->
          let c = Trace.counters t in
          Trace.Counters.add c "cache.records_quarantined" (List.length !quarantined);
          Trace.Counters.add c "cache.records_merged" !records_merged;
          Trace.Counters.add c "cache.chunks_merged" !written;
          List.iter
            (fun (f, reason) ->
              Trace.emit t (Trace.Note (Printf.sprintf "quarantined %s: %s" f reason)))
            (List.rev !quarantined));
      Ok
        {
          records_merged = !records_merged;
          chunks_merged = !written;
          coverage = List.rev !coverage;
          contributed = List.rev !contributed;
          quarantined = List.rev !quarantined;
          skipped = List.rev !skipped;
        }

(* Export streams the record's valid prefix to [oc] in bounded pieces
   after a deep scan (payloads decode-validated).  Tampered records, and
   records of another schema, refuse to export. *)
let export_to t ~key:skey oc =
  let file = Filename.concat t.root (skey ^ ".jsonl") in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "store: no record %s in %s" skey t.root)
  else
    match scan_record ~deep:true file with
    | Error e -> Error (unreadable_error ~file e)
    | Ok r -> (
        match r.r_defect with
        | Some d when d.d_tampered ->
            Error (Printf.sprintf "store: %s: %s" file d.d_reason)
        | _ ->
            let chunks = List.map (fun c -> (file, c)) r.r_chunks in
            ignore (copy_record oc ~meta:r.r_meta_line chunks);
            Ok ())
