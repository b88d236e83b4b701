(* Structured observability: append-only JSONL event traces + an
   aggregated counters registry.  See trace.mli for the determinism
   contract; the short version is that every event is emitted from the
   coordinating domain in canonical run order, so a flushed trace is a
   pure function of the campaign configuration (at the default level). *)

type level = Summary | Runs | Debug

let level_to_string = function Summary -> "summary" | Runs -> "runs" | Debug -> "debug"

let level_rank = function Summary -> 0 | Runs -> 1 | Debug -> 2

type event =
  | Meta of { schema : string; level : string }
  | Config of (string * string) list
  | Campaign_start of { runs : int; resilient : bool }
  | Campaign_end of { ok : bool; failure : string option }
  | Phase_start of { phase : string }
  | Phase_end of { phase : string; wall_ns : int option }
  | Run of {
      phase : string;
      run_index : int;
      attempts : int;
      outcome : string;
      latency : float option;
    }
  | Fault of { phase : string; run_index : int; attempt : int; kind : string; detail : string }
  | Chunk of { phase : string; chunk_index : int; lo : int; len : int }
  | Iid_result of {
      lb_stat : float;
      lb_p : float;
      ks_stat : float;
      ks_p : float;
      accepted : bool;
    }
  | Convergence of { converged : bool; runs_used : int }
  | Evt_fit of {
      tail : string;
      block_size : int;
      params : (string * float) list;
      gof_ks_p : float;
      gof_ad_stat : float;
    }
  | Cache_hit of { phase : string; key : string; runs : int }
  | Cache_miss of { phase : string; key : string }
  | Resume of { phase : string; key : string; cached_runs : int; total_runs : int }
  | Counter of { name : string; value : int }
  | Note of string

let schema_version = "trace/v1"

(* ------------------------------------------------------------------ *)
(* Minimal JSON: exactly the subset the schema emits.  No external
   dependency — the container pins the toolchain, so the writer and the
   reader live here, and the round-trip is tested in test_trace.ml. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let add_escaped b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  (* Floats keep a decimal point (or exponent) so the parser can tell
     them apart from ints; %.17g makes the text round-trip to the same
     bits.  Non-finite values never appear in a valid trace (the
     protocol rejects them first); serialize them as null defensively. *)
  let add_float b f =
    if not (Float.is_finite f) then Buffer.add_string b "null"
    else begin
      let s = Printf.sprintf "%.17g" f in
      Buffer.add_string b s;
      if String.for_all (fun c -> c <> '.' && c <> 'e' && c <> 'E') s then
        Buffer.add_string b ".0"
    end

  let rec add b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> add_float b f
    | String s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"'
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            add b v)
          l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            add_escaped b k;
            Buffer.add_string b "\":";
            add b v)
          kvs;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 128 in
    add b v;
    Buffer.contents b

  exception Parse_error of string

  (* The daemon parses request lines of up to 4 MiB: unbounded, a line of
     '[' would recurse once per byte and hold its connection for seconds.
     The deepest line this repository writes, a resilient record's
     trails, nests 4 levels. *)
  let max_depth = 64

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected %C" c)
    in
    let parse_literal lit v =
      if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then begin
        pos := !pos + String.length lit;
        v
      end
      else fail (Printf.sprintf "expected %s" lit)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              (if !pos >= n then fail "unterminated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char b '"'; advance ()
                 | '\\' -> Buffer.add_char b '\\'; advance ()
                 | '/' -> Buffer.add_char b '/'; advance ()
                 | 'n' -> Buffer.add_char b '\n'; advance ()
                 | 'r' -> Buffer.add_char b '\r'; advance ()
                 | 't' -> Buffer.add_char b '\t'; advance ()
                 | 'b' -> Buffer.add_char b '\b'; advance ()
                 | 'u' ->
                     if !pos + 4 >= n then fail "truncated \\u escape";
                     let hex = String.sub s (!pos + 1) 4 in
                     let code =
                       try int_of_string ("0x" ^ hex)
                       with _ -> fail "bad \\u escape"
                     in
                     (* The writer only escapes control characters, so a
                        plain byte is always the right decoding here. *)
                     Buffer.add_char b (Char.chr (code land 0xFF));
                     pos := !pos + 5
                 | c -> fail (Printf.sprintf "bad escape %C" c));
              go ()
          | c ->
              Buffer.add_char b c;
              advance ();
              go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text in
      if is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "malformed number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt text with
            | Some f -> Float f
            | None -> fail "malformed number")
    in
    (* [depth] counts the containers around the value. *)
    let rec parse_value depth =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some ('{' | '[') when depth = max_depth ->
          fail (Printf.sprintf "nesting deeper than %d" max_depth)
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec elements acc =
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (elements [])
          end
      | Some '"' -> String (parse_string ())
      | Some 't' -> parse_literal "true" (Bool true)
      | Some 'f' -> parse_literal "false" (Bool false)
      | Some 'n' -> parse_literal "null" Null
      | Some _ -> parse_number ()
    in
    match parse_value 0 with
    | v ->
        skip_ws ();
        if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
        else Ok v
    | exception Parse_error msg -> Error msg

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let to_int = function Int i -> Some i | _ -> None
  let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
  let to_str = function String s -> Some s | _ -> None
  let to_bool = function Bool b -> Some b | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Event <-> JSON *)

let json_of_event e =
  let open Json in
  let kv k v = (k, v) in
  match e with
  | Meta { schema; level } ->
      Obj [ kv "kind" (String "meta"); kv "schema" (String schema); kv "level" (String level) ]
  | Config kvs ->
      Obj
        [
          kv "kind" (String "config");
          kv "values" (Obj (List.map (fun (k, v) -> (k, String v)) kvs));
        ]
  | Campaign_start { runs; resilient } ->
      Obj [ kv "kind" (String "campaign_start"); kv "runs" (Int runs); kv "resilient" (Bool resilient) ]
  | Campaign_end { ok; failure } ->
      Obj
        ([ kv "kind" (String "campaign_end"); kv "ok" (Bool ok) ]
        @ match failure with None -> [] | Some f -> [ kv "failure" (String f) ])
  | Phase_start { phase } -> Obj [ kv "kind" (String "phase_start"); kv "phase" (String phase) ]
  | Phase_end { phase; wall_ns } ->
      Obj
        ([ kv "kind" (String "phase_end"); kv "phase" (String phase) ]
        @ match wall_ns with None -> [] | Some w -> [ kv "wall_ns" (Int w) ])
  | Run { phase; run_index; attempts; outcome; latency } ->
      Obj
        ([
           kv "kind" (String "run");
           kv "phase" (String phase);
           kv "run_index" (Int run_index);
           kv "attempts" (Int attempts);
           kv "outcome" (String outcome);
         ]
        @ match latency with None -> [] | Some l -> [ kv "latency" (Float l) ])
  | Fault { phase; run_index; attempt; kind; detail } ->
      Obj
        [
          kv "kind" (String "fault");
          kv "phase" (String phase);
          kv "run_index" (Int run_index);
          kv "attempt" (Int attempt);
          kv "fault_kind" (String kind);
          kv "detail" (String detail);
        ]
  | Chunk { phase; chunk_index; lo; len } ->
      Obj
        [
          kv "kind" (String "chunk");
          kv "phase" (String phase);
          kv "chunk_index" (Int chunk_index);
          kv "lo" (Int lo);
          kv "len" (Int len);
        ]
  | Iid_result { lb_stat; lb_p; ks_stat; ks_p; accepted } ->
      Obj
        [
          kv "kind" (String "iid");
          kv "lb_stat" (Float lb_stat);
          kv "lb_p" (Float lb_p);
          kv "ks_stat" (Float ks_stat);
          kv "ks_p" (Float ks_p);
          kv "accepted" (Bool accepted);
        ]
  | Convergence { converged; runs_used } ->
      Obj
        [
          kv "kind" (String "convergence");
          kv "converged" (Bool converged);
          kv "runs_used" (Int runs_used);
        ]
  | Evt_fit { tail; block_size; params; gof_ks_p; gof_ad_stat } ->
      Obj
        [
          kv "kind" (String "evt_fit");
          kv "tail" (String tail);
          kv "block_size" (Int block_size);
          kv "params" (Obj (List.map (fun (k, v) -> (k, Float v)) params));
          kv "gof_ks_p" (Float gof_ks_p);
          kv "gof_ad_stat" (Float gof_ad_stat);
        ]
  | Cache_hit { phase; key; runs } ->
      Obj
        [
          kv "kind" (String "cache_hit");
          kv "phase" (String phase);
          kv "key" (String key);
          kv "runs" (Int runs);
        ]
  | Cache_miss { phase; key } ->
      Obj
        [ kv "kind" (String "cache_miss"); kv "phase" (String phase); kv "key" (String key) ]
  | Resume { phase; key; cached_runs; total_runs } ->
      Obj
        [
          kv "kind" (String "resume");
          kv "phase" (String phase);
          kv "key" (String key);
          kv "cached_runs" (Int cached_runs);
          kv "total_runs" (Int total_runs);
        ]
  | Counter { name; value } ->
      Obj [ kv "kind" (String "counter"); kv "name" (String name); kv "value" (Int value) ]
  | Note note -> Obj [ kv "kind" (String "note"); kv "note" (String note) ]

let to_line e = Json.to_string (json_of_event e)

let event_of_json j =
  let open Json in
  let ( let* ) o f = match o with Some v -> f v | None -> Error "missing or mistyped field" in
  let str k = Option.bind (member k j) to_str in
  let int k = Option.bind (member k j) to_int in
  let flt k = Option.bind (member k j) to_float in
  let bool k = Option.bind (member k j) to_bool in
  match str "kind" with
  | None -> Error "event has no \"kind\""
  | Some kind -> (
      match kind with
      | "meta" ->
          let* schema = str "schema" in
          let* level = str "level" in
          Ok (Meta { schema; level })
      | "config" -> (
          match member "values" j with
          | Some (Obj kvs) ->
              let rec conv acc = function
                | [] -> Ok (Config (List.rev acc))
                | (k, String v) :: rest -> conv ((k, v) :: acc) rest
                | _ -> Error "config values must be strings"
              in
              conv [] kvs
          | _ -> Error "config has no values object")
      | "campaign_start" ->
          let* runs = int "runs" in
          let* resilient = bool "resilient" in
          Ok (Campaign_start { runs; resilient })
      | "campaign_end" ->
          let* ok = bool "ok" in
          Ok (Campaign_end { ok; failure = str "failure" })
      | "phase_start" ->
          let* phase = str "phase" in
          Ok (Phase_start { phase })
      | "phase_end" ->
          let* phase = str "phase" in
          Ok (Phase_end { phase; wall_ns = int "wall_ns" })
      | "run" ->
          let* phase = str "phase" in
          let* run_index = int "run_index" in
          let* attempts = int "attempts" in
          let* outcome = str "outcome" in
          Ok (Run { phase; run_index; attempts; outcome; latency = flt "latency" })
      | "fault" ->
          let* phase = str "phase" in
          let* run_index = int "run_index" in
          let* attempt = int "attempt" in
          let* kind = str "fault_kind" in
          let* detail = str "detail" in
          Ok (Fault { phase; run_index; attempt; kind; detail })
      | "chunk" ->
          let* phase = str "phase" in
          let* chunk_index = int "chunk_index" in
          let* lo = int "lo" in
          let* len = int "len" in
          Ok (Chunk { phase; chunk_index; lo; len })
      | "iid" ->
          let* lb_stat = flt "lb_stat" in
          let* lb_p = flt "lb_p" in
          let* ks_stat = flt "ks_stat" in
          let* ks_p = flt "ks_p" in
          let* accepted = bool "accepted" in
          Ok (Iid_result { lb_stat; lb_p; ks_stat; ks_p; accepted })
      | "convergence" ->
          let* converged = bool "converged" in
          let* runs_used = int "runs_used" in
          Ok (Convergence { converged; runs_used })
      | "evt_fit" ->
          let* tail = str "tail" in
          let* block_size = int "block_size" in
          let* gof_ks_p = flt "gof_ks_p" in
          let* gof_ad_stat = flt "gof_ad_stat" in
          let params =
            match member "params" j with
            | Some (Obj kvs) ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun f -> (k, f)) (to_float v))
                  kvs
            | _ -> []
          in
          Ok (Evt_fit { tail; block_size; params; gof_ks_p; gof_ad_stat })
      | "cache_hit" ->
          let* phase = str "phase" in
          let* key = str "key" in
          let* runs = int "runs" in
          Ok (Cache_hit { phase; key; runs })
      | "cache_miss" ->
          let* phase = str "phase" in
          let* key = str "key" in
          Ok (Cache_miss { phase; key })
      | "resume" ->
          let* phase = str "phase" in
          let* key = str "key" in
          let* cached_runs = int "cached_runs" in
          let* total_runs = int "total_runs" in
          Ok (Resume { phase; key; cached_runs; total_runs })
      | "counter" ->
          let* name = str "name" in
          let* value = int "value" in
          Ok (Counter { name; value })
      | "note" ->
          let* note = str "note" in
          Ok (Note note)
      | k -> Error (Printf.sprintf "unknown event kind %S" k))

let of_line s =
  match Json.of_string s with
  | Error e -> Error (Printf.sprintf "malformed JSON: %s" e)
  | Ok j -> event_of_json j

let read_file path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | line -> (
            match of_line line with
            | Ok e -> go (lineno + 1) (e :: acc)
            | Error msg ->
                close_in ic;
                Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go 1 []

(* ------------------------------------------------------------------ *)
(* Counters registry *)

module Counters = struct
  type t = {
    table : (string, int ref) Hashtbl.t;
    mutex : Mutex.t;
    parent : t option;
  }

  let create ?parent () = { table = Hashtbl.create 32; mutex = Mutex.create (); parent }

  (* Additions propagate up the parent chain, so a per-request registry
     stays isolated while the process-total view keeps accumulating.  The
     chain is fixed at [create] time and acyclic by construction. *)
  let rec add t name by =
    Mutex.lock t.mutex;
    (match Hashtbl.find_opt t.table name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t.table name (ref by));
    Mutex.unlock t.mutex;
    match t.parent with Some p -> add p name by | None -> ()

  let incr t name = add t name 1

  let snapshot t =
    Mutex.lock t.mutex;
    let kvs = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.table [] in
    Mutex.unlock t.mutex;
    List.sort (fun (a, _) (b, _) -> String.compare a b) kvs
end

(* ------------------------------------------------------------------ *)
(* Trace state *)

type t = {
  lvl : level;
  path : string option;  (* [None]: in-memory trace, drained instead of flushed *)
  counters : Counters.t;
  on_event : (event -> unit) option;  (* live subscriber (daemon event streaming) *)
  mutable buffer : (int * event) list;  (* newest first *)
  mutable seq : int;
  clock : unit -> int64;  (* monotonic ns, injectable for clock-step tests *)
  mutable phases : (string * int64) list;  (* open phases: name, monotonic start ns *)
  mutex : Mutex.t;
}

let monotonic_ns () = Repro_profile.now_ns ()

(* mkdir -p for a trace/store destination; raises [Sys_error] with the
   offending path when a component cannot be created. *)
let rec ensure_dir dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let create ?(level = Runs) ~path () =
  (* Fail fast: opening the file lazily at flush time would report a bad
     path only after the whole campaign ran.  Touch it (append mode, so an
     existing trace is preserved) before any measurement starts. *)
  ensure_dir (Filename.dirname path);
  (match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
  | oc -> close_out oc
  | exception Sys_error e -> raise (Sys_error (Printf.sprintf "trace: cannot open %s" e)));
  let t =
    {
      lvl = level;
      path = Some path;
      counters = Counters.create ();
      on_event = None;
      clock = monotonic_ns;
      buffer = [];
      seq = 0;
      phases = [];
      mutex = Mutex.create ();
    }
  in
  t.buffer <- [ (0, Meta { schema = schema_version; level = level_to_string level }) ];
  t.seq <- 1;
  t

let create_mem ?(level = Summary) ?counters ?on_event ?(clock = monotonic_ns) () =
  let counters = match counters with Some c -> c | None -> Counters.create () in
  let t =
    {
      lvl = level;
      path = None;
      counters;
      on_event;
      clock;
      buffer = [];
      seq = 0;
      phases = [];
      mutex = Mutex.create ();
    }
  in
  t.buffer <- [ (0, Meta { schema = schema_version; level = level_to_string level }) ];
  t.seq <- 1;
  t

let counters t = t.counters
let enabled t lvl = level_rank lvl <= level_rank t.lvl

let event_level = function
  | Chunk _ -> Debug
  | Run _ | Fault _ -> Runs
  | Meta _ | Config _ | Campaign_start _ | Campaign_end _ | Phase_start _ | Phase_end _
  | Iid_result _ | Convergence _ | Evt_fit _ | Counter _ | Note _ | Cache_hit _
  | Cache_miss _ | Resume _ ->
      Summary

let emit t e =
  if enabled t (event_level e) then begin
    Mutex.lock t.mutex;
    t.buffer <- (t.seq, e) :: t.buffer;
    t.seq <- t.seq + 1;
    Mutex.unlock t.mutex;
    (* Outside the trace mutex: the subscriber may take its own locks. *)
    match t.on_event with Some f -> f e | None -> ()
  end

let current_phase t = match t.phases with (name, _) :: _ -> name | [] -> ""

let phase_start t name =
  t.phases <- (name, t.clock ()) :: t.phases;
  emit t (Phase_start { phase = name })

let phase_end t name =
  let wall_ns =
    match t.phases with
    | (top, t0) :: rest when top = name ->
        t.phases <- rest;
        if t.lvl = Debug then
          (* Monotonic elapsed time, clamped defensively: durations in a
             trace must never be negative, whatever the clock does. *)
          Some (Stdlib.max 0 (Int64.to_int (Int64.sub (t.clock ()) t0)))
        else None
    | _ -> None
  in
  emit t (Phase_end { phase = name; wall_ns })

let emit_sample t ~phase xs =
  if enabled t Runs then
    Array.iteri
      (fun i x ->
        emit t
          (Run { phase; run_index = i; attempts = 1; outcome = "completed"; latency = Some x }))
      xs

let iid_event (r : Iid.result) =
  Iid_result
    {
      lb_stat = r.Iid.ljung_box.Repro_stats.Ljung_box.statistic;
      lb_p = r.Iid.ljung_box.Repro_stats.Ljung_box.p_value;
      ks_stat = r.Iid.kolmogorov_smirnov.Repro_stats.Ks.statistic;
      ks_p = r.Iid.kolmogorov_smirnov.Repro_stats.Ks.p_value;
      accepted = r.Iid.accepted;
    }

let sorted_events buffered =
  (* Emission already happens in canonical order on the coordinating
     domain; the sort is the safety net that makes the ordering a
     property of the file, not of the code path that produced it. *)
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev buffered)
  |> List.map snd

let flush t =
  match t.path with
  | None -> ()  (* in-memory traces keep their buffer for [drain] *)
  | Some path ->
      Mutex.lock t.mutex;
      let buffered = t.buffer in
      t.buffer <- [];
      Mutex.unlock t.mutex;
      if buffered <> [] || Counters.snapshot t.counters <> [] then
        Repro_profile.time Repro_profile.Trace (fun () ->
            let events = sorted_events buffered in
            let counter_events =
              List.map
                (fun (name, value) -> Counter { name; value })
                (Counters.snapshot t.counters)
            in
            let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                List.iter
                  (fun e ->
                    output_string oc (to_line e);
                    output_char oc '\n')
                  (events @ counter_events)))

let drain t =
  Mutex.lock t.mutex;
  let buffered = t.buffer in
  t.buffer <- [];
  Mutex.unlock t.mutex;
  sorted_events buffered

let close t = flush t

(* ------------------------------------------------------------------ *)
(* Digest *)

type phase_digest = {
  name : string;
  mutable runs : int;
  mutable completed : int;
  mutable quarantined : int;
  mutable retried : int;
  mutable total_attempts : int;
  mutable sum_latency : float;
  mutable max_latency : float;
  mutable faults : (string * int) list;  (* kind -> count *)
  mutable attempts_hist : (int * int) list;  (* attempts -> runs *)
  mutable chunks : int;
  mutable wall_ns : int option;
}

let summarize events =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let phases = ref [] (* reverse encounter order *) in
  let find_phase name =
    match List.find_opt (fun p -> p.name = name) !phases with
    | Some p -> p
    | None ->
        let p =
          {
            name;
            runs = 0;
            completed = 0;
            quarantined = 0;
            retried = 0;
            total_attempts = 0;
            sum_latency = 0.;
            max_latency = neg_infinity;
            faults = [];
            attempts_hist = [];
            chunks = 0;
            wall_ns = None;
          }
        in
        phases := p :: !phases;
        p
  in
  let bump assoc key =
    match List.assoc_opt key assoc with
    | Some n -> (key, n + 1) :: List.remove_assoc key assoc
    | None -> (key, 1) :: assoc
  in
  let campaigns = ref 0 in
  let failures = ref [] in
  let configs = ref [] in
  let notes = ref [] in
  let iid = ref None in
  let convergence = ref None in
  let fits = ref [] in
  let counters = ref [] in
  let cache = ref [] (* store activity, reverse encounter order *) in
  let meta = ref None in
  List.iter
    (fun e ->
      match e with
      | Meta { schema; level } -> meta := Some (schema, level)
      | Config kvs -> configs := !configs @ kvs
      | Campaign_start _ -> incr campaigns
      | Campaign_end { ok = false; failure } ->
          failures := Option.value ~default:"(unspecified)" failure :: !failures
      | Campaign_end { ok = true; _ } -> ()
      | Phase_start { phase } -> ignore (find_phase phase)
      | Phase_end { phase; wall_ns } ->
          let p = find_phase phase in
          if wall_ns <> None then p.wall_ns <- wall_ns
      | Run { phase; attempts; latency; _ } ->
          let p = find_phase phase in
          p.runs <- p.runs + 1;
          p.total_attempts <- p.total_attempts + attempts;
          if attempts > 1 then p.retried <- p.retried + 1;
          p.attempts_hist <- bump p.attempts_hist attempts;
          (match latency with
          | Some l ->
              p.completed <- p.completed + 1;
              p.sum_latency <- p.sum_latency +. l;
              if l > p.max_latency then p.max_latency <- l
          | None -> p.quarantined <- p.quarantined + 1)
      | Fault { phase; kind; _ } ->
          let p = find_phase phase in
          p.faults <- bump p.faults kind
      | Chunk { phase; _ } ->
          let p = find_phase phase in
          p.chunks <- p.chunks + 1
      | Iid_result { lb_stat; lb_p; ks_stat; ks_p; accepted } ->
          iid := Some (lb_stat, lb_p, ks_stat, ks_p, accepted)
      | Convergence { converged; runs_used } -> convergence := Some (converged, runs_used)
      | Evt_fit { tail; block_size; params; gof_ks_p; gof_ad_stat } ->
          fits := (tail, block_size, params, gof_ks_p, gof_ad_stat) :: !fits
      | Cache_hit { phase; key; runs } ->
          cache :=
            Printf.sprintf "%s: full cache hit (%d runs, key %s)" phase runs key :: !cache
      | Cache_miss { phase; key } ->
          cache := Printf.sprintf "%s: cache miss (key %s)" phase key :: !cache
      | Resume { phase; key; cached_runs; total_runs } ->
          cache :=
            Printf.sprintf "%s: resumed (%d of %d runs cached, key %s)" phase cached_runs
              total_runs key
            :: !cache
      | Counter { name; value } -> counters := (name, value) :: !counters
      | Note n -> notes := n :: !notes)
    events;
  (match !meta with
  | Some (schema, level) -> add "trace %s (level %s), %d events\n" schema level (List.length events)
  | None -> add "trace (no meta event), %d events\n" (List.length events));
  if !configs <> [] then begin
    add "config: ";
    add "%s\n" (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) !configs))
  end;
  add "campaigns: %d" !campaigns;
  (match !failures with
  | [] -> add "\n"
  | fs -> add " (%d failed: %s)\n" (List.length fs) (String.concat "; " (List.rev fs)));
  let phases = List.rev !phases in
  if phases <> [] then begin
    add "\nper-phase digest:\n";
    add "  %-16s %8s %9s %8s %8s %12s %12s %10s\n" "phase" "runs" "completed" "retried"
      "dropped" "mean cycles" "max cycles" "wall";
    List.iter
      (fun p ->
        let mean =
          if p.completed > 0 then p.sum_latency /. float_of_int p.completed else 0.
        in
        let wall =
          match p.wall_ns with
          | Some ns -> Printf.sprintf "%.3fs" (float_of_int ns /. 1e9)
          | None -> "-"
        in
        add "  %-16s %8d %9d %8d %8d %12.0f %12.0f %10s\n" p.name p.runs p.completed
          p.retried p.quarantined mean
          (if p.completed > 0 then p.max_latency else 0.)
          wall;
        (match p.wall_ns with
        | Some ns when ns > 0 && p.runs > 0 ->
            add "  %-16s throughput: %.1f runs/s\n" ""
              (float_of_int p.runs /. (float_of_int ns /. 1e9))
        | _ -> ());
        if p.chunks > 0 then add "  %-16s domain-pool chunks: %d\n" "" p.chunks;
        if p.faults <> [] then begin
          add "  %-16s fault histogram:" "";
          List.iter
            (fun (k, n) -> add " %s=%d" k n)
            (List.sort (fun (a, _) (b, _) -> String.compare a b) p.faults);
          add "\n"
        end;
        if List.exists (fun (a, _) -> a > 1) p.attempts_hist then begin
          add "  %-16s attempts histogram:" "";
          List.iter
            (fun (a, n) -> add " %dx=%d" a n)
            (List.sort (fun (a, _) (b, _) -> Int.compare a b) p.attempts_hist);
          add "\n"
        end)
      phases
  end;
  (match !iid with
  | Some (lb_stat, lb_p, ks_stat, ks_p, accepted) ->
      add "\ni.i.d.: Ljung-Box Q=%.3f p=%.4f, KS D=%.4f p=%.4f -> %s\n" lb_stat lb_p
        ks_stat ks_p
        (if accepted then "ACCEPTED" else "REJECTED")
  | None -> ());
  (match !convergence with
  | Some (converged, runs_used) ->
      add "convergence: %s after %d runs\n" (if converged then "met" else "NOT met") runs_used
  | None -> ());
  List.iter
    (fun (tail, block_size, params, gof_ks_p, gof_ad_stat) ->
      add "EVT fit: %s tail, block size %d" tail block_size;
      List.iter (fun (k, v) -> add ", %s=%.4g" k v) params;
      add " (KS p=%.4f, AD=%.3f)\n" gof_ks_p gof_ad_stat)
    (List.rev !fits);
  (match List.rev !cache with
  | [] -> ()
  | cs -> List.iter (fun c -> add "store %s\n" c) cs);
  (match List.rev !notes with
  | [] -> ()
  | ns -> List.iter (fun n -> add "note: %s\n" n) ns);
  (* Profile counters carry [Repro_profile.counter_prefix]; render them as
     the stage table instead of burying them in the raw counter dump.  With
     several Counter events per name (one per flush, cumulative totals),
     the head of [!counters] is the latest — [assoc_opt] finds it first. *)
  let profile_counters, plain_counters =
    List.partition
      (fun (name, _) -> String.starts_with ~prefix:Repro_profile.counter_prefix name)
      !counters
  in
  (match List.sort (fun (a, _) (b, _) -> String.compare a b) plain_counters with
  | [] -> ()
  | cs ->
      add "\naggregated counters:\n";
      List.iter (fun (name, value) -> add "  %-28s %14d\n" name value) cs);
  if profile_counters <> [] then begin
    let lookup stage suffix =
      match List.assoc_opt (Repro_profile.counter_name stage suffix) profile_counters with
      | Some v -> v
      | None -> 0
    in
    let entries =
      List.map
        (fun stage ->
          {
            Repro_profile.stage;
            ns = Int64.of_int (lookup stage "_ns");
            minor_words = lookup stage "_minor_words";
            calls = lookup stage "_calls";
          })
        Repro_profile.stages
    in
    match Repro_profile.render entries with
    | "" -> ()
    | table -> add "\nstage profile:\n%s" table
  end;
  Buffer.contents b
