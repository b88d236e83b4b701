(* Wire protocol of the campaign daemon: newline-delimited JSON over a
   Unix socket, one request line per connection, zero or more event lines
   followed by exactly one final response line back.  The writer and
   parser are Trace's bit-exact JSON codec — floats round-trip via %.17g,
   so a probability or SEU rate crosses the socket without losing a bit,
   and the store key derived on either side is identical. *)

module M = Repro_mbpta
module Json = M.Trace.Json

(* Aliases of the Campaign_spec names, for the warm_store benchmark. *)
type spec = Campaign_spec.t = {
  runs : int;
  seed : int64;
  frames : int;
  tail : M.Protocol.tail;
  no_gates : bool;
  bootstrap : int;
  engineering_factor : float;
  seu_rate : float;
  watchdog_budget : int option;
  max_retries : int;
  min_survival : float;
}

let default_spec = Campaign_spec.default
let store_config = Campaign_spec.store_config
let store_key = Campaign_spec.key
let options = Campaign_spec.options

(* ------------------------------------------------------------------ *)
(* Requests / responses *)

type query = Pwcet of float  (** pWCET estimate at this cutoff probability *) | Iid_verdict

type request =
  | Campaign of { spec : Campaign_spec.t; events : bool }
  | Query of { spec : Campaign_spec.t; query : query }
  | Status
  | Shutdown

type served = Cold | Warm | Coalesced

let served_name = function Cold -> "cold" | Warm -> "warm" | Coalesced -> "coalesced"

let served_of_name = function
  | "cold" -> Ok Cold
  | "warm" -> Ok Warm
  | "coalesced" -> Ok Coalesced
  | s -> Error (Printf.sprintf "unknown served kind %S" s)

type response =
  | Report of {
      key : string;
      served : served;
      report : string;
      counters : (string * int) list;
    }
  | Answer of {
      key : string;
      query : query;
      value : Json.t;
      counters : (string * int) list;
    }
  | Miss of { key : string; reason : string }
  | Rejected of { reason : string; detail : string }
  | Status_report of {
      queue_depth : int;
      in_flight : int;
      clients : int;
      max_queue : int;
      max_clients : int;
      counters : (string * int) list;
    }
  | Event of M.Trace.event
  | Failed of string
  | Shutdown_ack

(* Typed rejection reasons — stable strings the tests and CI grep for. *)
let reason_overloaded = "overloaded"
let reason_shutting_down = "shutting_down"
let reason_too_many_clients = "too_many_clients"

(* ------------------------------------------------------------------ *)
(* JSON encoding *)

let json_of_counters kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

let counters_of_json = function
  | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.to_int v)) kvs
  | _ -> []

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let spec_of_json j =
  let* spec = Campaign_spec.of_json j in
  match Campaign_spec.validate spec with
  | Ok () -> Ok spec
  | Error (field, problem) -> Error (field ^ " " ^ problem)

let query_fields = function
  | Pwcet p -> [ ("query", Json.String "pwcet"); ("probability", Json.Float p) ]
  | Iid_verdict -> [ ("query", Json.String "iid") ]

let query_of_json j =
  match Option.bind (Json.member "query" j) Json.to_str with
  | Some "pwcet" -> (
      match Option.bind (Json.member "probability" j) Json.to_float with
      | Some p when p > 0. && p < 1. -> Ok (Pwcet p)
      | Some _ -> Error "probability must lie in (0, 1)"
      | None -> Error "pwcet query needs a probability")
  | Some "iid" -> Ok Iid_verdict
  | Some q -> Error (Printf.sprintf "unknown query %S (expected pwcet|iid)" q)
  | None -> Error "query request has no \"query\""

let json_of_request = function
  | Campaign { spec; events } ->
      Json.Obj
        ([ ("req", Json.String "campaign"); ("events", Json.Bool events) ]
        @ Campaign_spec.json_fields spec)
  | Query { spec; query } ->
      Json.Obj
        ((("req", Json.String "query") :: query_fields query)
        @ Campaign_spec.json_fields spec)
  | Status -> Json.Obj [ ("req", Json.String "status") ]
  | Shutdown -> Json.Obj [ ("req", Json.String "shutdown") ]

let request_of_json j =
  match Option.bind (Json.member "req" j) Json.to_str with
  | None -> Error "request has no \"req\""
  | Some "campaign" ->
      let events =
        match Option.bind (Json.member "events" j) Json.to_bool with
        | Some b -> b
        | None -> false
      in
      let* spec = spec_of_json j in
      Ok (Campaign { spec; events })
  | Some "query" ->
      let* query = query_of_json j in
      let* spec = spec_of_json j in
      Ok (Query { spec; query })
  | Some "status" -> Ok Status
  | Some "shutdown" -> Ok Shutdown
  | Some r -> Error (Printf.sprintf "unknown request %S" r)

let json_of_response = function
  | Report { key; served; report; counters } ->
      Json.Obj
        [
          ("resp", Json.String "report");
          ("key", Json.String key);
          ("served", Json.String (served_name served));
          ("report", Json.String report);
          ("counters", json_of_counters counters);
        ]
  | Answer { key; query; value; counters } ->
      Json.Obj
        ([ ("resp", Json.String "answer"); ("key", Json.String key) ]
        @ query_fields query
        @ [ ("value", value); ("counters", json_of_counters counters) ])
  | Miss { key; reason } ->
      Json.Obj
        [
          ("resp", Json.String "miss");
          ("key", Json.String key);
          ("reason", Json.String reason);
        ]
  | Rejected { reason; detail } ->
      Json.Obj
        [
          ("resp", Json.String "rejected");
          ("reason", Json.String reason);
          ("detail", Json.String detail);
        ]
  | Status_report { queue_depth; in_flight; clients; max_queue; max_clients; counters }
    ->
      Json.Obj
        [
          ("resp", Json.String "status");
          ("queue_depth", Json.Int queue_depth);
          ("in_flight", Json.Int in_flight);
          ("clients", Json.Int clients);
          ("max_queue", Json.Int max_queue);
          ("max_clients", Json.Int max_clients);
          ("counters", json_of_counters counters);
        ]
  | Event e -> Json.Obj [ ("resp", Json.String "event"); ("event", M.Trace.json_of_event e) ]
  | Failed message ->
      Json.Obj [ ("resp", Json.String "error"); ("message", Json.String message) ]
  | Shutdown_ack -> Json.Obj [ ("resp", Json.String "shutdown_ack") ]

let response_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let int k d = match Option.bind (Json.member k j) Json.to_int with Some v -> v | None -> d in
  let req k = match str k with Some v -> Ok v | None -> Error ("response has no " ^ k) in
  match str "resp" with
  | None -> Error "response has no \"resp\""
  | Some "report" ->
      let* key = req "key" in
      let* served =
        match str "served" with
        | Some s -> served_of_name s
        | None -> Error "report has no served kind"
      in
      let* report = req "report" in
      Ok (Report { key; served; report; counters = counters_of_json (Json.member "counters" j) })
  | Some "answer" ->
      let* key = req "key" in
      let* query = query_of_json j in
      let value = match Json.member "value" j with Some v -> v | None -> Json.Null in
      Ok (Answer { key; query; value; counters = counters_of_json (Json.member "counters" j) })
  | Some "miss" ->
      let* key = req "key" in
      let* reason = req "reason" in
      Ok (Miss { key; reason })
  | Some "rejected" ->
      let* reason = req "reason" in
      let* detail = req "detail" in
      Ok (Rejected { reason; detail })
  | Some "status" ->
      Ok
        (Status_report
           {
             queue_depth = int "queue_depth" 0;
             in_flight = int "in_flight" 0;
             clients = int "clients" 0;
             max_queue = int "max_queue" 0;
             max_clients = int "max_clients" 0;
             counters = counters_of_json (Json.member "counters" j);
           })
  | Some "event" -> (
      match Json.member "event" j with
      | Some ev ->
          let* e = M.Trace.event_of_json ev in
          Ok (Event e)
      | None -> Error "event response has no event")
  | Some "error" ->
      let* message = req "message" in
      Ok (Failed message)
  | Some "shutdown_ack" -> Ok Shutdown_ack
  | Some r -> Error (Printf.sprintf "unknown response %S" r)

let request_to_line r = Json.to_string (json_of_request r)
let response_to_line r = Json.to_string (json_of_response r)

let of_line parse s =
  match Json.of_string s with
  | Error e -> Error (Printf.sprintf "malformed JSON: %s" e)
  | Ok j -> parse j

let request_of_line s = of_line request_of_json s
let response_of_line s = of_line response_of_json s
