type stage =
  | Codegen
  | Decode
  | Scenario
  | Reload
  | Reseed
  | Flush
  | Execute
  | Trace
  | Store
  | Analysis

let stages =
  [ Codegen; Decode; Scenario; Reload; Reseed; Flush; Execute; Trace; Store; Analysis ]

let index = function
  | Codegen -> 0
  | Decode -> 1
  | Scenario -> 2
  | Reload -> 3
  | Reseed -> 4
  | Flush -> 5
  | Execute -> 6
  | Trace -> 7
  | Store -> 8
  | Analysis -> 9

let n_stages = List.length stages

let stage_name = function
  | Codegen -> "codegen"
  | Decode -> "decode"
  | Scenario -> "scenario"
  | Reload -> "reload"
  | Reseed -> "reseed"
  | Flush -> "flush"
  | Execute -> "execute"
  | Trace -> "trace"
  | Store -> "store"
  | Analysis -> "analysis"

let counter_prefix = "profile."
let counter_name stage suffix = counter_prefix ^ stage_name stage ^ suffix

(* One atomic cell per stage per quantity.  Fetch-and-add is commutative, so
   concurrent domains lose nothing; totals are exact regardless of
   interleaving.  [Atomic.t] boxes each cell separately, which also keeps
   the cells on distinct words (no torn reads). *)
let ns_acc = Array.init n_stages (fun _ -> Atomic.make 0)
let words_acc = Array.init n_stages (fun _ -> Atomic.make 0)
let calls_acc = Array.init n_stages (fun _ -> Atomic.make 0)
let on = Atomic.make false

let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on
let now_ns () = Monotonic_clock.now ()

(* Accumulate in native ints: a single fetch_and_add, no allocation.  A
   63-bit ns counter wraps after ~146 years of profiled time.  The words
   are the calling domain's own minor-heap allocation ([Gc.minor_words]
   counts per domain in OCaml 5, and reads it without boxing). *)
let record stage t0 w0 =
  let dt = Int64.sub (Monotonic_clock.now ()) t0 in
  let dw = Gc.minor_words () -. w0 in
  let i = index stage in
  ignore (Atomic.fetch_and_add ns_acc.(i) (Int64.to_int dt));
  ignore (Atomic.fetch_and_add words_acc.(i) (int_of_float dw));
  ignore (Atomic.fetch_and_add calls_acc.(i) 1)

let time stage f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = Monotonic_clock.now () in
    let w0 = Gc.minor_words () in
    match f () with
    | v ->
        record stage t0 w0;
        v
    | exception e ->
        record stage t0 w0;
        raise e
  end

type entry = { stage : stage; ns : int64; minor_words : int; calls : int }

let snapshot () =
  List.map
    (fun stage ->
      let i = index stage in
      {
        stage;
        ns = Int64.of_int (Atomic.get ns_acc.(i));
        minor_words = Atomic.get words_acc.(i);
        calls = Atomic.get calls_acc.(i);
      })
    stages

let reset () =
  List.iter
    (Array.iter (fun c -> Atomic.set c 0))
    [ ns_acc; words_acc; calls_acc ]

let render entries =
  let active = List.filter (fun e -> e.calls > 0) entries in
  if active = [] then ""
  else begin
    let sorted =
      List.sort (fun a b -> Int64.compare b.ns a.ns) active
    in
    let total_ns = List.fold_left (fun acc e -> Int64.add acc e.ns) 0L sorted in
    let buf = Buffer.create 256 in
    let ms ns = Int64.to_float ns /. 1e6 in
    List.iter
      (fun e ->
        let share =
          if Int64.equal total_ns 0L then 0.
          else 100. *. Int64.to_float e.ns /. Int64.to_float total_ns
        in
        let per_call x = x /. float_of_int (Stdlib.max 1 e.calls) in
        Buffer.add_string buf
          (Printf.sprintf
             "  %-16s %10.3f ms  %5.1f%%  %9d calls  %8.1f ns/call  %9.1f words/call\n"
             (stage_name e.stage) (ms e.ns) share e.calls
             (per_call (Int64.to_float e.ns))
             (per_call (float_of_int e.minor_words))))
      sorted;
    let idle = List.filter (fun e -> e.calls = 0) entries in
    if idle <> [] then
      Buffer.add_string buf
        (Printf.sprintf "  (no calls: %s)\n"
           (String.concat ", " (List.map (fun e -> stage_name e.stage) idle)));
    Buffer.contents buf
  end
