(* Observability-aware face of the domain pool.

   The pool itself — static contiguous sharding, ascending in-chunk
   evaluation, lowest-chunk error propagation — lives in the dependency-free
   [Repro_parallel] library so that analysis code below this layer
   (bootstrap replicates, convergence studies) can fan out over the same
   scheduler.  This wrapper only translates the chunk-layout callback into
   {!Trace.Chunk} events and keeps the checkpointed variant, which needs the
   store-facing barrier discipline and belongs with the campaign layer. *)

let default_jobs = Repro_parallel.default_jobs

(* Chunk-scheduling events are Debug-level observability: the layout is a
   pure function of (jobs, n), so it legitimately differs across job
   counts — which is exactly why the default trace level excludes it. *)
let on_chunk_of_trace = function
  | None -> None
  | Some t ->
      Some
        (fun ~chunk_index ~lo ~len ->
          Trace.emit t (Trace.Chunk { phase = Trace.current_phase t; chunk_index; lo; len }))

let init ?trace ?jobs n f =
  Repro_parallel.init ?on_chunk:(on_chunk_of_trace trace) ?jobs n f

(* Chunk-granular checkpoint barriers.  Checkpoint chunks are a fixed
   [chunk_size] cut of the index space — deliberately independent of
   [jobs], so the sequence of (lo, len) pairs handed to [persist] is a pure
   function of [n] alone.  Each uncached chunk fans out over the domain
   pool internally; [persist] runs on the calling domain after the chunk's
   barrier, in ascending chunk order, which is what lets a store replay the
   record as a prefix after an interruption at any job count.

   [lo] restricts the walk to the index suffix starting there: a shard
   worker computes only its chunk span [lo, n) while the chunk boundaries
   stay the global multiples of [chunk_size], so shard-produced chunks are
   byte-for-byte the chunks a full walk would have produced. *)
(* Scheduling granularity: how many checkpoint chunks one fan-out covers.
   The chunk layout itself (and therefore every persisted byte) is a pure
   function of [n] and [chunk_size] — dispatch only groups consecutive
   uncached chunks into one [init] call, then slices and persists them in
   ascending chunk order, so the persist sequence is indistinguishable
   from the chunk-at-a-time walk.  [`Auto] times the first uncached chunk
   alone and rounds the measured cost onto {!Repro_parallel.dispatch_grid}
   via {!Repro_parallel.batch_of_cost}; because [f] is pure in the run
   index, the choice affects wall-clock only, never a sample bit. *)
type dispatch = [ `Chunk | `Batch of int | `Auto ]

(* One fan-out should amortize scheduling overhead over roughly this much
   work; chunks already past it dispatch one at a time. *)
let auto_target_ns = 50_000_000L

let emit_dispatch_note trace msg =
  match trace with
  | Some t when Trace.enabled t Trace.Debug -> Trace.emit t (Trace.Note msg)
  | _ -> ()

let init_checkpointed ?trace ?jobs ?(lo = 0) ?(dispatch = `Chunk) ~chunk_size ~lookup
    ~persist n f =
  if n < 0 then invalid_arg "Parallel.init_checkpointed: negative length";
  if chunk_size < 1 then invalid_arg "Parallel.init_checkpointed: chunk_size must be >= 1";
  if lo < 0 || lo > n then invalid_arg "Parallel.init_checkpointed: lo out of range";
  (match dispatch with
  | `Batch b when b < 1 ->
      invalid_arg "Parallel.init_checkpointed: dispatch batch must be >= 1"
  | _ -> ());
  let batch = ref (match dispatch with `Batch b -> b | `Chunk | `Auto -> 1) in
  let calibrating = ref (dispatch = `Auto) in
  let cached ~lo ~len =
    match lookup ~lo ~len with
    | None -> None
    | Some a ->
        if Array.length a <> len then
          invalid_arg
            (Printf.sprintf
               "Parallel.init_checkpointed: cached chunk at %d has %d values, expected \
                %d"
               lo (Array.length a) len);
        Some a
  in
  let compute_one lo len =
    let a = init ?trace ?jobs len (fun i -> f (lo + i)) in
    persist ~lo a;
    a
  in
  let rec go lo acc =
    if lo >= n then Array.concat (List.rev acc)
    else begin
      let len = Stdlib.min chunk_size (n - lo) in
      match cached ~lo ~len with
      | Some a -> go (lo + len) (a :: acc)
      | None ->
          if !calibrating then begin
            (* First uncached chunk: compute it alone, timed, then pin the
               batch size from its cost scaled to a full chunk. *)
            let t0 = Repro_profile.now_ns () in
            let a = compute_one lo len in
            let dt = Int64.sub (Repro_profile.now_ns ()) t0 in
            let chunk_ns =
              Int64.div (Int64.mul dt (Int64.of_int chunk_size)) (Int64.of_int len)
            in
            batch := Repro_parallel.batch_of_cost ~chunk_ns ~target_ns:auto_target_ns;
            calibrating := false;
            emit_dispatch_note trace
              (Printf.sprintf
                 "dispatch: calibrated batch of %d chunks (%Ldns per chunk)" !batch
                 chunk_ns);
            go (lo + len) (a :: acc)
          end
          else if !batch <= 1 then go (lo + len) (compute_one lo len :: acc)
          else begin
            (* Group up to [batch] consecutive uncached chunks into one
               fan-out.  The probe at each boundary reads one cached chunk
               that the main loop will read again — an accepted duplicate —
               but never computes anything out of order. *)
            let span = ref len in
            let more = ref true in
            while
              !more && !span < !batch * chunk_size && lo + !span < n
            do
              let clo = lo + !span in
              let clen = Stdlib.min chunk_size (n - clo) in
              match cached ~lo:clo ~len:clen with
              | Some _ -> more := false
              | None -> span := !span + clen
            done;
            let big = init ?trace ?jobs !span (fun i -> f (lo + i)) in
            let slices = ref [] in
            let off = ref 0 in
            while !off < !span do
              let clo = lo + !off in
              let clen = Stdlib.min chunk_size (n - clo) in
              let a = Array.sub big !off clen in
              persist ~lo:clo a;
              slices := a :: !slices;
              off := !off + clen
            done;
            go (lo + !span) (!slices @ acc)
          end
    end
  in
  if lo >= n then [||] else go lo []
