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
let init_checkpointed ?trace ?jobs ?(lo = 0) ~chunk_size ~lookup ~persist n f =
  if n < 0 then invalid_arg "Parallel.init_checkpointed: negative length";
  if chunk_size < 1 then invalid_arg "Parallel.init_checkpointed: chunk_size must be >= 1";
  if lo < 0 || lo > n then invalid_arg "Parallel.init_checkpointed: lo out of range";
  let rec go lo acc =
    if lo >= n then Array.concat (List.rev acc)
    else begin
      let len = Stdlib.min chunk_size (n - lo) in
      let a =
        match lookup ~lo ~len with
        | Some a ->
            if Array.length a <> len then
              invalid_arg
                (Printf.sprintf
                   "Parallel.init_checkpointed: cached chunk at %d has %d values, \
                    expected %d"
                   lo (Array.length a) len);
            a
        | None ->
            let a = init ?trace ?jobs len (fun i -> f (lo + i)) in
            persist ~lo a;
            a
      in
      go (lo + len) (a :: acc)
    end
  in
  go lo []
