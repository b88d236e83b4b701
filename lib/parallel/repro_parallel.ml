(* Deterministic domain-parallel execution.

   The design is work-stealing-free on purpose: indices are split into
   [jobs] contiguous chunks fixed before any domain starts, every chunk is
   evaluated in ascending index order, and chunk results are blitted back
   into a single output array at their original offsets.  Because each
   index's result depends only on the index (the determinism contract the
   campaign seed-derivation scheme guarantees), the output is bit-identical
   regardless of job count or OS scheduling order — [jobs = 1] is the
   sequential reference and every other job count must agree with it.

   This module carries no tracing dependency; [on_chunk] is a plain
   callback so the core layer can forward the layout into its trace
   stream while the EVT layer uses the pool directly. *)

let default_jobs () = Domain.recommended_domain_count ()

let chunks ~jobs n =
  if n < 0 then invalid_arg "Parallel.chunks: negative length";
  if jobs < 1 then invalid_arg "Parallel.chunks: jobs must be >= 1";
  if n = 0 then []
  else begin
    (* Never more chunks than indices: every chunk is non-empty. *)
    let jobs = Stdlib.min jobs n in
    let base = n / jobs and extra = n mod jobs in
    List.init jobs (fun d ->
        let lo = (d * base) + Stdlib.min d extra in
        let len = base + if d < extra then 1 else 0 in
        (lo, len))
  end

(* [Array.init]'s evaluation order is unspecified; campaigns need the
   ascending order so that a stateful [f] still sees indices in run order
   under [jobs = 1] (the sequential reference mode). *)
let init_ascending n f =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

let notify_layout on_chunk layout =
  match on_chunk with
  | None -> ()
  | Some k -> List.iteri (fun i (lo, len) -> k ~chunk_index:i ~lo ~len) layout

let init ?on_chunk ?jobs n f =
  if n < 0 then invalid_arg "Parallel.init: negative length";
  let jobs = match jobs with None -> default_jobs () | Some j -> j in
  if jobs < 1 then invalid_arg "Parallel.init: jobs must be >= 1";
  if n = 0 then [||]
  else if jobs = 1 || n = 1 then begin
    notify_layout on_chunk [ (0, n) ];
    init_ascending n f
  end
  else begin
    let layout = chunks ~jobs n in
    notify_layout on_chunk layout;
    let chunk_arr = Array.of_list layout in
    let nchunks = Array.length chunk_arr in
    let results = Array.make nchunks None in
    let eval idx =
      let lo, len = chunk_arr.(idx) in
      results.(idx) <-
        Some
          (match init_ascending len (fun i -> f (lo + i)) with
          | a -> Ok a
          | exception e -> Error e)
    in
    (* The chunk layout above is fixed by the requested [jobs] — it is part
       of the determinism contract (store chunk records and shard spans key
       on it).  How many domains evaluate those chunks is a separate, purely
       operational choice: spawning one domain per chunk oversubscribes a
       small machine (jobs=8 ran at an eighth of jobs=1 throughput on one
       core), so live workers are capped at the hardware's recommended
       domain count and pull chunk indices from a shared counter.  Any
       chunk-to-domain assignment produces the same output — chunks write
       disjoint result slots, and every index's result depends only on the
       index. *)
    let workers = Stdlib.min nchunks (Stdlib.max 1 (default_jobs ())) in
    let next = Atomic.make 0 in
    let rec drain () =
      let idx = Atomic.fetch_and_add next 1 in
      if idx < nchunks then begin
        eval idx;
        drain ()
      end
    in
    (* The calling domain is worker 0 — with [workers] workers we only ever
       spawn [workers - 1] domains. *)
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn drain) in
    drain ();
    List.iter Domain.join spawned;
    (* Re-raise the failure of the lowest-indexed chunk, so an exception
       escapes deterministically no matter which chunks also failed. *)
    let arrays =
      Array.to_list results
      |> List.map (function
           | Some (Ok a) -> a
           | Some (Error e) -> raise e
           | None -> assert false (* the counter covered every index *))
    in
    let out = Array.make n (List.hd arrays).(0) in
    List.iter2
      (fun (lo, _) a -> Array.blit a 0 out lo (Array.length a))
      layout arrays;
    out
  end

(* Cost-calibrated dispatch granularity.

   Checkpoint chunks are a pure function of the run count (store layout),
   but how many of them a scheduler hands out per fan-out is purely
   operational — like the worker cap above, it may depend on measured
   machine speed without perturbing results.  The batch size is still
   pinned to a coarse power-of-two grid so that a noisy calibration
   measurement almost always lands on the same value, keeping schedules
   (not results — those are invariant) reproducible across runs. *)

let dispatch_grid = [ 1; 2; 4; 8; 16; 32; 64 ]

let batch_of_cost ~chunk_ns ~target_ns =
  if Int64.compare target_ns 1L < 0 then
    invalid_arg "Parallel.batch_of_cost: target must be positive";
  let chunk_ns =
    if Int64.compare chunk_ns 1L < 0 then 1L else chunk_ns
  in
  let covers g =
    (* g * chunk_ns >= target_ns, overflow-safe: chunk_ns >= 1 and the
       grid is tiny, so the product fits unless chunk_ns is astronomical —
       in which case the smallest batch already covers the target. *)
    Int64.compare (Int64.mul (Int64.of_int g) chunk_ns) target_ns >= 0
  in
  let rec pick = function
    | [] -> assert false (* the grid is a non-empty constant *)
    | [ g ] -> g
    | g :: rest -> if covers g then g else pick rest
  in
  pick dispatch_grid
