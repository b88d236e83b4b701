type point = { runs : int; estimate : float }

type result = {
  converged : bool;
  runs_used : int;
  history : point list;
  comparisons : int;
}

(* Incremental implementation.

   The retired reference re-did the whole pipeline per step: sort the
   prefix (inside the ECDF), re-extract every block maximum, refit —
   O(k · n log n) over k steps.  The estimate at each step is a pure
   function of (a) the block maxima of the prefix in block order and
   (b) the fitted model, so each step reads it off the model
   ([Pwcet.estimate_of_model]) and builds no curve.  The study
   maintains:

   - one sorted prefix, extended by merging each step's freshly-sorted
     slice (O(step log step + used) per step).  No estimate reads it:
     it stays because [comparisons] counts its merge, and
     perfbench/refs.txt and test/fixtures/analysis_golden.txt pin that
     count;
   - the block-maxima array in block order.  While the suggested block
     size is unchanged, only the new complete blocks are folded (each
     element of the sample is visited once per block-size level).  When
     the suggested size doubles, maxima combine pairwise:
     [Block_maxima.max], which is [Float.max], is associative (exact for
     finite floats, +0 beats -0, NaN absorbs), so the pairwise max of two
     half-block maxima is bit-identical to the reference's left-fold over
     the full block.

   Both arrays grow by doubling as the study reads further, never past
   the sample: a study often stops after a few hundred runs of a sample
   of 10^5, and then allocates for what it read.

   Every comparison the study performs (merge, sort of the fresh slice,
   block-max folds) is counted in [comparisons], so CI can pin the
   O(n log n) work budget without timing anything. *)

let study ?(probability = 1e-9) ?(step = 100) ?(tolerance = 0.01) ?(stable_steps = 3)
    ?(min_runs = 100) xs =
  let n = Array.length xs in
  if step < 1 then invalid_arg "Convergence.study: step must be >= 1";
  if stable_steps < 1 then invalid_arg "Convergence.study: stable_steps must be >= 1";
  if n < min_runs then
    invalid_arg
      (Printf.sprintf "Convergence.study: %d runs, need at least min_runs = %d" n
         min_runs);
  let comparisons = ref 0 in
  let cmp a b =
    incr comparisons;
    Float.compare a b
  in
  let fmax a b =
    incr comparisons;
    Block_maxima.max a b
  in
  (* [!buf], grown to hold at least [need] floats: doubled, never past
     [n], its contents kept. *)
  let grow buf need =
    let b = !buf in
    if Array.length b >= need then b
    else begin
      let g = Array.create_float (Stdlib.min n (Stdlib.max need (2 * Array.length b))) in
      Array.blit b 0 g 0 (Array.length b);
      buf := g;
      g
    end
  in
  (* !sorted.(0 .. used-1) holds the prefix in ascending order. *)
  let sorted = ref [||] in
  let merge_in ~used_prev ~used =
    let sorted = grow sorted used in
    let m = used - used_prev in
    let fresh = Array.sub xs used_prev m in
    Array.sort cmp fresh;
    (* Backward in-place merge: the write index never catches up with the
       unread tail of the existing run. *)
    let i = ref (used_prev - 1) and j = ref (m - 1) in
    for k = used - 1 downto 0 do
      if !j < 0 then begin
        sorted.(k) <- sorted.(!i);
        decr i
      end
      else if !i < 0 then begin
        sorted.(k) <- fresh.(!j);
        decr j
      end
      else if cmp sorted.(!i) fresh.(!j) > 0 then begin
        sorted.(k) <- sorted.(!i);
        decr i
      end
      else begin
        sorted.(k) <- fresh.(!j);
        decr j
      end
    done
  in
  (* !maxima.(0 .. count-1): maxima of the complete blocks at the current
     block size, in block order — exactly [Block_maxima.extract]'s output
     on the prefix. *)
  let maxima = ref [||] in
  let block_size = ref 1 in
  let count = ref 0 in
  let advance used =
    let target = Block_maxima.suggest_block_size used in
    while !block_size < target do
      (* Doubling: pairwise-combine; a trailing odd block is re-folded from
         the sample below once its enclosing double block completes. *)
      let maxima = !maxima in
      let c = !count / 2 in
      for b = 0 to c - 1 do
        maxima.(b) <- fmax maxima.(2 * b) maxima.((2 * b) + 1)
      done;
      count := c;
      block_size := !block_size * 2
    done;
    let blocks = used / !block_size in
    let maxima = grow maxima blocks in
    while !count < blocks do
      let start = !count * !block_size in
      let m = ref xs.(start) in
      for i = 1 to !block_size - 1 do
        m := fmax !m xs.(start + i)
      done;
      maxima.(!count) <- !m;
      incr count
    done;
    blocks
  in
  let estimate_at used =
    let blocks = advance used in
    let gumbel = Gumbel_fit.fit ~method_:Gumbel_fit.Pwm (Array.sub !maxima 0 blocks) in
    Pwcet.estimate_of_model ~model:(Pwcet.Gumbel_tail gumbel) ~block_size:!block_size
      ~cutoff_probability:probability
  in
  let rec go used used_prev previous streak acc =
    if used > n then
      {
        converged = false;
        runs_used = n;
        history = List.rev acc;
        comparisons = !comparisons;
      }
    else begin
      merge_in ~used_prev ~used;
      let est = estimate_at used in
      let acc = { runs = used; estimate = est } :: acc in
      let streak =
        match previous with
        | Some prev when Float.abs (est -. prev) /. Float.abs prev <= tolerance ->
            streak + 1
        | Some _ | None -> 0
      in
      if streak >= stable_steps then
        {
          converged = true;
          runs_used = used;
          history = List.rev acc;
          comparisons = !comparisons;
        }
      else go (used + step) used (Some est) streak acc
    end
  in
  go min_runs 0 None 0 []

let pp_result ppf r =
  Format.fprintf ppf "%s after %d runs (%d estimates)"
    (if r.converged then "converged" else "NOT converged")
    r.runs_used (List.length r.history)
