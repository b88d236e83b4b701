module Prng = Repro_rng.Prng
module Splitmix = Repro_rng.Splitmix
module Parallel = Repro_parallel

type interval = {
  lower : float;
  point : float;
  upper : float;
  confidence : float;
  replicates : int;
}

(* Replicates only need the number, so the curve (and the O(n log n)
   ECDF sort inside it) is never built: fit on block maxima, convert via
   the model-only estimator.  Bit-identical to the retired
   create-then-estimate path. *)
let estimate_on xs ~cutoff_probability =
  let block_size = Block_maxima.suggest_block_size (Array.length xs) in
  let maxima = Block_maxima.extract ~block_size xs in
  let model = Gumbel_fit.fit maxima in
  Pwcet.estimate_of_model ~model:(Pwcet.Gumbel_tail model) ~block_size ~cutoff_probability

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Bootstrap.percentile: empty replicate set";
  if n = 1 then sorted.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

(* Counter-mode Splitmix64 over (base_seed, replicate_index) — the same
   splitting discipline as [Experiment.scenario_seed]: replicate [k]'s seed
   is a pure function of the pair, so replicates can be evaluated in any
   order, on any domain, and still draw the exact stream the sequential
   reference draws. *)
let derive_replicate_seed base k =
  let sm = Splitmix.create base in
  let rec skip j =
    if j > 0 then begin
      ignore (Splitmix.next sm);
      skip (j - 1)
    end
  in
  skip k;
  Splitmix.next sm

let pwcet_interval ?(replicates = 200) ?(confidence = 0.95) ?(jobs = 1) ~prng ~sample
    ~cutoff_probability () =
  if replicates < 20 then
    invalid_arg "Bootstrap.pwcet_interval: replicates must be >= 20";
  if not (confidence > 0. && confidence < 1.) then
    invalid_arg "Bootstrap.pwcet_interval: confidence must lie in (0, 1)";
  if jobs < 1 then invalid_arg "Bootstrap.pwcet_interval: jobs must be >= 1";
  let n = Array.length sample in
  if n < 60 then
    invalid_arg
      (Printf.sprintf "Bootstrap.pwcet_interval: %d observations, need at least 60" n);
  let point = estimate_on sample ~cutoff_probability in
  (* One base seed drawn from the caller's generator (the derivation
     [Prng.split] uses), then every replicate re-creates a same-algorithm
     generator from [(base_seed, k)].  The caller's stream advances by
     exactly two draws regardless of [replicates] or [jobs]. *)
  let base_seed =
    Int64.logor
      (Int64.shift_left (Int64.of_int (Prng.bits32 prng)) 32)
      (Int64.of_int (Prng.bits32 prng))
  in
  let algorithm = Prng.algorithm prng in
  let replicate k =
    let rng =
      let seed = derive_replicate_seed base_seed k in
      match algorithm with
      | Some a -> Prng.create ~algorithm:a seed
      | None -> Prng.create seed
    in
    let resample = Array.make n 0. in
    for i = 0 to n - 1 do
      resample.(i) <- sample.(Prng.int_below rng n)
    done;
    estimate_on resample ~cutoff_probability
  in
  let estimates = Parallel.init ~jobs replicates replicate in
  Repro_stats.Descriptive.sort estimates;
  let tail = (1. -. confidence) /. 2. in
  if Array.exists Float.is_nan estimates then
    (* A failed replicate fit must poison the interval, not silently shift
       it: [Float.compare] sorts NaNs to the front, so taking percentiles
       of the mixed array would report finite — and wrong — bounds. *)
    { lower = Float.nan; point; upper = Float.nan; confidence; replicates }
  else
    {
      lower = percentile estimates tail;
      point;
      upper = percentile estimates (1. -. tail);
      confidence;
      replicates;
    }

let pp_interval ppf i =
  Format.fprintf ppf "%.0f  [%.0f, %.0f] at %.0f%% (%d bootstrap replicates)" i.point
    i.lower i.upper (100. *. i.confidence) i.replicates
