module Prng = Repro_rng.Prng
module Executor = Repro_isa.Executor
module Runner = Executor.Decoded.Runner

exception Budget_exceeded of { cycles : int; budget : int }

type t = {
  config : Config.t;
  il1 : Cache.t;
  dl1 : Cache.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  bus : Bus.t;
  dram : Dram.t;
  mutable prng : Prng.t;  (* mutable so a reused simulator can be reseeded *)
  (* Per-access latencies hoisted out of [config.latencies] into immediate
     fields: the data_access and fetch_probe hot path reads them once per
     event instead of chasing two records per memory reference. *)
  lat_l1_hit : int;
  lat_tlb_miss_walk : int;
  lat_store_buffer : int;
  (* The clock and the fetch hints: [sink.cycles]; [sink.fetch_line] and
     [fetch_page], the IL1 line and the page of the previous fetch while
     the hints are live, -1 otherwise (always -1 when the geometry gate
     [fetch_hints] is off); [sink.pending_line_hits], same-line fetches
     not yet applied to the IL1 nor the ITLB; [pending_page_hits], fetches
     already applied to the IL1 but not yet to the ITLB.  The runner
     updates the sink's three counters itself on every same-line fetch. *)
  sink : Executor.sink;
  fetch_page_shift : int;
  fetch_hints : bool;
  mutable fetch_page : int;
  mutable pending_page_hits : int;
  mutable faults_injected : int;
}

let[@inline] add_cycles t n = t.sink.cycles <- t.sink.cycles + n

(* A memory transaction that reached the bus: arbitration + DRAM. *)
let memory_transaction t ~addr =
  add_cycles t (Bus.transaction t.bus ~prng:t.prng + Dram.access t.dram ~addr)

let data_access t ~addr ~write =
  (match Tlb.access t.dtlb ~addr with
  | Tlb.Hit -> ()
  | Tlb.Miss -> add_cycles t t.lat_tlb_miss_walk);
  match Cache.access t.dl1 ~addr ~write with
  | Cache.Hit ->
      add_cycles t t.lat_l1_hit;
      if write then
        (* write-through: the store drains via the store buffer *)
        add_cycles t t.lat_store_buffer
  | Cache.Miss -> if write then add_cycles t t.lat_store_buffer else memory_transaction t ~addr

(* Apply pending fetches as the MRU hits they are.  Until then the IL1
   lags by the same-line fetches and the ITLB by every fetch since its
   last probe; nothing else touches either in between.  The line's hits
   move on to the ITLB's count, since the line's page stays its MRU. *)
let settle_il1_hits t =
  let k = t.sink.pending_line_hits in
  if k > 0 then begin
    t.sink.pending_line_hits <- 0;
    t.pending_page_hits <- t.pending_page_hits + k;
    Cache.add_mru_hits t.il1 k
  end

let settle_itlb_hits t =
  let k = t.pending_page_hits in
  if k > 0 then begin
    t.pending_page_hits <- 0;
    Tlb.add_mru_hits t.itlb k
  end

let settle_fetch_hits t =
  settle_il1_hits t;
  settle_itlb_hits t

(* A fetch from a line other than the previous fetch's (the runner folds
   those): the base cycle, the ITLB unless the page is the previous
   fetch's (then it is one more pending ITLB hit), and the IL1, each probe
   after settling that structure's pending hits.  A probe leaves its MRU
   entry on this fetch's page or line, which is what lets later fetches
   skip it.  The IL1 and ITLB share no state and their hits draw nothing,
   so applying their hits in a different order than the fetches came is
   exact. *)
let fetch_probe t ~addr =
  settle_il1_hits t;
  add_cycles t 1;
  let page = addr lsr t.fetch_page_shift in
  if page = t.fetch_page then t.pending_page_hits <- t.pending_page_hits + 1
  else begin
    settle_itlb_hits t;
    (match Tlb.access t.itlb ~addr with
    | Tlb.Hit -> ()
    | Tlb.Miss -> add_cycles t t.lat_tlb_miss_walk);
    if t.fetch_hints then t.fetch_page <- page
  end;
  (match Cache.access t.il1 ~addr ~write:false with
  | Cache.Hit -> add_cycles t t.lat_l1_hit
  | Cache.Miss -> memory_transaction t ~addr);
  if t.fetch_hints then t.sink.fetch_line <- addr lsr t.sink.line_shift

let create ?(contenders = []) ~config ~seed () =
  let prng = Prng.create seed in
  let lat = config.Config.latencies in
  (* Explicit bindings pin the [Prng.split] draw order (record-field
     evaluation order is unspecified in OCaml); [reseed] must replay the
     same order, and the historical order — pinned by every golden value in
     the test suite — is dtlb, itlb, dl1, il1. *)
  let dtlb =
    Tlb.create ~entries:config.Config.dtlb_entries ~page_bytes:config.Config.page_bytes
      ~replacement:config.Config.tlb_replacement ~prng:(Prng.split prng)
  in
  let itlb =
    Tlb.create ~entries:config.Config.itlb_entries ~page_bytes:config.Config.page_bytes
      ~replacement:config.Config.tlb_replacement ~prng:(Prng.split prng)
  in
  let dl1 = Cache.create ~config:config.Config.dl1 ~prng:(Prng.split prng) in
  let il1 = Cache.create ~config:config.Config.il1 ~prng:(Prng.split prng) in
  let line_shift = Cache.line_shift il1 and page_shift = Tlb.page_shift itlb in
  let fpu = Fpu.create ~mode:config.Config.fpu ~latencies:lat in
  let bus = Bus.create ~latencies:lat ~contenders in
  let dram =
    Dram.create ~mode:config.Config.dram ~banks:config.Config.dram_banks
      ~row_bytes:config.Config.dram_row_bytes ~latencies:lat
  in
  (* The sink is built once per core; its closures reach the core through
     [t], so a reseed (a new [t.prng]) is seen by the next event. *)
  let rec t =
    {
      config;
      il1;
      dl1;
      itlb;
      dtlb;
      bus;
      dram;
      prng;
      lat_l1_hit = lat.Config.l1_hit;
      lat_tlb_miss_walk = lat.Config.tlb_miss_walk;
      lat_store_buffer = lat.Config.store_buffer;
      sink;
      (* any valid shift when the gate is off: the hints then stay -1 *)
      fetch_page_shift = Stdlib.max page_shift 0;
      (* Exact only when one IL1 line never spans two pages: a power-of-two
         page of at least a line holds whole, aligned lines. *)
      fetch_hints = page_shift >= line_shift;
      fetch_page = -1;
      pending_page_hits = 0;
      faults_injected = 0;
    }
  and sink =
    {
      Executor.on_fetch = (fun addr -> fetch_probe t ~addr);
      on_read = (fun addr -> data_access t ~addr ~write:false);
      on_write = (fun addr -> data_access t ~addr ~write:true);
      on_fp_long = (fun op regs x y -> add_cycles t (Fpu.latency fpu op regs ~x ~y));
      (* [Fpu.latency] of FADD/FMUL is [fp_short] in either FPU mode *)
      fp_short = lat.Config.fp_short;
      int_mul = lat.Config.int_mul;
      branch_taken = lat.Config.branch_taken;
      same_line = 1 + lat.Config.l1_hit;
      line_shift;
      cycles = 0;
      fetch_line = -1;
      pending_line_hits = 0;
    }
  in
  t

let config t = t.config

(* One pass per structure: flush + stats reset folded into each component's
   [reset_run].  Draw order (the IL1/DL1 placement-salt draws inside their
   flushes) is unchanged from the retired flush-all-then-reset-stats-all
   sequence because stats resets draw nothing. *)
let reset_run t =
  Cache.reset_run t.il1;
  Cache.reset_run t.dl1;
  Tlb.reset_run t.itlb;
  Tlb.reset_run t.dtlb;
  Dram.reset_run t.dram;
  Bus.reset t.bus;
  t.sink.cycles <- 0;
  t.sink.fetch_line <- -1;
  t.sink.pending_line_hits <- 0;
  t.fetch_page <- -1;
  t.pending_page_hits <- 0;
  t.faults_injected <- 0

(* Rebind every PRNG stream exactly as [create ~seed] would have: same
   split order (dtlb, itlb, dl1, il1 — see [create]), same per-component
   draws.  [reseed] + [reset_run] on a reused simulator is bit-identical to
   a fresh [create] + [reset_run] — the contract that lets a batch of runs
   share one simulator instance. *)
let reseed t ~seed =
  let prng = Prng.create seed in
  Tlb.reseed t.dtlb ~prng:(Prng.split prng);
  Tlb.reseed t.itlb ~prng:(Prng.split prng);
  Cache.reseed t.dl1 ~prng:(Prng.split prng);
  Cache.reseed t.il1 ~prng:(Prng.split prng);
  t.prng <- prng

let advance t n =
  if n < 0 then invalid_arg (Printf.sprintf "Core_sim.advance: negative cycles (%d)" n);
  add_cycles t n

let cycles t = t.sink.cycles

let snapshot t ~instructions ~fp_long_ops ~taken_branches =
  settle_fetch_hits t;
  let il1 = Cache.stats t.il1 and dl1 = Cache.stats t.dl1 in
  let itlb = Tlb.stats t.itlb and dtlb = Tlb.stats t.dtlb in
  let dram = Dram.stats t.dram in
  {
    Metrics.cycles = t.sink.cycles;
    instructions;
    il1_hits = il1.Cache.hits;
    il1_misses = il1.Cache.misses;
    dl1_hits = dl1.Cache.hits;
    dl1_misses = dl1.Cache.misses;
    itlb_misses = itlb.Tlb.misses;
    dtlb_misses = dtlb.Tlb.misses;
    bus_transactions = Bus.count t.bus;
    dram_row_hits = dram.Dram.row_hits;
    dram_row_misses = dram.Dram.row_misses;
    fp_long_ops;
    taken_branches;
    faults_injected = t.faults_injected;
  }

let snapshot_of_stats t (stats : Repro_isa.Executor.stats) =
  snapshot t ~instructions:stats.Repro_isa.Executor.retired
    ~fp_long_ops:stats.Repro_isa.Executor.fp_long_ops
    ~taken_branches:stats.Repro_isa.Executor.taken_branches

(* The pipeline timing model as the runner's sink, built once by [create]:
   the fixed costs the runner adds itself, the clock, and the closures for
   a fetch from a new line, a data access and FDIV/FSQRT.  The order of
   the stateful cache/TLB/bus accesses fixes the order of every PRNG draw.

   Only fetches touch the IL1 and the ITLB, so a fetch from the previous
   fetch's line is an MRU hit in both (the geometry gate makes the same
   line the same page): the runner adds the base cycle plus an L1 hit and
   counts it as pending, to be applied in one call per structure before
   anything next looks at it. *)
let sink t = t.sink

let run_decoded t ~runner =
  Repro_profile.time Repro_profile.Flush (fun () ->
      reset_run t;
      Runner.reset runner);
  let stats =
    Repro_profile.time Repro_profile.Execute (fun () -> Runner.run runner ~sink:t.sink)
  in
  snapshot_of_stats t stats

let run_program t ~program ~layout ~memory =
  let decoded = Repro_isa.Executor.Decoded.decode ~program ~layout in
  run_decoded t ~runner:(Runner.create ~decoded ~memory ())

let run_decoded_faulty t ?injector ?watchdog_budget ~runner () =
  Repro_profile.time Repro_profile.Flush (fun () ->
      reset_run t;
      Runner.reset runner);
  let targets =
    match injector with
    | None -> None
    | Some _ ->
        Some
          {
            Fault.il1 = t.il1;
            dl1 = t.dl1;
            itlb = t.itlb;
            dtlb = t.dtlb;
            corrupt_int_register =
              (fun ~reg ~bit -> Runner.corrupt_int_register runner ~reg ~bit);
            corrupt_float_register =
              (fun ~reg ~bit -> Runner.corrupt_float_register runner ~reg ~bit);
          }
  in
  (* Post-step supervision: the sink has already timed the instruction, so
     count it, check the watchdog, then let the injector act before the
     next instruction. *)
  let retired = ref 0 in
  let post () =
    incr retired;
    (match watchdog_budget with
    | Some budget when t.sink.cycles > budget ->
        raise (Budget_exceeded { cycles = t.sink.cycles; budget })
    | Some _ | None -> ());
    match (injector, targets) with
    | Some inj, Some tg ->
        if Fault.due inj ~retired:!retired then begin
          (* An upset can evict or alias a hinted line or page: apply the
             pending hits while they are still the MRU entries, and probe
             the next fetch in full. *)
          settle_fetch_hits t;
          t.sink.fetch_line <- -1;
          t.fetch_page <- -1
        end;
        Fault.step inj ~retired:!retired tg;
        t.faults_injected <- Fault.count inj
    | _ -> ()
  in
  let stats = Runner.run_supervised runner ~sink:t.sink ~post in
  snapshot_of_stats t stats
