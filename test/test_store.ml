(* Content-addressed sample store: key stability, bit-exact round-trips,
   crash-injection resume, corruption detection, and gc policy.

   Every measurement function below is a pure function of its run index
   (or of [(run_index, attempt)]) — the seed-derivation contract that makes
   resume-equals-cold provable, and that these tests check bit-for-bit. *)

module M = Repro_mbpta
module Store = M.Store

let temp_dir () =
  let f = Filename.temp_file "store_test" "" in
  Sys.remove f;
  f

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_root f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f (Store.open_root ~dir))

let config = [ ("scenario", "unit-test"); ("seed", "42"); ("frames", "25") ]

let open_exn ?chunk_size ?resume root ~key ~runs ~resilient =
  match Store.open_session ?chunk_size ?resume root ~key ~config ~runs ~resilient with
  | Ok s -> s
  | Error e -> Alcotest.failf "open_session: %s" e

(* Awkward floats: irrationals, subnormals, negative zero — anything that
   would expose a lossy decimal round-trip. *)
let awkward i =
  match i mod 5 with
  | 0 -> Float.pi *. float_of_int (i + 1)
  | 1 -> 1. /. 3. *. (10. ** float_of_int (i mod 17))
  | 2 -> Float.min_float *. float_of_int (i + 1)
  | 3 -> -0.
  | _ -> sin (float_of_int i) *. 1e9

let check_bits name expected actual =
  let b a = Array.to_list (Array.map Int64.bits_of_float a) in
  Alcotest.(check (list int64)) name (b expected) (b actual)

(* ------------------------------------------------------------------ *)
(* keys *)

let test_key_canonical () =
  let k1 = Store.key [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  let k2 = Store.key [ ("c", "3"); ("a", "1"); ("b", "2") ] in
  Alcotest.(check string) "order-independent" k1 k2;
  let k3 = Store.key [ ("a", "1"); ("b", "2"); ("c", "4") ] in
  Alcotest.(check bool) "value changes the key" false (k1 = k3);
  let k4 = Store.key ~chunk_size:64 [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  Alcotest.(check bool) "chunk size changes the key" false (k1 = k4)

let test_key_is_hex_digest () =
  let k = Store.key config in
  Alcotest.(check int) "MD5 hex length" 32 (String.length k);
  String.iter
    (fun c ->
      if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
        Alcotest.failf "non-hex digest character %C" c)
    k

(* ------------------------------------------------------------------ *)
(* round trip *)

let test_roundtrip_bit_exact () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let cold = open_exn ~chunk_size:8 root ~key ~runs:30 ~resilient:false in
  let expected = Store.collect cold ~phase:"collect_det" 30 awkward in
  Store.close cold;
  let warm = open_exn ~chunk_size:8 root ~key ~runs:30 ~resilient:false in
  Alcotest.(check bool) "phase complete" true (Store.complete warm ~phase:"collect_det");
  Alcotest.(check int) "all runs cached" 30 (Store.cached_runs warm ~phase:"collect_det");
  let calls = ref 0 in
  let served =
    Store.collect warm ~jobs:1 ~phase:"collect_det" 30 (fun i -> incr calls; awkward i)
  in
  Store.close warm;
  Alcotest.(check int) "warm hit computes nothing" 0 !calls;
  check_bits "values bit-identical after reload" expected served

let test_trails_roundtrip () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:4 config in
  let trail i : Store.trail =
    match i mod 4 with
    | 0 -> [ Store.Completed (awkward i) ]
    | 1 -> [ Store.Timeout "watchdog"; Store.Completed (awkward i) ]
    | 2 -> [ Store.Crashed "trap"; Store.Corrupted "checksum"; Store.Completed (-0.) ]
    | _ -> [ Store.Timeout "t0"; Store.Timeout "t1"; Store.Crashed "gave up" ]
  in
  let cold = open_exn ~chunk_size:4 root ~key ~runs:13 ~resilient:true in
  let expected = Store.collect_trails cold ~phase:"collect_rand" 13 trail in
  Store.close cold;
  let warm = open_exn ~chunk_size:4 root ~key ~runs:13 ~resilient:true in
  let calls = ref 0 in
  let served =
    Store.collect_trails warm ~jobs:1 ~phase:"collect_rand" 13 (fun i ->
        incr calls;
        trail i)
  in
  Store.close warm;
  Alcotest.(check int) "warm hit computes nothing" 0 !calls;
  Alcotest.(check bool) "trails round-trip exactly" true (expected = served)

(* A phase name holding an escaped quote is legal, but the header peek
   declines its frames, so every read takes the JSON fallback: the chunk
   lookup of a resume, the deep scan, and the warm materialization. *)
let test_escaped_phase_roundtrip () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let phase = "det \"quoted\"" in
  let expected = Array.init 20 awkward in
  let counted calls i =
    incr calls;
    awkward i
  in
  let s = open_exn ~chunk_size:8 root ~key ~runs:20 ~resilient:false in
  Store.set_fail_after s 1;
  (match Store.collect s ~jobs:1 ~phase 20 awkward with
  | _ -> Alcotest.fail "expected Injected_crash"
  | exception Store.Injected_crash _ -> Store.close s);
  let r = open_exn ~chunk_size:8 ~resume:true root ~key ~runs:20 ~resilient:false in
  let calls = ref 0 in
  check_bits "resumed values bit-identical" expected
    (Store.collect r ~jobs:1 ~phase 20 (counted calls));
  Store.close r;
  Alcotest.(check int) "resume serves the first chunk from the record" 12 !calls;
  (match (List.hd (Store.ls root)).Store.status with
  | Store.Complete -> ()
  | _ -> Alcotest.fail "the deep scan must decode every chunk");
  let w = open_exn ~chunk_size:8 root ~key ~runs:20 ~resilient:false in
  let calls = ref 0 in
  let warm = Store.collect w ~jobs:2 ~phase 20 (counted calls) in
  Store.close w;
  Alcotest.(check int) "warm read computes nothing" 0 !calls;
  check_bits "warm values bit-identical" expected warm

(* ------------------------------------------------------------------ *)
(* session guards *)

let test_session_guards () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs:20 ~resilient:false in
  let reject name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  reject "persist off the frontier" (fun () ->
      Store.persist s ~phase:"collect_det" ~lo:8 (Array.make 8 1.));
  reject "persist with a wrong-length chunk" (fun () ->
      Store.persist s ~phase:"collect_det" ~lo:0 (Array.make 5 1.));
  reject "trails persist into a fault-free record" (fun () ->
      Store.persist_trails s ~phase:"collect_det" ~lo:0
        (Array.make 8 [ Store.Completed 1. ]));
  reject "collect with a runs mismatch" (fun () ->
      ignore (Store.collect s ~jobs:1 ~phase:"collect_det" 21 float_of_int));
  Store.close s;
  (* Same key on disk, different declared runs: meta mismatch is an
     [Error], never silent reuse. *)
  match Store.open_session ~chunk_size:8 root ~key ~config ~runs:40 ~resilient:false with
  | Ok _ -> Alcotest.fail "runs mismatch must not open"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* crash injection and resume *)

let session_phase = "collect_det"

let interrupt session ~runs ~after f =
  Store.set_fail_after session after;
  match Store.collect session ~jobs:1 ~phase:session_phase runs f with
  | _ -> Alcotest.fail "expected Injected_crash"
  | exception Store.Injected_crash _ -> Store.close session

let test_resume_equals_cold () =
  with_root @@ fun root ->
  let runs = 30 in
  let reference = Array.init runs awkward in
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs ~resilient:false in
  interrupt s ~runs ~after:2 awkward;
  (* Resume at a different job count: layout is a function of [runs] alone,
     so the cached/computed split must be invisible in the result. *)
  let r = open_exn ~chunk_size:8 ~resume:true root ~key ~runs ~resilient:false in
  Alcotest.(check int) "two chunks survived the crash" 16
    (Store.cached_runs r ~phase:session_phase);
  let resumed = Store.collect r ~jobs:4 ~phase:session_phase runs awkward in
  Store.close r;
  check_bits "resumed run is bit-identical to cold" reference resumed;
  (* And the record is now complete: a third open is a pure warm hit. *)
  let w = open_exn ~chunk_size:8 root ~key ~runs ~resilient:false in
  let calls = ref 0 in
  let warm = Store.collect w ~jobs:1 ~phase:session_phase runs (fun i -> incr calls; awkward i) in
  Store.close w;
  Alcotest.(check int) "no recompute after resume completed" 0 !calls;
  check_bits "warm serve is bit-identical to cold" reference warm

let test_no_resume_discards_partial () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs:30 ~resilient:false in
  interrupt s ~runs:30 ~after:2 awkward;
  let fresh = open_exn ~chunk_size:8 root ~key ~runs:30 ~resilient:false in
  Alcotest.(check int) "partial prefix discarded without --resume" 0
    (Store.cached_runs fresh ~phase:session_phase);
  Store.close fresh

(* A synthetic latency at campaign scale, pure in the run index, with
   full-width mantissas: division by 3 leaves a repeating binary
   fraction, like the float arithmetic real latencies come from. *)
let scale_value i = 1e6 +. (float_of_int ((i * 2654435761) land 0xfffff) /. 3.)

(* The chunk size of the scaled protocol at 10^5 runs and beyond. *)
let scale_chunk = 4096

let test_warm_equals_cold_at_scale () =
  with_root @@ fun root ->
  let runs = 100_000 in
  let key = Store.key ~chunk_size:scale_chunk config in
  let s = open_exn ~chunk_size:scale_chunk root ~key ~runs ~resilient:false in
  let cold = Store.collect s ~jobs:1 ~phase:session_phase runs scale_value in
  Store.close s;
  let w = open_exn ~chunk_size:scale_chunk ~resume:true root ~key ~runs ~resilient:false in
  let warm =
    Store.collect w ~jobs:1 ~phase:session_phase runs (fun _ ->
        Alcotest.fail "warm read must not recompute a run")
  in
  Store.close w;
  check_bits "warm == cold" cold warm

(* ------------------------------------------------------------------ *)
(* whole campaigns through the store *)

let measure_det i = (float_of_int i *. 17.25) +. sin (float_of_int i) +. 1500.
let measure_rand i = (float_of_int i *. 13.5) +. cos (float_of_int (i * 3)) +. 1500.

let campaign_input runs =
  { (M.Campaign.default_input ~measure_det ~measure_rand) with runs }

let campaign_samples = function
  | Ok (c : M.Campaign.t) -> (c.det_sample, c.rand_sample)
  | Error f -> Alcotest.failf "campaign failed: %a" M.Protocol.pp_failure f

let test_campaign_resume_jobs_invariant () =
  with_root @@ fun root ->
  let runs = 40 in
  let input = campaign_input runs in
  let det_cold, rand_cold = campaign_samples (M.Campaign.run ~jobs:1 input) in
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs ~resilient:false in
  Store.set_fail_after s 3;
  (match M.Campaign.run ~jobs:1 ~store:s input with
  | _ -> Alcotest.fail "expected Injected_crash"
  | exception Store.Injected_crash _ -> Store.close s);
  let r = open_exn ~chunk_size:8 ~resume:true root ~key ~runs ~resilient:false in
  let det_res, rand_res = campaign_samples (M.Campaign.run ~jobs:4 ~store:r input) in
  Store.close r;
  check_bits "det sample: resumed(jobs=4) = cold(jobs=1)" det_cold det_res;
  check_bits "rand sample: resumed(jobs=4) = cold(jobs=1)" rand_cold rand_res;
  (* Warm re-analysis: both phases served from cache, zero simulator runs. *)
  let det_calls = ref 0 and rand_calls = ref 0 in
  let counting =
    {
      input with
      measure_det = (fun i -> incr det_calls; measure_det i);
      measure_rand = (fun i -> incr rand_calls; measure_rand i);
    }
  in
  let w = open_exn ~chunk_size:8 root ~key ~runs ~resilient:false in
  let det_warm, rand_warm = campaign_samples (M.Campaign.run ~jobs:1 ~store:w counting) in
  Store.close w;
  Alcotest.(check int) "warm: zero det measurements" 0 !det_calls;
  Alcotest.(check int) "warm: zero rand measurements" 0 !rand_calls;
  check_bits "warm det sample bit-identical" det_cold det_warm;
  check_bits "warm rand sample bit-identical" rand_cold rand_warm

let outcome_of ~base ~run_index ~attempt : M.Resilience.outcome =
  (* Deterministic fault pattern in (run_index, attempt): some runs time
     out or trap on their first attempts, then recover. *)
  match ((run_index * 7) + attempt) mod 11 with
  | 0 when attempt < 2 -> Timeout (Printf.sprintf "wd run=%d a=%d" run_index attempt)
  | 5 when attempt < 1 -> Crashed (Printf.sprintf "trap run=%d" run_index)
  | _ ->
      Completed (base +. (float_of_int run_index *. 11.5) +. (float_of_int attempt *. 0.125))

let test_resilient_campaign_resume () =
  with_root @@ fun root ->
  let runs = 40 in
  let input =
    M.Campaign.resilient_input ~base:(campaign_input runs)
      ~measure_det_outcome:(outcome_of ~base:1600.)
      ~measure_rand_outcome:(outcome_of ~base:1900.) ()
  in
  let cold = M.Campaign.run_resilient ~jobs:1 input in
  let det_cold, rand_cold = campaign_samples cold in
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs ~resilient:true in
  Store.set_fail_after s 3;
  (match M.Campaign.run_resilient ~jobs:1 ~store:s input with
  | _ -> Alcotest.fail "expected Injected_crash"
  | exception Store.Injected_crash _ -> Store.close s);
  let r = open_exn ~chunk_size:8 ~resume:true root ~key ~runs ~resilient:true in
  let resumed = M.Campaign.run_resilient ~jobs:4 ~store:r input in
  Store.close r;
  let det_res, rand_res = campaign_samples resumed in
  check_bits "resilient det sample: resumed = cold" det_cold det_res;
  check_bits "resilient rand sample: resumed = cold" rand_cold rand_res;
  (* Retry accounting is checkpointed with the trails, so the fault reports
     reproduce exactly too. *)
  match (cold, resumed) with
  | Ok c, Ok r ->
      Alcotest.(check bool) "det resilience report identical" true
        (c.det_resilience = r.det_resilience);
      Alcotest.(check bool) "rand resilience report identical" true
        (c.rand_resilience = r.rand_resilience)
  | _ -> Alcotest.fail "campaigns must succeed"

(* ------------------------------------------------------------------ *)
(* inspection and gc *)

let append_line file line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  output_string oc line;
  output_char oc '\n';
  close_out oc

let record_file root key = Filename.concat (Store.dir root) (key ^ ".jsonl")

let test_ls_statuses_and_gc () =
  with_root @@ fun root ->
  (* complete record *)
  let key_ok = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key:key_ok ~runs:16 ~resilient:false in
  ignore (Store.collect s ~jobs:1 ~phase:"collect_det" 16 awkward);
  Store.close s;
  (* partial record: killed after one chunk, then a torn trailing line *)
  let config_p = ("variant", "partial") :: config in
  let key_p = Store.key ~chunk_size:8 config_p in
  let p =
    match
      Store.open_session ~chunk_size:8 root ~key:key_p ~config:config_p ~runs:16
        ~resilient:false
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "open: %s" e
  in
  Store.set_fail_after p 1;
  (match Store.collect p ~jobs:1 ~phase:"collect_det" 16 awkward with
  | _ -> Alcotest.fail "expected Injected_crash"
  | exception Store.Injected_crash _ -> Store.close p);
  append_line (record_file root key_p) "{\"kind\":\"chunk\",\"phase\":\"collect_det\",\"lo\":8,\"val";
  (* corrupt record: content that cannot possibly match its address *)
  let key_c = String.make 32 'd' in
  append_line (record_file root key_c) "not json at all";
  let entries = Store.ls root in
  Alcotest.(check int) "three records listed" 3 (List.length entries);
  let status_of k =
    (List.find (fun (e : Store.entry) -> e.entry_key = k) entries).status
  in
  (match status_of key_ok with
  | Store.Complete -> ()
  | _ -> Alcotest.fail "finished record must be Complete");
  (match status_of key_p with
  | Store.Partial _ -> ()
  | _ -> Alcotest.fail "torn tail after a valid prefix must stay Partial (resumable)");
  (match status_of key_c with
  | Store.Corrupt _ -> ()
  | _ -> Alcotest.fail "unparseable record must be Corrupt");
  (* default gc: corrupt only; partial records are resumable state *)
  let removed, bytes = Store.gc root in
  Alcotest.(check int) "gc removes the corrupt record" 1 (List.length removed);
  Alcotest.(check bool) "gc reports bytes freed" true (bytes > 0);
  Alcotest.(check int) "partial and complete survive" 2 (List.length (Store.ls root));
  let removed, _ = Store.gc ~partial:true root in
  Alcotest.(check int) "gc --partial removes the partial record" 1 (List.length removed);
  match Store.ls root with
  | [ e ] -> Alcotest.(check string) "only the complete record remains" key_ok e.entry_key
  | l -> Alcotest.failf "expected 1 record, found %d" (List.length l)

let test_tail_corruption_keeps_prefix () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs:24 ~resilient:false in
  ignore (Store.collect s ~jobs:1 ~phase:"collect_det" 24 awkward);
  Store.close s;
  (* Tear the final chunk line in half — a write that died mid-flush. *)
  let file = record_file root key in
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  (match !lines with
  | last :: rest ->
      let oc = open_out file in
      List.iter (fun l -> output_string oc l; output_char oc '\n') (List.rev rest);
      output_string oc (String.sub last 0 (String.length last / 2));
      close_out oc
  | [] -> Alcotest.fail "record is empty");
  let r = open_exn ~chunk_size:8 ~resume:true root ~key ~runs:24 ~resilient:false in
  Alcotest.(check int) "prefix before the bad chunk survives" 16
    (Store.cached_runs r ~phase:"collect_det");
  let calls = ref 0 in
  let out = Store.collect r ~jobs:1 ~phase:"collect_det" 24 (fun i -> incr calls; awkward i) in
  Store.close r;
  Alcotest.(check int) "only the dropped chunk recomputes" 8 !calls;
  check_bits "repaired record is bit-identical" (Array.init 24 awkward) out

(* ------------------------------------------------------------------ *)
(* record integrity (store/v2 checksums) *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* Flip one bit inside a chunk value — silent SEU in the store file itself. *)
let flip_byte path ~at =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s at (Char.chr (Char.code (Bytes.get s at) lxor 1));
  write_file path (Bytes.to_string s)

let test_bit_flip_detected () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs:24 ~resilient:false in
  ignore (Store.collect s ~jobs:1 ~phase:"collect_det" 24 awkward);
  Store.close s;
  let file = record_file root key in
  (* flip a byte in the middle of the file: lands in a sealed line's body *)
  flip_byte file ~at:(String.length (read_file file) / 2);
  (match
     (List.find (fun (e : Store.entry) -> e.entry_key = key) (Store.ls root)).status
   with
  | Store.Corrupt _ -> ()
  | _ -> Alcotest.fail "bit-flipped record must verify as Corrupt");
  (* A tampered record must not resume — and must not silently serve. *)
  (match
     Store.open_session ~chunk_size:8 ~resume:true root ~key ~config ~runs:24
       ~resilient:false
   with
  | Ok _ -> Alcotest.fail "resume over a tampered record must be refused"
  | Error e ->
      Alcotest.(check bool) "error names the integrity check" true
        (String.length e > 0));
  (* Without --resume the record is discarded and recomputed from scratch. *)
  let fresh = open_exn ~chunk_size:8 root ~key ~runs:24 ~resilient:false in
  Alcotest.(check int) "tampered record discarded" 0
    (Store.cached_runs fresh ~phase:"collect_det");
  let out = Store.collect fresh ~jobs:1 ~phase:"collect_det" 24 awkward in
  Store.close fresh;
  check_bits "recomputed record is bit-identical" (Array.init 24 awkward) out

(* Fabricate a record under another schema from scratch: v1 (unsealed)
   and v2 (sealed) both carried text float payloads ([values]) serialized
   by {!Trace.Json}.  Building the bytes by hand pins the historical line
   shapes independently of what today's writer emits.  [runs = 0] writes
   the meta line alone. *)
let fabricate_legacy root ~schema ~key ~config ~chunk_size ~runs values =
  let module J = M.Trace.Json in
  let seal = if schema = "store/v1" then Fun.id else Store.seal in
  let meta =
    J.to_string
      (J.Obj
         [
           ("kind", J.String "meta");
           ("schema", J.String schema);
           ("key", J.String key);
           ("runs", J.Int runs);
           ("resilient", J.Bool false);
           ("chunk_size", J.Int chunk_size);
           ( "config",
             J.Obj
               (List.map (fun (k, v) -> (k, J.String v)) (List.sort compare config)) );
         ])
  in
  let chunks = ref [] in
  let lo = ref 0 in
  while !lo < runs do
    let len = min chunk_size (runs - !lo) in
    chunks :=
      J.to_string
        (J.Obj
           [
             ("kind", J.String "chunk");
             ("phase", J.String "collect_det");
             ("lo", J.Int !lo);
             ("values", J.List (List.init len (fun i -> J.Float (values (!lo + i)))));
           ])
      :: !chunks;
    lo := !lo + len
  done;
  write_file (record_file root key)
    (String.concat "" (List.map (fun l -> seal l ^ "\n") (meta :: List.rev !chunks)))

(* The v1 and v2 records are what this store wrote before store/v3; the
   sealed, meta-only store/v4 record stands for a newer build sharing the
   directory.  Each is filed under the address this build gives a config
   naming its schema, so a session for that config reaches it.  A v3
   record whose meta line has one bit flipped, "store/v3" to "store/v2",
   fails its seal: that is damage, not another schema. *)
let test_other_schemas_left_alone () =
  with_root @@ fun root ->
  let dst_dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dst_dir) @@ fun () ->
  let dst = Store.open_root ~dir:dst_dir in
  let collected config =
    let key = Store.key ~chunk_size:8 config in
    let s =
      match Store.open_session ~chunk_size:8 root ~key ~config ~runs:16 ~resilient:false with
      | Ok s -> s
      | Error e -> Alcotest.failf "open_session: %s" e
    in
    ignore (Store.collect s ~jobs:1 ~phase:"collect_det" 16 awkward);
    Store.close s;
    key
  in
  let flipped = collected config in
  let at = String.length {|{"kind":"meta","schema":"store/v|} in
  Alcotest.(check char) "flip lands on the schema digit" '3'
    (read_file (record_file root flipped)).[at];
  flip_byte (record_file root flipped) ~at;
  let clean = collected [ ("scenario", "clean") ] in
  let others =
    List.map
      (fun (schema, runs) ->
        let config = [ ("schema", schema) ] in
        let key = Store.key ~chunk_size:8 config in
        fabricate_legacy root ~schema ~key ~config ~chunk_size:8 ~runs awkward;
        (schema, key, config))
      [ ("store/v1", 16); ("store/v2", 16); ("store/v4", 0) ]
  in
  (* the destination holds a v4 record under the clean record's key *)
  let _, v4_key, _ = List.nth others 2 in
  write_file (record_file dst clean) (read_file (record_file root v4_key));
  let other_files = List.map (fun (_, key, _) -> record_file root key) others in
  let kept = List.map (fun f -> (f, read_file f)) (record_file dst clean :: other_files) in
  let check_kept what =
    List.iter
      (fun (f, bytes) ->
        Alcotest.(check string) (what ^ " leaves " ^ f ^ " byte-identical") bytes (read_file f))
      kept
  in
  List.iter
    (fun deep ->
      let mode = if deep then "deep" else "shallow" in
      let entries = Store.ls ~deep root in
      let status key =
        (List.find (fun (e : Store.entry) -> e.entry_key = key) entries).status
      in
      List.iter
        (fun (schema, key, _) ->
          match status key with
          | Store.Unsupported s -> Alcotest.(check string) (mode ^ ": schema named") schema s
          | _ -> Alcotest.failf "%s: a %s record must list as Unsupported" mode schema)
        others;
      match status flipped with
      | Store.Corrupt _ -> ()
      | _ -> Alcotest.failf "%s: a meta line failing its seal must list as Corrupt" mode)
    [ true; false ];
  List.iter
    (fun (schema, key, config) ->
      (match Store.open_session ~chunk_size:8 root ~key ~config ~runs:16 ~resilient:false with
      | Ok _ -> Alcotest.failf "a session opened a %s record" schema
      | Error e ->
          Alcotest.(check bool) (schema ^ ": session error names the schema") true
            (contains e schema));
      let oc = open_out_bin Filename.null in
      let exported = Store.export_to root ~key oc in
      close_out oc;
      match exported with
      | Ok () -> Alcotest.failf "a %s record was exported" schema
      | Error e ->
          Alcotest.(check bool) (schema ^ ": export error names the schema") true
            (contains e schema))
    others;
  check_kept "sessions and export";
  (match Store.merge ~src:[ root ] dst with
  | Error e -> Alcotest.failf "merge: %s" e
  | Ok m ->
      Alcotest.(check int) "nothing merged" 0 m.Store.records_merged;
      Alcotest.(check (list string)) "the flipped record quarantined"
        [ record_file root flipped ]
        (List.map fst m.Store.quarantined);
      Alcotest.(check (list string))
        "other schemas skipped, and the source whose destination holds one"
        (List.sort compare (record_file dst clean :: record_file root clean :: other_files))
        (List.sort compare (List.map fst m.Store.skipped)));
  check_kept "merge";
  let removed, _ = Store.gc ~partial:true root in
  Alcotest.(check (list string)) "gc removes the flipped record alone"
    [ record_file root flipped ^ ".quarantined" ]
    (List.map (fun (e : Store.entry) -> e.file) removed);
  Alcotest.(check int) "gc keeps the destination's v4 record" 0
    (List.length (fst (Store.gc ~partial:true dst)));
  check_kept "gc"

let test_foreign_record_detected () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs:16 ~resilient:false in
  ignore (Store.collect s ~jobs:1 ~phase:"collect_det" 16 awkward);
  Store.close s;
  (* Valid bytes filed under the wrong address: content/filename mismatch. *)
  let alias = String.make 32 'e' in
  Sys.rename (record_file root key) (record_file root alias);
  match (List.find (fun (e : Store.entry) -> e.entry_key = alias) (Store.ls root)).status with
  | Store.Corrupt _ -> ()
  | _ -> Alcotest.fail "mis-addressed record must verify as Corrupt"

(* ------------------------------------------------------------------ *)
(* shard sessions and merge *)

let with_dirs n f =
  let dirs = List.init n (fun _ -> temp_dir ()) in
  Fun.protect ~finally:(fun () -> List.iter rm_rf dirs) (fun () -> f dirs)

let shard_runs = 30
let shard_phases = [ "collect_det"; "collect_rand" ]

(* One shard worker, in-process: collect both phases of [span] into its own
   store directory.  [chunk_size 8] over 30 runs gives chunks at 0/8/16/24. *)
let run_shard_into dir ~key ~span =
  let root = Store.open_root ~dir in
  match
    Store.open_session ~chunk_size:8 ~resume:true ~shard:span root ~key ~config
      ~runs:shard_runs ~resilient:false
  with
  | Error e -> Alcotest.failf "shard session: %s" e
  | Ok s ->
      List.iter
        (fun phase -> ignore (Store.collect s ~jobs:1 ~phase shard_runs awkward))
        shard_phases;
      Store.close s;
      root

let reference_record dir ~key =
  let root = Store.open_root ~dir in
  let s = open_exn ~chunk_size:8 root ~key ~runs:shard_runs ~resilient:false in
  List.iter
    (fun phase -> ignore (Store.collect s ~jobs:1 ~phase shard_runs awkward))
    shard_phases;
  Store.close s;
  root

let spans_3 = M.Coordinator.shard_spans ~shards:3 ~chunk_size:8 ~runs:shard_runs

let test_shard_merge_bit_identical () =
  with_dirs 5 @@ fun dirs ->
  let ref_dir, dst_dir, shard_dirs =
    match dirs with
    | r :: d :: s -> (r, d, s)
    | _ -> assert false
  in
  let key = Store.key ~chunk_size:8 config in
  ignore (reference_record ref_dir ~key);
  Alcotest.(check int) "three spans" 3 (List.length spans_3);
  let srcs = List.map2 (fun dir span -> run_shard_into dir ~key ~span) shard_dirs spans_3 in
  let dst = Store.open_root ~dir:dst_dir in
  (match Store.merge ~src:srcs dst with
  | Error e -> Alcotest.failf "merge: %s" e
  | Ok m ->
      Alcotest.(check int) "one record merged" 1 m.Store.records_merged;
      Alcotest.(check (list (pair string int))) "full coverage"
        [ (key, shard_runs) ] m.Store.coverage;
      Alcotest.(check int) "nothing quarantined" 0 (List.length m.Store.quarantined));
  Alcotest.(check string) "merged record byte-identical to single-process"
    (read_file (Filename.concat ref_dir (key ^ ".jsonl")))
    (read_file (Filename.concat dst_dir (key ^ ".jsonl")));
  (* Merging again is a no-op: same bytes, no rewrite. *)
  match Store.merge ~src:srcs dst with
  | Error e -> Alcotest.failf "re-merge: %s" e
  | Ok m -> Alcotest.(check int) "idempotent re-merge" 0 m.Store.records_merged

let test_shard_worker_crash_resume () =
  with_dirs 2 @@ fun dirs ->
  let ref_dir, shard_dir = (List.nth dirs 0, List.nth dirs 1) in
  let key = Store.key ~chunk_size:8 config in
  ignore (reference_record ref_dir ~key);
  let span = List.hd spans_3 (* [0, 16): two chunks per phase *) in
  let root = Store.open_root ~dir:shard_dir in
  let s =
    match
      Store.open_session ~chunk_size:8 ~resume:true ~shard:span root ~key ~config
        ~runs:shard_runs ~resilient:false
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "shard session: %s" e
  in
  (* the worker dies mid-shard, after one checkpoint chunk *)
  Store.set_fail_after s 1;
  (match Store.collect s ~jobs:1 ~phase:"collect_det" shard_runs awkward with
  | _ -> Alcotest.fail "expected Injected_crash"
  | exception Store.Injected_crash _ -> Store.close s);
  (* the retry resumes from the checkpoint and completes the span *)
  let r = ignore root; run_shard_into shard_dir ~key ~span in
  ignore r;
  let entry = List.hd (Store.ls (Store.open_root ~dir:shard_dir)) in
  List.iter
    (fun phase ->
      Alcotest.(check int)
        (phase ^ " covers the span")
        16
        (List.assoc phase entry.Store.phases))
    shard_phases

let test_merge_quarantines_and_degrades () =
  with_dirs 5 @@ fun dirs ->
  let ref_dir, dst_dir, shard_dirs =
    match dirs with r :: d :: s -> (r, d, s) | _ -> assert false
  in
  let key = Store.key ~chunk_size:8 config in
  ignore (reference_record ref_dir ~key);
  let srcs = List.map2 (fun dir span -> run_shard_into dir ~key ~span) shard_dirs spans_3 in
  (* Corrupt the middle shard's record: one flipped byte, mid-file. *)
  let victim = Filename.concat (List.nth shard_dirs 1) (key ^ ".jsonl") in
  flip_byte victim ~at:(String.length (read_file victim) / 2);
  let dst = Store.open_root ~dir:dst_dir in
  (match Store.merge ~src:srcs dst with
  | Error e -> Alcotest.failf "merge: %s" e
  | Ok m ->
      Alcotest.(check int) "corrupt shard quarantined" 1 (List.length m.Store.quarantined);
      (* coverage degrades to the contiguous prefix before the gap *)
      Alcotest.(check (list (pair string int))) "prefix coverage"
        [ (key, 16) ] m.Store.coverage);
  Alcotest.(check bool) "quarantined file renamed, not merged" true
    (Sys.file_exists (victim ^ ".quarantined") && not (Sys.file_exists victim));
  (* The merged record resumes to the full campaign bit-identically: graceful
     degradation costs coverage, never correctness. *)
  let r =
    match
      Store.open_session ~chunk_size:8 ~resume:true dst ~key ~config ~runs:shard_runs
        ~resilient:false
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "resume over merged record: %s" e
  in
  List.iter
    (fun phase ->
      Alcotest.(check int)
        (phase ^ ": prefix cached")
        16
        (Store.cached_runs r ~phase);
      check_bits
        (phase ^ ": resumed sample bit-identical")
        (Array.init shard_runs awkward)
        (Store.collect r ~jobs:4 ~phase shard_runs awkward))
    shard_phases;
  Store.close r;
  (* The repaired record is Complete (chunk append order reflects the resume
     interleaving, but every value is bit-identical): a warm re-open serves
     everything without a single measurement. *)
  (match (List.hd (Store.ls dst)).Store.status with
  | Store.Complete -> ()
  | _ -> Alcotest.fail "repaired record must verify as Complete");
  let w = open_exn ~chunk_size:8 dst ~key ~runs:shard_runs ~resilient:false in
  let calls = ref 0 in
  let warm =
    Store.collect w ~jobs:1 ~phase:"collect_det" shard_runs (fun i ->
        incr calls;
        awkward i)
  in
  Store.close w;
  Alcotest.(check int) "warm serve computes nothing" 0 !calls;
  check_bits "warm values bit-identical" (Array.init shard_runs awkward) warm

let test_merge_crash_safety () =
  with_dirs 5 @@ fun dirs ->
  let ref_dir, dst_dir, shard_dirs =
    match dirs with r :: d :: s -> (r, d, s) | _ -> assert false
  in
  let key = Store.key ~chunk_size:8 config in
  ignore (reference_record ref_dir ~key);
  let srcs = List.map2 (fun dir span -> run_shard_into dir ~key ~span) shard_dirs spans_3 in
  let dst = Store.open_root ~dir:dst_dir in
  (* the coordinator dies mid-merge: tmp+rename means the destination holds
     either nothing or a whole record, never a torn one *)
  (match Store.merge ~fail_after:2 ~src:srcs dst with
  | _ -> Alcotest.fail "expected Injected_crash"
  | exception Store.Injected_crash _ -> ());
  Alcotest.(check bool) "no half-written destination record" false
    (Sys.file_exists (Filename.concat dst_dir (key ^ ".jsonl")));
  (* re-running the merge converges to the single-process bytes *)
  (match Store.merge ~src:srcs dst with
  | Error e -> Alcotest.failf "re-merge: %s" e
  | Ok m -> Alcotest.(check int) "re-merge lands the record" 1 m.Store.records_merged);
  Alcotest.(check string) "recovered merge byte-identical"
    (read_file (Filename.concat ref_dir (key ^ ".jsonl")))
    (read_file (Filename.concat dst_dir (key ^ ".jsonl")))

(* The merge streams chunks, so its peak memory must not follow the size
   of the record.  Each merge runs in a fresh child process, this test
   executable re-run in child mode ([merge_heap_flag]), which prints the
   peak major heap of nothing but the merge. *)
let merge_heap_flag = "--merge-heap"

let merge_heap ~src ~dst =
  let src = List.map (fun dir -> Store.open_root ~dir) src in
  match Store.merge ~src (Store.open_root ~dir:dst) with
  | Error e ->
      prerr_endline e;
      exit 1
  | Ok _ ->
      Printf.printf "%d\n" (Gc.quick_stat ()).Gc.top_heap_words;
      exit 0

(* Merge two shard records of [runs] runs in a child; the merged record's
   size and the child's peak major heap, both in bytes. *)
let merged_record_and_heap runs =
  with_dirs 3 @@ fun dirs ->
  let key = Store.key ~chunk_size:scale_chunk config in
  let mid = runs / 2 / scale_chunk * scale_chunk in
  let shards, dst =
    match dirs with [ a; b; d ] -> ([ a; b ], d) | _ -> assert false
  in
  List.iter2
    (fun dir span ->
      match
        Store.open_session ~chunk_size:scale_chunk ~shard:span (Store.open_root ~dir) ~key
          ~config ~runs ~resilient:false
      with
      | Error e -> Alcotest.failf "shard session: %s" e
      | Ok s ->
          ignore (Store.collect s ~jobs:1 ~phase:session_phase runs scale_value);
          Store.close s)
    shards
    [ (0, mid); (mid, runs) ];
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  let child =
    Unix.create_process Sys.executable_name
      (Array.of_list ((Sys.executable_name :: merge_heap_flag :: shards) @ [ dst ]))
      Unix.stdin w_out Unix.stderr
  in
  Unix.close w_out;
  let ic = Unix.in_channel_of_descr r_out in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  (match Unix.waitpid [] child with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "merge child failed");
  let heap_words =
    match int_of_string_opt line with
    | Some w -> w
    | None -> Alcotest.failf "unexpected merge-child output: %S" line
  in
  ( (Unix.stat (Filename.concat dst (key ^ ".jsonl"))).Unix.st_size,
    heap_words * (Sys.word_size / 8) )

(* A merge that held the source records would grow its heap by about the
   record's own growth (10^4 -> 10^6 runs: ~10 MB); the streaming merge
   grows it by under 1 MB. *)
let test_merge_memory_flat () =
  let small_record, small_heap = merged_record_and_heap 10_000 in
  let large_record, large_heap = merged_record_and_heap 1_000_000 in
  Alcotest.(check bool)
    (Printf.sprintf "peak heap %d -> %d B while the record grew %d -> %d B" small_heap
       large_heap small_record large_record)
    true
    (large_heap - small_heap < (large_record - small_record) / 2)

let test_sync_roundtrip () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let s =
    match
      Store.open_session ~chunk_size:8 ~sync:true root ~key ~config ~runs:16
        ~resilient:false
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "open ~sync: %s" e
  in
  let out = Store.collect s ~jobs:1 ~phase:"collect_det" 16 awkward in
  Store.close s;
  check_bits "fsync'd record round-trips" (Array.init 16 awkward) out;
  let w = open_exn ~chunk_size:8 root ~key ~runs:16 ~resilient:false in
  Alcotest.(check int) "record complete" 16 (Store.cached_runs w ~phase:"collect_det");
  Store.close w

(* ------------------------------------------------------------------ *)
(* export *)

let test_export_roundtrip () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs:16 ~resilient:false in
  ignore (Store.collect s ~jobs:1 ~phase:"collect_det" 16 awkward);
  Store.close s;
  let out = Filename.temp_file "store_export" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let export key =
    let oc = open_out_bin out in
    let r = Store.export_to root ~key oc in
    close_out oc;
    Result.map (fun () -> read_file out) r
  in
  (match export key with
  | Error e -> Alcotest.failf "export: %s" e
  | Ok text ->
      Alcotest.(check string) "export is the verified record verbatim"
        (read_file (record_file root key))
        text);
  (match export (String.make 32 '0') with
  | Ok _ -> Alcotest.fail "export of a missing key must fail"
  | Error _ -> ());
  flip_byte (record_file root key) ~at:(String.length (read_file (record_file root key)) / 2);
  match export key with
  | Ok _ -> Alcotest.fail "export must refuse a tampered record"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* writer exclusion *)

let test_writer_lock_in_process () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs:30 ~resilient:false in
  (match Store.open_session ~chunk_size:8 root ~key ~config ~runs:30 ~resilient:false with
  | Ok _ -> Alcotest.fail "second writer on one key must not open"
  | Error e ->
      Alcotest.(check bool) "diagnostic names the writer conflict" true
        (contains e "locked"));
  Store.close s;
  (* the lock travels with the session: a new writer opens cleanly now *)
  let s2 = open_exn ~chunk_size:8 ~resume:true root ~key ~runs:30 ~resilient:false in
  Store.close s2

(* Two processes racing on one key: the child takes the session and
   holds it; the parent must get the typed diagnostic, and must regain
   the key without any cleanup step once the child dies — even by
   SIGKILL, which runs no release code at all.  The child is this test
   executable started afresh in child mode ([hold_lock_flag]), not a
   fork: earlier tests may have spawned domains, and OCaml 5 forbids
   [Unix.fork] once a domain has been created. *)
let hold_lock_flag = "--hold-writer-lock"

(* Child mode: report on stdout whether the open worked, then hold the
   session until killed. *)
let hold_writer_lock dir =
  let key = Store.key ~chunk_size:8 config in
  let verdict =
    let root = Store.open_root ~dir in
    match Store.open_session ~chunk_size:8 root ~key ~config ~runs:30 ~resilient:false with
    | Ok _ -> "k"
    | Error _ -> "e"
  in
  ignore (Unix.write_substring Unix.stdout verdict 0 1);
  Unix.sleep 60;
  Unix._exit 0

let test_writer_lock_two_processes () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let key = Store.key ~chunk_size:8 config in
  let r_ready, w_ready = Unix.pipe ~cloexec:true () in
  let child =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; hold_lock_flag; dir |]
      Unix.stdin w_ready Unix.stderr
  in
  Unix.close w_ready;
  let b = Bytes.create 1 in
  let n = Unix.read r_ready b 0 1 in
  Unix.close r_ready;
  Alcotest.(check int) "child reported" 1 n;
  Alcotest.(check char) "child holds the session" 'k' (Bytes.get b 0);
  let root = Store.open_root ~dir in
  (match Store.open_session ~chunk_size:8 root ~key ~config ~runs:30 ~resilient:false with
  | Ok _ ->
      Unix.kill child Sys.sigkill;
      ignore (Unix.waitpid [] child);
      Alcotest.fail "two live writers on one key"
  | Error e ->
      Alcotest.(check bool) "diagnostic names the other writer" true
        (contains e "locked by another writer"));
  Unix.kill child Sys.sigkill;
  ignore (Unix.waitpid [] child);
  match Store.open_session ~chunk_size:8 root ~key ~config ~runs:30 ~resilient:false with
  | Ok s -> Store.close s
  | Error e -> Alcotest.failf "lock must die with its process: %s" e

(* A shard worker that cannot open its record quarantines it.  The
   quarantine takes the key's writer lock, so a record that a session
   still holds — another worker appending to it — is refused and left
   exactly as it is, sidecar included; once the session closes it is
   renamed aside and listed as quarantined. *)
let test_quarantine_under_lock () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let file = record_file root key in
  let idx = file ^ ".idx" in
  interrupt (open_exn ~chunk_size:8 root ~key ~runs:30 ~resilient:false) ~runs:30 ~after:2
    awkward;
  let writer = open_exn ~chunk_size:8 ~resume:true root ~key ~runs:30 ~resilient:false in
  let record = read_file file and sidecar = read_file idx in
  (match Store.quarantine root ~key with
  | Ok () -> Alcotest.fail "quarantined a record that a session holds"
  | Error e -> Alcotest.(check bool) "refusal names the lock" true (contains e "locked"));
  Alcotest.(check string) "record left in place" record (read_file file);
  Alcotest.(check string) "sidecar left in place" sidecar (read_file idx);
  Store.close writer;
  (match Store.quarantine root ~key with
  | Ok () -> ()
  | Error e -> Alcotest.failf "quarantine after close: %s" e);
  Alcotest.(check bool) "record renamed aside" true
    (Sys.file_exists (file ^ ".quarantined") && not (Sys.file_exists file));
  Alcotest.(check bool) "sidecar removed" false (Sys.file_exists idx);
  (match Store.ls root with
  | [ { Store.file = f; status = Store.Corrupt reason; _ } ] ->
      Alcotest.(check string) "ls lists the quarantined file" (file ^ ".quarantined") f;
      Alcotest.(check bool) "status says quarantined" true (contains reason "quarantined")
  | l -> Alcotest.failf "expected one quarantined entry, found %d entries" (List.length l));
  (* another build's record is never quarantined *)
  let config = [ ("schema", "store/v4") ] in
  let key = Store.key ~chunk_size:8 config in
  fabricate_legacy root ~schema:"store/v4" ~key ~config ~chunk_size:8 ~runs:0 awkward;
  let record = read_file (record_file root key) in
  (match Store.quarantine root ~key with
  | Ok () -> Alcotest.fail "quarantined a record of another schema"
  | Error e ->
      Alcotest.(check bool) "refusal names the schema" true (contains e "store/v4"));
  Alcotest.(check string) "record of another schema left in place" record
    (read_file (record_file root key))

(* ------------------------------------------------------------------ *)
(* graceful shutdown (signal -> checkpoint barrier -> resume) *)

(* A real SIGINT mid-campaign: the store must stop at the next chunk
   barrier with a clean prefix, and rerunning with resume must be
   bit-identical to a cold run — the kill is invisible in the result. *)
let test_sigint_checkpoint_resume () =
  with_root @@ fun root ->
  let runs = 30 in
  let reference = Array.init runs awkward in
  let key = Store.key ~chunk_size:8 config in
  M.Shutdown.install ();
  let s = open_exn ~chunk_size:8 root ~key ~runs ~resilient:false in
  let self_kill i =
    if i = 12 then begin
      Unix.kill (Unix.getpid ()) Sys.sigint;
      (* the handler only sets a flag, and runs at the next safepoint —
         spin (allocating) until it has *)
      while not (M.Shutdown.requested ()) do
        ignore (Sys.opaque_identity (Array.make 1 0))
      done
    end;
    awkward i
  in
  (match Store.collect s ~jobs:1 ~phase:session_phase runs self_kill with
  | _ -> Alcotest.fail "expected Shutdown.Interrupted"
  | exception M.Shutdown.Interrupted reason ->
      Alcotest.(check string) "interruption names the signal" "SIGINT" reason;
      Store.close s);
  Alcotest.(check int) "SIGINT maps to exit 130" 130
    (M.Shutdown.exit_code (M.Shutdown.Interrupted "SIGINT"));
  Alcotest.(check int) "SIGTERM maps to exit 143" 143
    (M.Shutdown.exit_code (M.Shutdown.Interrupted "SIGTERM"));
  M.Shutdown.reset ();
  let r = open_exn ~chunk_size:8 ~resume:true root ~key ~runs ~resilient:false in
  (* the signal landed in chunk [8,16): that chunk still flushed before
     the barrier raised, so the prefix is exactly two whole chunks *)
  Alcotest.(check int) "clean chunk-aligned prefix" 16
    (Store.cached_runs r ~phase:session_phase);
  let resumed = Store.collect r ~jobs:2 ~phase:session_phase runs awkward in
  Store.close r;
  check_bits "kill-then-resume is bit-identical to cold" reference resumed

(* --- binary float codec ------------------------------------------------- *)

let test_f64_codec () =
  let specials =
    [|
      0.;
      -0.;
      infinity;
      neg_infinity;
      Float.min_float;
      Float.max_float;
      ldexp 1. (-1074);
      -.ldexp 1. (-1074);
      (* quiet NaN, signalling NaN, NaN with a distinctive payload: the
         codec must carry the exact bit pattern, not "a NaN" *)
      Int64.float_of_bits 0x7ff8000000000000L;
      Int64.float_of_bits 0x7ff0000000000001L;
      Int64.float_of_bits 0xfff800000000beefL;
      Float.pi;
      1. /. 3.;
      -1.5e308;
    |]
  in
  (match Store.F64.decode (Store.F64.encode specials) ~n:(Array.length specials) with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok got -> check_bits "special values survive bit-exactly" specials got);
  (* empty payload *)
  (match Store.F64.decode (Store.F64.encode [||]) ~n:0 with
  | Error e -> Alcotest.failf "empty decode: %s" e
  | Ok got -> Alcotest.(check int) "empty payload" 0 (Array.length got));
  (* every base64 padding shape *)
  for len = 1 to 9 do
    let a = Array.init len (fun i -> Int64.float_of_bits (Int64.of_int (0x0100 * len + i))) in
    match Store.F64.decode (Store.F64.encode a) ~n:len with
    | Error e -> Alcotest.failf "len %d: %s" len e
    | Ok got -> check_bits (Printf.sprintf "len %d round-trips" len) a got
  done;
  (* declared run count must match the payload length *)
  (match Store.F64.decode (Store.F64.encode [| 1.; 2. |]) ~n:3 with
  | Ok _ -> Alcotest.fail "length mismatch must be rejected"
  | Error _ -> ());
  (* and garbage base64 must be rejected, not decoded to something *)
  match Store.F64.decode "!!!!" ~n:0 with
  | Ok _ -> Alcotest.fail "invalid base64 must be rejected"
  | Error _ -> ()

(* --- index sidecar ------------------------------------------------------ *)

let test_index_sidecar () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs:32 ~resilient:false in
  let expected = Store.collect s ~jobs:2 ~phase:"collect_det" 32 awkward in
  Store.close s;
  let idx = record_file root key ^ ".idx" in
  Alcotest.(check bool) "close writes the sidecar" true (Sys.file_exists idx);
  (* header-only listing agrees with the deep scan *)
  let summary e = (e.Store.entry_key, e.Store.runs, e.Store.status = Store.Complete) in
  Alcotest.(check bool) "shallow ls matches deep ls" true
    (List.map summary (Store.ls ~deep:true root)
    = List.map summary (Store.ls ~deep:false root));
  (* a warm query must be served from the index: the simulator must never run *)
  let w = open_exn ~chunk_size:8 ~resume:true root ~key ~runs:32 ~resilient:false in
  let warm =
    Store.collect w ~jobs:1 ~phase:"collect_det" 32 (fun _ ->
        Alcotest.fail "warm query must not simulate")
  in
  Store.close w;
  check_bits "warm == cold" expected warm;
  (* a stale/corrupt sidecar is ignored and rebuilt, never trusted *)
  let junk = "mbpta-idx/v1 999999 deadbeef\n\"collect_det\" 0 8 1 1\n" in
  write_file idx junk;
  (match Store.ls ~deep:false root with
  | [ e ] ->
      (match e.status with
      | Store.Complete -> ()
      | _ -> Alcotest.fail "stale sidecar must fall back to the deep scan")
  | l -> Alcotest.failf "expected 1 record, found %d" (List.length l));
  Alcotest.(check bool) "stale sidecar rebuilt" true (read_file idx <> junk)

(* A record whose every phase is complete is adopted read-only, without
   the writer lock, and a graceful stop between the DET and RAND phases
   leaves one holding a complete collect_det alone.  Of two sessions
   that resume it, the first to append takes the lock; the other cannot
   append, and the record stays complete. *)
let test_lockless_session_cannot_append () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let s = open_exn ~chunk_size:8 root ~key ~runs:16 ~resilient:false in
  ignore (Store.collect s ~jobs:1 ~phase:"collect_det" 16 awkward);
  Store.close s;
  let a = open_exn ~chunk_size:8 ~resume:true root ~key ~runs:16 ~resilient:false in
  let b = open_exn ~chunk_size:8 ~resume:true root ~key ~runs:16 ~resilient:false in
  ignore (Store.collect a ~jobs:1 ~phase:"collect_rand" 16 awkward);
  (match Store.collect b ~jobs:1 ~phase:"collect_rand" 16 awkward with
  | _ -> Alcotest.fail "a second session appended without the writer lock"
  | exception Sys_error _ -> ());
  Store.close a;
  Store.close b;
  match Store.ls root with
  | [ ({ status = Store.Complete; _ } : Store.entry) ] -> ()
  | [ e ] -> Alcotest.failf "record left as %a" Store.pp_entry e
  | l -> Alcotest.failf "expected 1 record, found %d" (List.length l)

(* Every single-bit flip of a complete record's sidecar is caught: the
   session either adopts the rows it was written with or falls back to
   the verified scan, so a warm read never runs the measurement and
   never appends. *)
let test_sidecar_flips_never_resimulate () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size:8 config in
  let rand i = awkward (i + 100) in
  let s = open_exn ~chunk_size:8 root ~key ~runs:8 ~resilient:false in
  let det = Store.collect s ~jobs:1 ~phase:"collect_det" 8 awkward in
  let rnd = Store.collect s ~jobs:1 ~phase:"collect_rand" 8 rand in
  Store.close s;
  let file = record_file root key in
  let idx = file ^ ".idx" in
  let record = read_file file and sidecar = read_file idx in
  for bit = 0 to (8 * String.length sidecar) - 1 do
    let flipped = Bytes.of_string sidecar in
    let at = bit / 8 in
    Bytes.set flipped at (Char.chr (Char.code sidecar.[at] lxor (1 lsl (bit land 7))));
    write_file idx (Bytes.to_string flipped);
    let w = open_exn ~chunk_size:8 ~resume:true root ~key ~runs:8 ~resilient:false in
    let no_run i = Alcotest.failf "sidecar bit %d: run %d re-simulated" bit i in
    let det' = Store.collect w ~jobs:1 ~phase:"collect_det" 8 no_run in
    let rnd' = Store.collect w ~jobs:1 ~phase:"collect_rand" 8 no_run in
    Store.close w;
    let same a b = Array.map Int64.bits_of_float a = Array.map Int64.bits_of_float b in
    if not (same det det' && same rnd rnd') then
      Alcotest.failf "sidecar bit %d: a sample changed" bit;
    if read_file file <> record then Alcotest.failf "sidecar bit %d: record changed" bit
  done

(* ------------------------------------------------------------------ *)
(* checkpoint schedule *)

exception Crash of int

(* The checkpoint walk at any job count: record bytes are a function of the
   run count alone, a measurement that fails under the domain pool leaves
   exactly the chunks before the failing one, and a resume at another job
   count completes the record to the cold bytes. *)
let test_schedule_identity () =
  let runs = 32 in
  let key = Store.key ~chunk_size:8 config in
  let collect dir ~resume jobs f =
    let root = Store.open_root ~dir in
    let s = open_exn ~chunk_size:8 ~resume root ~key ~runs ~resilient:false in
    Fun.protect ~finally:(fun () -> Store.close s) @@ fun () ->
    Store.collect s ~jobs ~phase:session_phase runs f
  in
  let record dir = read_file (record_file (Store.open_root ~dir) key) in
  with_dirs 4 @@ fun dirs ->
  let cold_dir, crash_dir = (List.nth dirs 0, List.nth dirs 1) in
  let cold = collect cold_dir ~resume:false 1 awkward in
  let cold_record = record cold_dir in
  List.iter2
    (fun dir jobs ->
      check_bits (Printf.sprintf "jobs %d samples" jobs) cold
        (collect dir ~resume:false jobs awkward);
      Alcotest.(check string) (Printf.sprintf "jobs %d record bytes" jobs) cold_record
        (record dir))
    [ List.nth dirs 2; List.nth dirs 3 ]
    [ 2; 4 ];
  (* Runs 17 onward raise, so at jobs 2 both halves of the third chunk
     [16, 24) fail; the lower half's exception is the one that escapes. *)
  let failing i = if i >= 17 then raise (Crash i) else awkward i in
  (match collect crash_dir ~resume:false 2 failing with
  | _ -> Alcotest.fail "expected the measurement to raise"
  | exception Crash i -> Alcotest.(check int) "the lowest failing run's exception" 17 i);
  let root = Store.open_root ~dir:crash_dir in
  let r = open_exn ~chunk_size:8 ~resume:true root ~key ~runs ~resilient:false in
  Alcotest.(check int) "the two chunks before the failure survive" 16
    (Store.cached_runs r ~phase:session_phase);
  Store.close r;
  check_bits "resume at jobs 4 == cold" cold (collect crash_dir ~resume:true 4 awkward);
  Alcotest.(check string) "resumed record bytes == cold" cold_record (record crash_dir)

(* ------------------------------------------------------------------ *)
(* chunk-line mutations *)

(* Mutants of a finished record, three ways: the record cut at every byte
   offset; one bit flipped in each byte of a chunk line, left unsealed;
   and the same flips in the line's body, resealed with [Store.seal] so
   that every decoder behind the checksum sees them.  Whatever the mutant,
   a deep listing returns a status (never [Complete] for an unsealed
   flip), and a resumed session either collects or fails with [Error] or
   [Sys_error]: no other exception escapes. *)

type mutant = Truncated | Flipped | Resealed

let mutant_name = function
  | Truncated -> "truncated"
  | Flipped -> "flipped"
  | Resealed -> "resealed"

let mutation_trail i : Store.trail =
  match i mod 3 with
  | 0 -> [ Store.Completed (float_of_int i /. 4.) ]
  | 1 -> [ Store.Timeout "wd"; Store.Completed (-0.) ]
  | _ -> [ Store.Crashed "trap"; Store.Corrupted "sum"; Store.Completed 1e-300 ]

(* Byte range [start, stop) of line [k] of [s], 0 being the meta line. *)
let line_span s k =
  let rec start i k = if k = 0 then i else start (String.index_from s i '\n' + 1) (k - 1) in
  let a = start 0 k in
  (a, String.index_from s a '\n')

(* Byte [i] of the line that starts at [s.[at]] gets bit [i mod 8] flipped. *)
let flip_bit s ~at i =
  Bytes.set s (at + i) (Char.chr (Char.code (Bytes.get s (at + i)) lxor (1 lsl (i land 7))))

let mutants record ~line =
  let a, b = line_span record line in
  let truncated = List.init (String.length record) (fun k -> String.sub record 0 k) in
  let flipped =
    List.init (b - a) (fun i ->
        let s = Bytes.of_string record in
        flip_bit s ~at:a i;
        Bytes.to_string s)
  in
  (* the body is the line without its [,"sum":"<md5>"] trailer, closed
     by the '}' that [Store.seal] drops again *)
  let body_len = b - a - String.length ",\"sum\":\"\"}" - 32 in
  let resealed =
    List.init body_len (fun i ->
        let body = Bytes.of_string (String.sub record a body_len ^ "}") in
        flip_bit body ~at:0 i;
        String.sub record 0 a
        ^ Store.seal (Bytes.to_string body)
        ^ String.sub record b (String.length record - b))
  in
  List.map (fun m -> (Truncated, m)) truncated
  @ List.map (fun m -> (Flipped, m)) flipped
  @ List.map (fun m -> (Resealed, m)) resealed

let test_chunk_line_mutants ~runs ~chunk_size ~resilient () =
  with_root @@ fun root ->
  let key = Store.key ~chunk_size config in
  let phase = "collect_rand" in
  let collect s =
    if resilient then ignore (Store.collect_trails s ~jobs:1 ~phase runs mutation_trail)
    else ignore (Store.collect s ~jobs:1 ~phase runs awkward)
  in
  let s = open_exn ~chunk_size root ~key ~runs ~resilient in
  collect s;
  Store.close s;
  let file = record_file root key in
  let record = read_file file in
  (* the middle chunk line: a flip there is mid-record damage *)
  let line = ((runs + chunk_size - 1) / chunk_size + 1) / 2 in
  List.iteri
    (fun i (kind, bytes) ->
      (* a fresh mutant with no sidecar or lock file, rewritten in place:
         truncating a file to zero and refilling it is slow on some file
         systems *)
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ file ^ ".idx"; file ^ ".lock" ];
      let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 file in
      output_string oc bytes;
      flush oc;
      Unix.ftruncate (Unix.descr_of_out_channel oc) (String.length bytes);
      close_out oc;
      let what = Printf.sprintf "%s mutant %d" (mutant_name kind) i in
      (match (kind, Store.ls root) with
      | Flipped, [ { Store.status = Store.Complete; _ } ] ->
          Alcotest.failf "%s: an unsealed flip listed as Complete" what
      | _, [ _ ] -> ()
      | _, l -> Alcotest.failf "%s: %d entries listed" what (List.length l)
      | exception e -> Alcotest.failf "%s: ls raised %s" what (Printexc.to_string e));
      match
        match
          Store.open_session ~chunk_size ~resume:true root ~key ~config ~runs ~resilient
        with
        | Error _ -> ()
        | Ok s -> Fun.protect ~finally:(fun () -> Store.close s) (fun () -> collect s)
      with
      | () | (exception Sys_error _) -> ()
      | exception e -> Alcotest.failf "%s: session raised %s" what (Printexc.to_string e))
    (mutants record ~line)

(* In child mode the process holds the lock or merges, and never returns. *)
let () =
  match Sys.argv with
  | [| _; flag; dir |] when flag = hold_lock_flag -> hold_writer_lock dir
  | [| _; flag; a; b; dst |] when flag = merge_heap_flag -> merge_heap ~src:[ a; b ] ~dst
  | _ -> ()

let () =
  Alcotest.run "store"
    [
      ( "key",
        [
          Alcotest.test_case "canonical ordering" `Quick test_key_canonical;
          Alcotest.test_case "hex digest shape" `Quick test_key_is_hex_digest;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "floats bit-exact" `Quick test_roundtrip_bit_exact;
          Alcotest.test_case "attempt trails" `Quick test_trails_roundtrip;
          Alcotest.test_case "f64 binary codec" `Quick test_f64_codec;
          Alcotest.test_case "escaped phase takes the JSON fallback" `Quick
            test_escaped_phase_roundtrip;
        ] );
      ( "guards",
        [ Alcotest.test_case "session guards" `Quick test_session_guards ] );
      ( "locking",
        [
          Alcotest.test_case "in-process writer exclusion" `Quick
            test_writer_lock_in_process;
          Alcotest.test_case "two processes racing on one key" `Quick
            test_writer_lock_two_processes;
          Alcotest.test_case "quarantine refuses a locked record" `Quick
            test_quarantine_under_lock;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "SIGINT checkpoints, resume equals cold" `Quick
            test_sigint_checkpoint_resume;
        ] );
      ( "resume",
        [
          Alcotest.test_case "resume equals cold" `Quick test_resume_equals_cold;
          Alcotest.test_case "no --resume discards partial" `Quick
            test_no_resume_discards_partial;
          Alcotest.test_case "campaign resume, jobs-invariant" `Quick
            test_campaign_resume_jobs_invariant;
          Alcotest.test_case "resilient campaign resume" `Quick
            test_resilient_campaign_resume;
          Alcotest.test_case "10^5-run record: warm == cold" `Quick
            test_warm_equals_cold_at_scale;
        ] );
      ( "inspect",
        [
          Alcotest.test_case "ls statuses and gc" `Quick test_ls_statuses_and_gc;
          Alcotest.test_case "index sidecar" `Quick test_index_sidecar;
          Alcotest.test_case "a session without the lock cannot append" `Quick
            test_lockless_session_cannot_append;
          Alcotest.test_case "sidecar flips never re-simulate" `Quick
            test_sidecar_flips_never_resimulate;
          Alcotest.test_case "tail corruption keeps prefix" `Quick
            test_tail_corruption_keeps_prefix;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "bit flip detected" `Quick test_bit_flip_detected;
          Alcotest.test_case "records of another schema left alone" `Quick
            test_other_schemas_left_alone;
          Alcotest.test_case "foreign record detected" `Quick
            test_foreign_record_detected;
          Alcotest.test_case "fsync'd session round-trips" `Quick test_sync_roundtrip;
        ] );
      ( "merge",
        [
          Alcotest.test_case "shard merge bit-identical" `Quick
            test_shard_merge_bit_identical;
          Alcotest.test_case "shard worker crash + resume" `Quick
            test_shard_worker_crash_resume;
          Alcotest.test_case "quarantine + graceful degradation" `Quick
            test_merge_quarantines_and_degrades;
          Alcotest.test_case "merge crash safety" `Quick test_merge_crash_safety;
          Alcotest.test_case "merge memory does not grow with the record" `Quick
            test_merge_memory_flat;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "same record at any jobs, crash + resume" `Quick
            test_schedule_identity;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "fault-free record: cuts and bit flips" `Quick
            (test_chunk_line_mutants ~runs:20 ~chunk_size:8 ~resilient:false);
          Alcotest.test_case "resilient record: cuts and bit flips" `Quick
            (test_chunk_line_mutants ~runs:13 ~chunk_size:4 ~resilient:true);
        ] );
      ( "export",
        [ Alcotest.test_case "export round-trip" `Quick test_export_roundtrip ] );
    ]
