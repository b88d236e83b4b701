(** Persistent, content-addressed measurement store with campaign
    checkpoint/resume, per-line integrity checksums, shard sessions and an
    integrity-verified merge.

    The paper's protocol needs 3,000+ end-to-end simulator runs per
    configuration; at production scale campaigns must survive interruption
    and a re-analysis must not re-simulate measurements that already exist
    — the same reason fault-tolerant satellite software checkpoints to
    bound re-execution cost.  This module is that checkpoint layer, and —
    since PR 6 — the merge substrate for distributed campaigns: shard
    workers write chunk-aligned spans of the run space into their own
    stores, and {!merge} recombines them into the byte-identical
    single-process record.

    {b Content addressing.}  A campaign record is addressed by {!key}: a
    stable digest of the full measurement configuration (platform config,
    scenario, seeds, run count, SEU/fault settings) plus {!schema_version}
    and the checkpoint chunk size.  Anything that could change a stored
    byte changes the key, so records never need invalidation — a stale
    configuration simply hashes somewhere else.  Analysis-only options
    (tail model, gates, engineering factor) are deliberately {e not} part
    of the key: re-analysing the same measurements is a pure cache hit.

    {b Record format.}  One JSONL file per key, [<key>.jsonl] under the
    store root:

    - line 1 — [meta]: schema, key, runs, resilient flag, chunk size,
      optional shard span, and the full config for human inspection
      ([cache ls]);
    - then [chunk] (fault-free: measured cycles as little-endian IEEE-754
      bit patterns, base64-framed — bit-exact by construction, including
      [-0.], subnormals, infinities and NaN payloads) or [rchunk]
      (resilient: per-run attempt trails as {!Trace.Json} text) lines,
      appended at every checkpoint barrier in deterministic ascending
      order per phase.

    Every line ends with an integrity trailer [,"sum":"<md5-hex>"] — the
    digest of the line with the trailer removed.  Verification is
    byte-exact string surgery (no JSON round-trip), so a flipped bit, a
    mid-record truncation or a hand-edited value is caught and classified
    as {e tampering}, distinct from a {e torn tail} (a kill mid-write
    tears at most the last line; the valid prefix stays trustworthy and
    resumable).  Tampered records are refused by resume, reported
    [Corrupt] by [cache verify], and quarantined — renamed to
    [<file>.quarantined] — by {!merge} or a shard worker's {!quarantine},
    never merged.

    {b One schema.}  This build reads and writes {!schema_version} only.
    A record whose meta line names any other schema, older or newer, is
    [Unsupported] (see {!status}) — provided the line's seal verifies or
    the line carries none: [ls] and [cache verify] report it, {!gc} keeps
    it, {!merge} leaves it in place, and sessions and {!export_to} refuse
    it.  The seal is checked before the schema is read, so a meta line
    whose seal fails is [Corrupt] whatever schema it names: one flipped
    bit turns ["store/v3"] into ["store/v2"].

    Each phase's chunks must form a contiguous prefix of the fixed chunk
    layout (starting at the record's shard lower bound); the first
    malformed or out-of-place line invalidates that line and everything
    after it, never the valid prefix before it.

    {b Streaming reads.}  No whole-record read exists anywhere in this
    module: records are scanned line by line, sessions keep a byte-range
    index instead of decoded payloads and re-read chunks on demand, and
    {!merge}/{!export_to} copy chunk byte ranges through a bounded buffer —
    so open, warm query, verify, merge and export all run in O(chunk)
    memory however large the campaign.  A per-record sidecar
    ([<key>.jsonl.idx]) caches the byte layout for header-only listings
    and warm opens; it is a derived cache, honored only when it stamps the
    record's exact byte size, mtime and meta digest and its rows match
    the md5 its header carries, and rebuilt from the record otherwise; a
    row that does not parse (a phase name holding an escape) voids it,
    and the record takes the verified scan.  The trust
    model is git's index: the sidecar is only ever written over chunks
    whose seals were verified (by the writer at append time, or by the
    full scan that rebuilt it), so a session adopting a stamped sidecar
    decodes chunks without re-hashing each line — structural checks still
    catch a record swapped behind the session, and [cache verify] remains
    the offline deep check.  Every scan, lookup and warm read decodes a
    chunk line through one frame decoder.

    {b Determinism contract.}  Chunk layout is a pure function of the run
    count (never of [--jobs] or the shard count), each
    run's value is a pure function of its index (the seed-derivation
    contract), and floats round-trip bit-exact.  Hence a campaign resumed
    from any valid prefix — served entirely from cache, or merged together
    from shard records — returns samples bit-identical to a cold
    sequential run at any job count. *)

val schema_version : string
(** ["store/v3"] — bumped on any record-format change, which (being part
    of the digest) retires every old record automatically. *)

val default_chunk_size : int
(** Runs per checkpoint chunk (256): small enough that an interrupted
    3,000-run campaign loses little work, large enough that the per-chunk
    fsync/append cost disappears next to simulation time.  Shard spans are
    aligned on these boundaries. *)

exception Injected_crash of { appended_chunks : int }
(** Raised by the crash-injection test hook: when a session's fail-after
    budget (the [MBPTA_STORE_FAIL_AFTER_CHUNKS] environment variable, or
    {!set_fail_after}) is exhausted, the next checkpoint append raises
    instead of writing — a deterministic mid-campaign kill for the resume
    tests, bench, and CI smoke.  {!merge} takes the same budget as an
    explicit argument to simulate a coordinator killed mid-merge. *)

(** {1 Store root} *)

type t
(** A store root directory. *)

val open_root : dir:string -> t
(** Create [dir] (and parents) if missing.  Raises [Sys_error]. *)

val dir : t -> string

val key : ?chunk_size:int -> (string * string) list -> string
(** Stable content address of a campaign configuration: a hex digest of
    {!schema_version}, the chunk size, and the config pairs in canonical
    (name-sorted) order — so the digest does not depend on the order the
    harness assembled the list in. *)

(** {1 Format internals — exposed for tests and tooling} *)

val seal : string -> string
(** Append the integrity trailer to a JSON object line: [{...}] becomes
    [{...,"sum":"<md5-hex>"}] where the digest covers the line with the
    trailer removed.  This is the exact sealing sessions apply to every
    line they write; exposed so tests can fabricate records under another
    schema without exporting the writer. *)

(** Little-endian IEEE-754 binary float payloads — the [store/v3] chunk
    encoding.  [encode] maps each float to its 8-byte bit pattern
    ([Int64.bits_of_float], little-endian) and base64-frames the result;
    [decode] inverts it exactly, so every value — [-0.], subnormals,
    infinities, NaN payloads — round-trips bit-for-bit by construction. *)
module F64 : sig
  val encode : float array -> string
  val decode : string -> n:int -> (float array, string) result
end

(** {1 Sessions} *)

(** One measurement attempt as persisted.  This is the supervisor's own
    outcome type — {!Resilience.outcome} re-exports it — so a trail is
    stored and replayed without conversion. *)
type outcome =
  | Completed of float
  | Timeout of string
  | Crashed of string
  | Corrupted of string

type trail = outcome list
(** One run's attempt trail, attempt 0 first. *)

type session
(** An open campaign record.  The session holds a byte-range index of the
    record's valid chunks — never the decoded payloads — and re-reads
    chunks on demand, so session memory is O(chunk) regardless of
    campaign size; appends go to the record file (flushed at every
    checkpoint barrier).  {!close} refreshes the [.idx] sidecar. *)

val open_session :
  ?chunk_size:int ->
  ?resume:bool ->
  ?sync:bool ->
  ?shard:int * int ->
  t ->
  key:string ->
  config:(string * string) list ->
  runs:int ->
  resilient:bool ->
  (session, string) result
(** Open (or create) the record for [key].

    - no record on disk — fresh session, meta line written immediately
      (an unwritable store fails fast);
    - complete record — every chunk served from cache, regardless of
      [resume]; with a sidecar stamping the record's exact size, mtime
      and meta digest, the open adopts the cached byte layout without
      scanning the record at all — O(index), not O(record);
    - partial or tail-torn record — with [resume = true] (default
      [false]) the valid prefix is kept (the file is rewritten to exactly
      that prefix) and the campaign continues from the first missing
      chunk; with [resume = false] the record is discarded and the
      campaign starts cold;
    - tampered record (checksum failure) — [Error] under [resume] (the
      prefix is hostile input; quarantine or [cache gc] it), discarded and
      restarted cold otherwise;
    - record of another schema — [Error] naming the schema: the record is
      not touched;
    - meta mismatch (key/config/runs/resilient/chunk-size/shard
      disagreement) — [Error]: the record is not touched; inspect it with
      [cache verify] / reclaim it with [cache gc].

    [sync] (default [false]) extends every checkpoint barrier with an
    [fsync], so an acknowledged chunk survives power loss, not just a
    process kill; off by default because the store's durability unit is the
    chunk and campaigns tolerate losing the tail chunk.

    [shard] restricts the session to the span [lo, hi) of the run space: a
    shard worker's record holds exactly the chunks of that span (the meta
    line carries the span; chunk lines are byte-identical to the
    single-process record's chunks at the same offsets).  [lo] must be
    chunk-aligned and [hi] chunk-aligned or equal to [runs]; the span
    [0, runs) is a full session (no shard fields — [--shard 1/1] writes the
    single-process record).  Raises [Invalid_argument] on a misaligned or
    out-of-range span.

    {b Writer exclusion.}  Before parsing or truncating anything, the
    session takes a non-blocking exclusive advisory lock ([fcntl], with
    [O_CLOEXEC]) on the sidecar file [<key>.jsonl.lock]; a contended key
    yields [Error] naming the holding pid — two writers appending to one
    record would interleave its chunks.  The lock is released on {!close},
    dies with the process (a killed campaign never leaves a stale lock),
    and is dropped immediately when the record turns out complete, so any
    number of warm readers share a key freely.  Such a session takes the
    lock again before its first append (a record complete in every phase
    it holds can still gain a phase), and only if the record still has
    the bytes the session indexed; otherwise the append raises
    [Sys_error].  Sessions of one process exclude each other the same
    way.

    Raises [Sys_error] when the record file cannot be created. *)

val close : session -> unit
(** Flush and close the record file.  Idempotent. *)

val cached_runs : session -> phase:string -> int
(** Runs of [phase] served by the record's valid prefix (span-relative:
    a shard session counts runs of its own span). *)

val complete : session -> phase:string -> bool

val set_fail_after : session -> int -> unit
(** Crash-injection hook: allow this many more checkpoint appends, then
    raise {!Injected_crash} (see the exception above). *)

(** {1 Chunk-granular access}

    The lookup/persist pair handed to {!Parallel.init_checkpointed}.
    [lookup] only serves exact layout matches; [persist] appends at the
    record's write frontier for that phase (out-of-order appends and
    appends outside the session span are rejected with [Invalid_argument]
    — the checkpoint driver calls in ascending order by construction).

    [persist] additionally polls the {!Shutdown} flag {e after} the
    chunk's flush: a SIGINT/SIGTERM (with {!Shutdown.install}ed handlers)
    stops the campaign at the next checkpoint barrier by raising
    {!Shutdown.Interrupted}, leaving the record a clean, resumable prefix
    — never a torn tail. *)

val lookup : session -> phase:string -> lo:int -> len:int -> float array option
val persist : session -> phase:string -> lo:int -> float array -> unit
val persist_trails : session -> phase:string -> lo:int -> trail array -> unit

(** {1 Collect drivers} *)

val collect :
  ?trace:Trace.t ->
  ?jobs:int ->
  session ->
  phase:string ->
  int ->
  (int -> float) ->
  float array
(** [collect session ~phase runs f] — the checkpointed fault-free
    measurement pass: cached chunks are served without calling [f],
    missing chunks are computed on the domain pool and appended at their
    checkpoint barrier.  A shard session walks only its span and returns
    the span's values ([hi - lo] of them; a full session returns all
    [runs]).  Emits one {!Trace.Cache_hit} / {!Trace.Resume} /
    {!Trace.Cache_miss} event and bumps the [cache.runs_cached] /
    [cache.runs_simulated] counters when a trace is attached.

    A fully-cached fault-free span skips the checkpoint walk entirely:
    every chunk decodes independently from its indexed byte range, fanned
    out over the domain pool into one preallocated sample array (the
    result is the same ascending concatenation the sequential walk
    produces, and [f] is never called).  Raises [Invalid_argument] if
    [runs] disagrees with the session. *)

val collect_trails :
  ?trace:Trace.t ->
  ?jobs:int ->
  session ->
  phase:string ->
  int ->
  (int -> trail) ->
  trail array
(** Resilient-campaign counterpart of {!collect}: per-run attempt trails
    instead of bare cycle counts. *)

(** {1 Inspection — the [cache] subcommand} *)

type status =
  | Complete  (** every phase chunk present and valid *)
  | Partial of string  (** valid but unfinished; the payload says how far it got *)
  | Corrupt of string  (** first defect found; the record is unusable as-is *)
  | Unsupported of string
      (** an intact record of another schema, named by the payload; this
          build neither reads nor removes it *)

type entry = {
  file : string;  (** absolute path of the record *)
  entry_key : string;  (** key from the filename *)
  runs : int;
  resilient : bool;
  config : (string * string) list;
  phases : (string * int) list;  (** phase -> runs covered by valid chunks *)
  shard : (int * int) option;  (** [Some (lo, hi)] for a shard record *)
  bytes : int;
  status : status;
}

val ls : ?deep:bool -> t -> entry list
(** List every [*.jsonl] record under the root, sorted by key, followed by
    any [*.jsonl.quarantined] files (always [Corrupt]).

    With [deep = true] (the default, what [cache verify] uses) every
    record is scanned whole: per-line checksums, payload decode, and
    re-deriving the digest from the stored config to compare with the
    filename — a bit-flipped or truncated record, or one filed under
    another record's address, is [Corrupt]; a record torn by a kill
    mid-write is [Partial] (its valid prefix is resumable).  A record of
    another schema is [Unsupported] in both modes, from its meta line
    alone.

    With [deep = false] (what [cache ls] uses) a record with a fresh
    [.idx] sidecar is answered from its meta line and the sidecar alone —
    O(header) per record; records without a fresh sidecar fall back to a
    shallow scan (checksums verified, payloads length-checked but not
    decoded) that rebuilds the sidecar for next time.  The header-only
    path can miss a payload-level defect that postdates the sidecar;
    integrity verdicts belong to [deep]. *)

val gc : ?partial:bool -> t -> entry list * int
(** Remove corrupt records (including quarantined files) — and, with
    [partial = true], incomplete ones (which are otherwise kept: they are
    resumable).  [Unsupported] records are never removed.  Returns the
    removed entries and the bytes freed. *)

val quarantine : t -> key:string -> (unit, string) result
(** Set the record for [key] aside: rename it to [<key>.jsonl.quarantined]
    (which {!ls} lists as [Corrupt] and {!gc} removes) and drop its [.idx]
    sidecar.  This runs under the key's writer lock, so it never touches a
    record that a writer session of this or another process holds: that
    is [Error] naming the holder, with the record and sidecar left as they
    are.  A record of another schema is [Error] too, and left in place; a
    missing record is [Ok]. *)

val pp_entry : Format.formatter -> entry -> unit

(** {1 Merge and export — distributed campaigns} *)

type merge_report = {
  records_merged : int;  (** destination records written or replaced *)
  chunks_merged : int;  (** chunk lines written into destination records *)
  coverage : (string * int) list;
      (** per key: contiguous runs covered from 0 (the min across phases)
          after the merge *)
  contributed : string list;
      (** record files (sources or the prior destination) whose chunks made
          it into a merged record *)
  quarantined : (string * string) list;
      (** record files renamed to [.quarantined], with the integrity
          failure that condemned them *)
  skipped : (string * string) list;
      (** record files of another schema, left in place, with the reason;
          and the source files of a key whose destination holds one *)
}

val merge :
  ?trace:Trace.t ->
  ?fail_after:int ->
  ?sync:bool ->
  src:t list ->
  t ->
  (merge_report, string) result
(** [merge ~src dst] — combine every record found in the source stores
    (and any record already in [dst]) into [dst], key by key:

    - candidates failing any integrity check — line checksum, digest vs
      filename, metadata agreement across siblings, byte-identical
      duplicate chunks — are renamed to [<file>.quarantined] and excluded
      ({e never} merged);
    - records of another schema are skipped and left in place; when the
      destination holds one under a key, that key is not merged;
    - surviving chunks are composed into the maximal contiguous prefix of
      the global chunk layout per phase: a gap (an unrecoverable shard)
      truncates coverage there — partial coverage, never silent wrong data;
    - each destination record is streamed chunk by chunk out of the source
      files into a temp file and renamed into place — peak memory is one
      copy buffer, constant in campaign size — so a coordinator killed
      mid-merge leaves the previous record intact and rerunning the merge
      converges (an already-merged destination is detected from chunk
      digests without re-reading any payload, and left untouched).

    The merged record is byte-identical to the record a single-process
    campaign writes (chunk lines carry no shard information and the merged
    meta line drops the span).  With [trace] attached, bumps
    [cache.records_quarantined] / [cache.records_merged] /
    [cache.chunks_merged] and emits a {!Trace.Note} per quarantined file.
    [fail_after] is the crash-injection budget in chunk lines (raises
    {!Injected_crash}); [sync] fsyncs each temp file before the rename.
    [Error] only when a store directory itself is unreadable or unwritable
    — per-record trouble is reported, not fatal. *)

val export_to : t -> key:string -> out_channel -> (unit, string) result
(** Write the validated contents (meta line plus valid chunk prefix,
    verbatim) of the record for [key] to a channel — for shipping a shard
    store's record over a copy-only channel ([cache export]).  The record
    is validated in full before the first byte is written, and copied in
    bounded pieces, so memory stays constant for million-run records.
    [Error] on a missing, unreadable or tampered record, or one of another
    schema. *)
