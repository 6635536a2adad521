(** The serve session: the whole request path of the solve service.

    A {!t} owns the resident {!Par.Pool} (created once, at {!create} —
    never per request), one {!Serve_cache} LRU and the base
    {!Guard.policy}.  {!handle_batch} is decode, admit or shed, cache,
    dispatch, journal and encode, as a function from request lines to
    reply lines; the tests, the benchmarks and the {!Serve} transports
    all drive it directly.

    Admission control bounds the per-batch inflight depth
    ([max_inflight]); excess requests are shed with a typed
    {!Serve_protocol.busy_payload} reply rather than queued unboundedly
    ([serve.shed] counter, [serve.inflight] gauge).

    With [cache_file], persistence is crash-safe ({!Serve_journal}):
    every cache insert is appended to a CRC-framed write-ahead journal
    (flushed once per batch; fsynced under [fsync]), {!create} replays
    checkpoint ∪ journal, and lag-triggered compaction (plus
    {!shutdown}) folds the journal into an atomically rewritten
    checkpoint.  A SIGKILL loses at most the in-flight batch; torn or
    corrupt lines are skipped on replay, never fatal.

    One {!Serve_batch} supervision state holds the per-solver circuit
    breakers; the ["health"] op reports inflight depth, cache
    occupancy, journal counters and breaker states.

    The daemon never dies on request content: malformed lines, solver
    faults and deadline expiries all become typed error replies (see
    {!Serve_protocol}), and only a ["shutdown"] op (or transport EOF)
    ends a transport loop.

    The module name and the constant ["shards":1] / ["shard":0] reply
    fields remain from an earlier front end that split the cache and
    pool N ways; the benchmark reads [serve_shard.*] metrics under this
    name. *)

type t

type stats = {
  cache : Serve_cache.stats;
  jobs : int;  (** pool width *)
  requests : int;
  batches : int;
  shed : int;  (** requests refused by admission control *)
  max_inflight : int;  (** 0 = unbounded *)
}

val create :
  ?jobs:int ->
  ?cache_capacity:int ->
  ?max_inflight:int ->
  ?policy:Guard.policy ->
  ?cache_file:string ->
  ?fsync:bool ->
  ?compact_every:int ->
  ?breaker:Guard_breaker.config option ->
  ?breaker_now:(unit -> float) ->
  unit ->
  t
(** [jobs] sizes the resident pool (default {!Par.default_jobs},
    clamped per the [Par] contract); [cache_capacity] bounds the LRU
    (default 256); [max_inflight] bounds the per-batch solve depth
    (default 0 = unbounded); [policy] supervises every solve (default
    {!Guard.default} — no deadline unless a request carries one).
    [cache_file] roots the {!Serve_journal} store: the checkpoint lives
    there, the journal beside it at [.journal], and both are replayed
    immediately (corrupt lines skipped).  [fsync] (default false) makes
    the per-batch journal flush power-loss durable; [compact_every]
    (default 1024) is the journal lag that triggers compaction.
    [breaker] configures the circuit breakers
    (default {!Guard_breaker.default_config}; [None] disables);
    [breaker_now] injects the breaker clock for tests.
    @raise Invalid_argument when [jobs < 1], [cache_capacity < 1] or
    [max_inflight < 0]. *)

val handle_batch : t -> string list -> string list
(** One reply line per request line, in order: decode, admit or shed,
    deduplicated batch dispatch (see {!Serve_batch}), journal flush,
    ops answered after solves.  Never raises on request content. *)

val handle_line : t -> string -> string
(** [handle_batch] of a singleton. *)

val stats : t -> stats

val journal_stats : t -> Serve_journal.stats option
(** Durability counters ([None] without [cache_file]). *)

val stopping : t -> bool
(** Set by a ["shutdown"] request; the transports exit their loop once
    the reply is flushed. *)

val shutdown : t -> unit
(** Fold all live entries into the checkpoint (atomic rename + fsync)
    and truncate the journal, close it, then stop the pool workers.
    Idempotent; the transports call it on exit. *)

val abort : t -> unit
(** Stop the pool {e without} compacting — on-disk state is left
    exactly as the last batch flushed it, as a SIGKILL would.  For
    crash-recovery tests and benchmarks. *)
