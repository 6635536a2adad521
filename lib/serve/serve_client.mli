(** The client side of the serve protocol, behind [pasched client],
    [pasched soak] and the [serve_soak_100k] bench section. *)

(** {1 Connection} *)

type t
(** A client of one daemon socket.  The connection opens on first use
    and is kept; a failure drops it and the next call reconnects.
    Replies are split by scanning the read buffer from an offset, in
    time linear in their bytes.  Connecting ignores SIGPIPE for the
    process, so a dead daemon surfaces as [EPIPE], not a signal. *)

val create : string -> t
(** A client of the socket at this path; nothing is opened yet. *)

val send : t -> string list -> unit
(** Write the lines, newline-terminated, and read nothing. *)

val exchange : t -> string list -> string list
(** Send the lines and read one reply line per line, in order.
    @raise Failure when the connect is refused or the daemon closes the
    connection early; [Unix.Unix_error] on a failed read or write. *)

val close : t -> unit

(** {1 Retry} *)

type backoff
(** Capped exponential backoff with decorrelated jitter: each sleep is
    uniform in [[base, 3 × previous]], clamped to [cap], which spreads
    a fleet of clients apart so that their retries do not re-create the
    overload that shed them.  Seeded, so reproducible. *)

val backoff : ?cap_ms:float -> ?seed:int -> base_ms:float -> unit -> backoff
(** [cap_ms] defaults to [10_000.], [seed] to 0.
    @raise Invalid_argument when [base_ms <= 0] or [cap_ms < base_ms]. *)

val next_ms : backoff -> float
(** The next sleep in milliseconds. *)

val is_transient_reply : string -> bool
(** True exactly for ["busy"] (admission shed) and ["degraded"]
    (breaker cooldown): the statuses that clear on their own. *)

val exchange_with_retry :
  exchange:(string list -> string list) -> backoff:backoff -> retries:int -> string list -> string list
(** [exchange] with up to [retries] resends, each after a {!next_ms}
    sleep.  A transport failure ([Failure] or [Unix.Unix_error]) resends
    every line; transient replies resend only their own lines, merged
    back in request order.  Safe because solve requests are idempotent
    by canonical key.  With the budget spent, the last replies are
    returned and a transport failure is re-raised. *)

val reply_exit_code : string -> int
(** The [pasched client] exit code of a reply: 0 for ok; 7 for the
    busy/degraded statuses and the busy/breaker-open classes;
    {!Guard_error.exit_code_of_class} of an error class; else 6. *)

(** {1 Child daemon} *)

type daemon

val with_daemon : exe:string -> socket:string -> string list -> (daemon -> 'a) -> 'a
(** [with_daemon ~exe ~socket args f] runs [exe serve --socket socket
    args] by [Unix.create_process] (never [fork]: OCaml 5 forbids it
    once other domains exist), stdin and stdout on [/dev/null], waits
    until it answers a ping (200 tries, 50 ms apart), and applies [f].
    The child is SIGKILLed and reaped on every exit path, unless [f]
    reaped it already.
    @raise Failure when it never answers. *)

val reap : daemon -> Unix.process_status
(** Wait for the child to exit; later calls return the same status. *)

(** {1 Soak} *)

val emit_requests : alpha:float -> batch:int -> Workload.Stream.t -> (string -> unit) -> unit
(** The soak workload of [pasched sim --emit-requests]: one makespan
    request per [batch] consecutive jobs, ids from 0, releases relative
    to the batch's first job, budget twice the batch's work.  A short
    batch is the last. *)

type chaos = { exe : string; socket : string; serve_args : string list; kill_at : float }
(** A kill-chaos drill.  The soak spawns [exe serve --socket socket
    serve_args], SIGKILLs and restarts it before window
    [kill_at × windows], and after the run resends up to 512 requests
    answered ok before the kill: their replies must not change.  The
    soak's [exchange] must retry against [socket] to mask the outage. *)

type recovery = {
  killed_window : int;
  pre_cache : int;  (** cache entries just before the kill *)
  post_cache : int;  (** cache entries after the restart's journal replay *)
  replayed : int;
  skipped_corrupt : int;
  warm_fraction : float;  (** [post_cache / pre_cache], 1 when [pre_cache = 0] *)
  recheck : int;
  mismatches : int;  (** resent requests whose reply changed *)
}

type report = {
  requests : int;
  ok : int;
  busy : int;  (** ["busy"] and ["degraded"] replies *)
  errors : int;
  latency : Streaming_metrics.snapshot;  (** a window's send-to-last-reply seconds *)
  wall_s : float;
  recovery : recovery option;  (** [Some] exactly under [chaos] *)
}

val soak :
  ?window:int -> ?chaos:chaos -> exchange:(string list -> string list) -> string list -> report
(** Drive [exchange] over the lines, [window] (default 64) at a time:
    [Serve_shard.handle_batch] in-process, a retrying {!exchange} over
    a socket.  Under [chaos] the daemon is killed and reaped on every
    exit path.
    @raise Invalid_argument when [window < 1]. *)

val check_recovery : recovery -> unit
(** @raise Failure when under 90% of the pre-kill cache came back or a
    rechecked reply changed. *)
