(** Per-name circuit breakers over the {!Guard_error} taxonomy.

    A breaker watches one named resource (here: one registered solver)
    for {e consecutive} hard failures — the [Solver_fault] /
    [No_convergence] classes, the ones that burn pool time without
    producing an answer.  After [threshold] of them in a row the
    breaker {e opens}: callers should stop sending work at the name for
    [cooldown_s] seconds and degrade elsewhere (the serve layer walks
    {!Engine.supporting}, the same order Guard's fallback uses).  Once
    the cooldown elapses the breaker goes {e half-open} and {!admit}
    lets exactly one probe through; a success closes it, a failure
    re-opens it for another cooldown.

    Classes that indict the request rather than the solver
    ([Invalid_input], [Infeasible], [Deadline_exceeded]) must not be
    recorded — a stream of bad requests should never open a healthy
    solver's breaker.

    The registry is plain single-threaded state: the serve session
    drives every batch from one loop, so there is nothing to lock.  The
    clock is injectable ([~now]) so tests can walk a breaker through
    its states deterministically.

    Counters: [guard.breaker.trips], [guard.breaker.probes],
    [guard.breaker.rejections]. *)

type t

type config = {
  threshold : int;  (** consecutive hard failures to open (>= 1) *)
  cooldown_s : float;  (** open duration before a half-open probe (>= 0) *)
}

type state = Closed | Open | Half_open

val default_config : config
(** [{threshold = 5; cooldown_s = 5.0}]. *)

val create : ?now:(unit -> float) -> config -> t
(** A fresh registry; [now] defaults to [Unix.gettimeofday].
    @raise Invalid_argument on a non-positive threshold or negative
    cooldown. *)

val admit : t -> string -> bool
(** May work be sent at [name] right now?  [Closed] → yes.  [Open] →
    no, until the cooldown elapses — then the {e first} [admit] claims
    the half-open probe slot (true) and subsequent ones are refused
    until that probe reports via {!record_ok}/{!record_fail}. *)

val record_ok : t -> string -> unit
(** A solve at [name] succeeded: reset its failure run and close the
    breaker (a successful half-open probe is exactly this). *)

val record_fail : t -> string -> unit
(** A hard failure at [name]: extend the failure run; on the
    [threshold]-th consecutive one (or any half-open probe failure)
    open for [cooldown_s].  Callers filter classes — only pass
    solver-indicting failures. *)

val state : t -> string -> state
(** Current state of [name]'s breaker ([Closed] for names never seen).
    [Open] reflects the clock: an expired cooldown reads as
    [Half_open]. *)

val snapshot : t -> (string * state * int) list
(** Every name ever recorded, with its state and current consecutive
    failure count, in name order — the health payload's breaker rows. *)
