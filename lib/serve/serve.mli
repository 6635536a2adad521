(** The transports of the solve service: stdin/stdout and a Unix
    domain socket, each a thin loop around {!Serve_shard.handle_batch}.
    Both call {!Serve_shard.shutdown} once on exit. *)

val run_pipe : ?max_batch:int -> Serve_shard.t -> unit
(** Serve newline-delimited requests from stdin to stdout until EOF or
    a ["shutdown"] request.  Reads are drained greedily, so lines
    already buffered by the kernel form one batch (up to [max_batch],
    default 32) — a client that writes [k] requests at once gets them
    deduplicated and pool-dispatched together. *)

val run_socket : ?max_batch:int -> ?backlog:int -> path:string -> Serve_shard.t -> unit
(** Serve over a Unix domain socket at [path] (created at start,
    unlinked on exit; an existing stale socket file is replaced;
    [backlog], default 16, is the [listen] queue depth).  Multiplexes
    clients with [select]; each client's buffered complete lines form
    one batch, and replies go back on that client's connection.
    Hardened against client death: SIGPIPE is ignored and every
    [select]/[read]/[write]/[accept] retries EINTR, so a client that
    disconnects mid-reply (or a stray signal) costs one connection,
    never the daemon.
    Replies are buffered per client and flushed through the [select]
    writable set — a slow reader never stalls the event loop, and a
    client holding more than 64 MiB of undrained replies is dropped.
    A ["shutdown"] from any client stops the daemon; its pending
    replies get a bounded best-effort flush before the fds close. *)
