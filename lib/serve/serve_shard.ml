type t = {
  pool : Par.Pool.t;
  cache : Serve_cache.t;
  policy : Guard.policy;
  max_inflight : int;  (* 0 = unbounded *)
  journal : Serve_journal.t option;
  state : Serve_batch.state;
  mutable last_inflight : int;  (* solve depth of the last batch *)
  mutable requests : int;
  mutable batches : int;
  mutable shed : int;
  mutable stop : bool;
}

type stats = {
  cache : Serve_cache.stats;
  jobs : int;
  requests : int;
  batches : int;
  shed : int;
  max_inflight : int;
}

let c_requests = Obs.counter "serve.requests"
let c_batches = Obs.counter "serve.batches"
let c_shed = Obs.counter "serve.shed"
let g_inflight = Obs.gauge "serve.inflight"

let create ?jobs ?(cache_capacity = 256) ?(max_inflight = 0) ?(policy = Guard.default)
    ?cache_file ?(fsync = false) ?(compact_every = 1024) ?breaker ?breaker_now () =
  if max_inflight < 0 then invalid_arg "Serve_shard.create: max_inflight must be >= 0";
  let journal =
    Option.map (fun path -> Serve_journal.open_ ~fsync ~compact_every ~path ()) cache_file
  in
  let cache = Serve_cache.create ~capacity:cache_capacity in
  (* recover checkpoint ∪ journal; torn or corrupt lines are skipped,
     never fatal *)
  Option.iter
    (fun j ->
      Serve_journal.replay j (fun ~canon payload ->
          Serve_cache.insert cache ~hash:(Serve_key.hash canon) ~canon payload))
    journal;
  {
    pool = Par.Pool.create ?jobs ();
    cache;
    policy;
    max_inflight;
    journal;
    state = Serve_batch.create_state ?now:breaker_now ?breaker ();
    last_inflight = 0;
    requests = 0;
    batches = 0;
    shed = 0;
    stop = false;
  }

let stats (t : t) =
  {
    cache = Serve_cache.stats t.cache;
    jobs = Par.Pool.jobs t.pool;
    requests = t.requests;
    batches = t.batches;
    shed = t.shed;
    max_inflight = t.max_inflight;
  }

let journal_stats (t : t) = Option.map Serve_journal.stats t.journal

let stopping (t : t) = t.stop

(* every live entry LRU→MRU, so a checkpoint replays recency faithfully *)
let compact (t : t) j =
  try Serve_journal.compact j ~entries:(Serve_cache.to_list t.cache) with Sys_error _ -> ()

let abort (t : t) =
  Option.iter Serve_journal.close t.journal;
  Par.Pool.shutdown t.pool

let shutdown (t : t) =
  Option.iter (compact t) t.journal;
  abort t

(* "shards":1 stays on the wire (here, in health and in the busy reply)
   as a constant, so existing clients parse these replies unchanged *)
let stats_payload t =
  let s = stats t in
  let open Obs_json in
  [
    ("status", String "ok");
    ( "stats",
      Obj
        [
          ("hits", Int s.cache.Serve_cache.hits);
          ("misses", Int s.cache.Serve_cache.misses);
          ("evictions", Int s.cache.Serve_cache.evictions);
          ("size", Int s.cache.Serve_cache.size);
          ("capacity", Int s.cache.Serve_cache.capacity);
          ("jobs", Int s.jobs);
          ("requests", Int s.requests);
          ("batches", Int s.batches);
          ("shards", Int 1);
          ("shed", Int s.shed);
          ("max_inflight", Int s.max_inflight);
        ] );
  ]

(* the supervision view: load and cache occupancy, journal durability
   counters, breaker states — what an operator (or the kill-chaos
   drill) polls to decide the daemon is healthy *)
let health_payload (t : t) =
  let open Obs_json in
  let breaker_rows =
    match Serve_batch.breaker_of t.state with
    | None -> []
    | Some br ->
      List.map
        (fun (name, st, failures) ->
          Obj
            [
              ("solver", String name);
              ( "state",
                String
                  (match st with
                  | Guard_breaker.Closed -> "closed"
                  | Guard_breaker.Open -> "open"
                  | Guard_breaker.Half_open -> "half-open") );
              ("failures", Int failures);
            ])
        (Guard_breaker.snapshot br)
  in
  let journal =
    match journal_stats t with
    | None -> Null
    | Some js ->
      Obj
        [
          ("appends", Int js.Serve_journal.appends);
          ("replayed", Int js.Serve_journal.replayed);
          ("skipped_corrupt", Int js.Serve_journal.skipped_corrupt);
          ("compactions", Int js.Serve_journal.compactions);
          ("lag", Int js.Serve_journal.lag);
        ]
  in
  let c = Serve_cache.stats t.cache in
  [
    ("status", String "ok");
    ( "health",
      Obj
        [
          ("shards", Int 1);
          ("inflight", List [ Int t.last_inflight ]);
          ( "cache",
            Obj [ ("size", Int c.Serve_cache.size); ("capacity", Int c.Serve_cache.capacity) ] );
          ("journal", journal);
          ("breakers", List breaker_rows);
        ] );
  ]

let handle_batch (t : t) lines =
  let lines = Array.of_list lines in
  let n = Array.length lines in
  t.requests <- t.requests + n;
  t.batches <- t.batches + 1;
  Obs.add c_requests n;
  Obs.incr c_batches;
  let decoded = Array.map Serve_protocol.decode lines in
  let ids =
    Array.map
      (function
        | Ok (r : Serve_protocol.request) -> r.Serve_protocol.id
        | Error (id, _) -> id)
      decoded
  in
  let payloads : (string * Obs_json.t) list option array = Array.make n None in
  (* admit in request order; admission sheds everything past the
     inflight bound with an immediate typed busy reply *)
  let admitted = ref [] and depth = ref 0 in
  Array.iteri
    (fun i d ->
      match d with
      | Error (_, e) -> payloads.(i) <- Some (Serve_protocol.error_payload e)
      | Ok { Serve_protocol.op = Serve_protocol.Solve sr; _ } ->
        if t.max_inflight > 0 && !depth >= t.max_inflight then begin
          t.shed <- t.shed + 1;
          Obs.incr c_shed;
          payloads.(i) <- Some Serve_protocol.busy_payload
        end
        else begin
          incr depth;
          admitted := (i, sr) :: !admitted
        end
      | Ok _ -> ())
    decoded;
  t.last_inflight <- !depth;
  Obs.set g_inflight (float_of_int !depth);
  let on_insert =
    Option.map (fun j ~canon payload -> Serve_journal.append j ~canon payload) t.journal
  in
  (match List.rev !admitted with
  | [] -> ()
  | work ->
    let work = Array.of_list work in
    let answers =
      Serve_batch.run ~pool:t.pool ~cache:t.cache ~policy:t.policy ~state:t.state ?on_insert
        (Array.map snd work)
    in
    Array.iteri (fun k (i, _) -> payloads.(i) <- Some answers.(k)) work);
  Obs.set g_inflight 0.0;
  (* write-ahead durability boundary: one flush per served batch puts
     every insert in the OS page cache (SIGKILL-safe; power-loss-safe
     too under --fsync), and lag-triggered compaction keeps replay
     bounded *)
  Option.iter
    (fun j ->
      (try Serve_journal.flush j with Sys_error _ -> ());
      if Serve_journal.needs_compact j then compact t j)
    t.journal;
  (* ops answer after the batch's solves, so an in-batch "stats" (or
     "health") observes them *)
  Array.iteri
    (fun i d ->
      match d with
      | Ok { Serve_protocol.op = Serve_protocol.Stats; _ } ->
        payloads.(i) <- Some (stats_payload t)
      | Ok { Serve_protocol.op = Serve_protocol.Health; _ } ->
        payloads.(i) <- Some (health_payload t)
      | Ok { Serve_protocol.op = Serve_protocol.Ping; _ } ->
        payloads.(i) <- Some [ ("status", Obs_json.String "ok"); ("pong", Obs_json.Bool true) ]
      | Ok { Serve_protocol.op = Serve_protocol.Shutdown; _ } ->
        t.stop <- true;
        payloads.(i) <-
          Some [ ("status", Obs_json.String "ok"); ("stopping", Obs_json.Bool true) ]
      | Ok { Serve_protocol.op = Serve_protocol.Solve _; _ } | Error _ -> ())
    decoded;
  Array.to_list
    (Array.mapi
       (fun i id ->
         let payload =
           match payloads.(i) with
           | Some p -> p
           | None ->
             Serve_protocol.error_payload
               (Guard_error.Solver_fault
                  { solver = "serve"; exn = Failure "internal: unanswered request" })
         in
         Serve_protocol.reply_string ~id payload)
       ids)

let handle_line t line = match handle_batch t [ line ] with [ r ] -> r | _ -> assert false
