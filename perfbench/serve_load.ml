(* The socket-served workloads, serve_cold and serve_hot.

   The built `pasched.exe serve` daemon runs as a child process
   (Unix.create_process, never fork) with its socket and --cache-file
   store in a fresh directory under the working directory.  One client
   connection drives it in a closed loop: write a pre-encoded window of
   64 requests, read until 64 reply lines have arrived, repeat.  During
   the timed phase the client only writes bytes, counts newlines and
   stamps times; requests are generated in blocks before their windows
   are timed, and replies are checked after, with the clock stopped.

   The clock is the CPU time of the client and the daemon together.
   Both are pinned to one CPU, the quietest at start-up, and take turns
   in the closed loop, so on an otherwise idle CPU this clock and the
   wall clock agree (the disk waits of the journal's checkpoint fsync
   aside, which it does not count); when other processes or tenants
   take the CPU, only this clock stays put.

   Every reply must be status "ok", carry its own id, and be
   byte-identical to the reply an in-process Serve_shard session with
   the daemon's configuration gives to the same window.  A traced run
   also replays its first [traced_blocks] blocks through every serve
   layer's public functions one stage at a time (see [Stages]) and
   through an Obs-enabled session; replaying every block would make a
   traced run four times as long as the timed phase. *)

let window = 64
let block_requests = 8_192
let cache_capacity = 256 (* the daemon's default --cache *)
let hot_size = 128 (* smaller than the cache, so every repeat hits *)
let setups = 11
let traced_blocks = 4 (* blocks a traced run replays layer by layer *)

(* the daemon's flags, besides --socket and --cache-file *)
let daemon_flags = [ "--jobs"; "1"; "--max-batch"; string_of_int window ]

(* ---------------- requests ---------------- *)

(* One request line, in exactly the shape `pasched sim --emit-requests
   5` prints: window-relative releases, budget twice the window's
   work. *)
let request_line ~id ~budget pairs =
  let open Obs_json in
  to_string
    (Obj
       [
         ("id", Int id);
         ("op", String "solve");
         ("objective", String "makespan");
         ("alpha", Float 3.0);
         ("budget", Float budget);
         ("jobs", List (List.map (fun (r, w) -> List [ Float r; Float w ]) pairs));
       ])

(* the sim command's default trace: diurnal arrivals, Pareto sizes *)
let trace seed =
  Workload.Stream.make ~seed
    ~size:(Workload.Stream.Pareto { shape = 2.2; scale = 0.5 })
    (Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 1000.0 })

(* the next 5-job instance of the trace: (budget, release-ordered pairs) *)
let next_instance s =
  let jobs = Workload.Stream.take s 5 in
  let r0 = (List.hd jobs).Job.release in
  let total = List.fold_left (fun acc (j : Job.t) -> acc +. j.Job.work) 0.0 jobs in
  (2.0 *. total, List.map (fun (j : Job.t) -> (j.Job.release -. r0, j.Job.work)) jobs)

(* a request source: the next (id, line) of the workload *)
type source = unit -> int * string

let cold_source seed : source =
  let s = trace seed in
  let id = ref (-1) in
  fun () ->
    incr id;
    let budget, pairs = next_instance s in
    (!id, request_line ~id:!id ~budget pairs)

(* the hot set: the trace's first [hot_size] instances *)
let hot_set seed =
  let s = trace seed in
  Array.init hot_size (fun _ -> next_instance s)

let hot_preload hot = Array.mapi (fun id (budget, pairs) -> (id, request_line ~id ~budget pairs)) hot

(* Zipf(1) draws over the hot set; each repeat lists its jobs in a
   fresh shuffled order under a fresh id *)
let hot_source seed hot : source =
  let rng = Rng.make (seed lxor 0x5bd1e995) in
  let n = Array.length hot in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  let pick () =
    let u = Rng.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let id = ref (n - 1) in
  fun () ->
    incr id;
    let budget, pairs = hot.(pick ()) in
    let a = Array.of_list pairs in
    for i = Array.length a - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    (!id, request_line ~id:!id ~budget (Array.to_list a))

(* ---------------- daemon and connection ---------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type daemon = { pid : int; dir : string; fd : Unix.file_descr; mutable alive : bool }

let write_all fd s =
  let len = String.length s in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring fd s !sent (len - !sent)
  done

(* reply buffer, grown on demand *)
let rbuf = ref (Bytes.create (1 lsl 20))

(* Send [payload] (k newline-terminated requests) and read until k
   replies are in.  After each read that completes replies a..b-1,
   [arrived a b] is called.  The closed loop guarantees nothing else is
   in flight, so the bytes read are exactly the k replies. *)
let exchange fd payload k arrived =
  write_all fd payload;
  let len = ref 0 and got = ref 0 in
  while !got < k do
    if Bytes.length !rbuf - !len < 65_536 then begin
      let b = Bytes.create (2 * Bytes.length !rbuf) in
      Bytes.blit !rbuf 0 b 0 !len;
      rbuf := b
    end;
    let n = Unix.read fd !rbuf !len (Bytes.length !rbuf - !len) in
    if n = 0 then failwith "daemon closed the connection";
    let stop = !len + n in
    let before = !got in
    let rec scan i =
      match Bytes.index_from_opt !rbuf i '\n' with
      | Some j when j < stop ->
        incr got;
        scan (j + 1)
      | _ -> ()
    in
    scan !len;
    if !got > before then arrived before !got;
    len := stop
  done;
  Bytes.sub_string !rbuf 0 !len

let lines_of raw = List.filter (fun l -> l <> "") (String.split_on_char '\n' raw)

let call fd line =
  match lines_of (exchange fd (line ^ "\n") 1 (fun _ _ -> ())) with
  | [ r ] -> r
  | _ -> failwith "expected one reply line"

let spawn ~pasched ~dir =
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let args =
    Array.of_list
      ([ pasched; "serve"; "--socket"; sock; "--cache-file"; Filename.concat dir "d.store" ]
      @ daemon_flags)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process pasched args devnull devnull Unix.stderr in
  Unix.close devnull;
  (* connect as soon as the socket accepts, then wait for a ping reply *)
  let give_up = Util.wall () +. 30.0 in
  let rec connect () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "daemon exited during start-up");
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if Util.wall () > give_up then failwith "daemon never accepted a connection";
      Unix.sleepf 0.0002;
      connect ()
  in
  let fd = connect () in
  let d = { pid; dir; fd; alive = true } in
  (d, call fd {|{"op":"ping"}|})

let kill d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.close d.fd with Unix.Unix_error _ -> ());
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
  end;
  rm_rf d.dir

(* orderly stop: the shutdown op, then the exit status *)
let shutdown d =
  let reply = call d.fd {|{"op":"shutdown"}|} in
  Unix.close d.fd;
  let _, status = Unix.waitpid [] d.pid in
  d.alive <- false;
  rm_rf d.dir;
  (reply, status)

let field path doc =
  List.fold_left (fun acc k -> Option.bind acc (Obs_json.member k)) (Some doc) path

let int_field path reply =
  match Obs_json.of_string reply with
  | Ok doc -> Option.value ~default:(-1) (Option.bind (field path doc) Obs_json.to_int)
  | Error _ -> -1

let status_of reply =
  match Obs_json.of_string reply with
  | Ok doc -> Option.bind (Obs_json.member "status" doc) Obs_json.to_string_val
  | Error _ -> None

(* ---------------- per-stage replay (traced runs) ---------------- *)

(* Each block is replayed through the serve layers' public functions,
   one stage at a time, on state that mirrors the daemon's: an LRU of
   the same capacity, a journal with the same compaction lag, and a
   Serve_batch with its own cache.  Times are seconds summed over the
   run; the per-request figures divide by [requests]. *)
module Stages = struct
  type t = {
    cache : Serve_cache.t;
    journal : Serve_journal.t;
    bcache : Serve_cache.t;
    pool : Par.Pool.t;
    bstate : Serve_batch.state;
    engine : (string, float ref * int ref) Hashtbl.t;  (* solver -> seconds, solves *)
    mutable requests : int;
    mutable parse : float;
    mutable decode : float;
    mutable decode_w : float;
    mutable key : float;
    mutable find : float;
    mutable insert : float;
    mutable inserts : int;
    mutable solve_w : float;
    mutable solves : int;
    mutable ok_payload : float;
    mutable encode_w : float;
    mutable reply : float;
    mutable reply_bytes : int;
    mutable append : float;
    mutable appends : int;
    mutable append_bytes : int;
    mutable flush : float;
    mutable compact : float;
    mutable compacts : int;
    mutable dispatch : float;
    mutable uniques : int;
  }

  let create ~dir =
    {
      cache = Serve_cache.create ~capacity:cache_capacity;
      journal = Serve_journal.open_ ~path:(Filename.concat dir "stages.store") ();
      bcache = Serve_cache.create ~capacity:cache_capacity;
      pool = Par.Pool.create ~jobs:1 ();
      bstate = Serve_batch.create_state ();
      engine = Hashtbl.create 4;
      requests = 0;
      parse = 0.0;
      decode = 0.0;
      decode_w = 0.0;
      key = 0.0;
      find = 0.0;
      insert = 0.0;
      inserts = 0;
      solve_w = 0.0;
      solves = 0;
      ok_payload = 0.0;
      encode_w = 0.0;
      reply = 0.0;
      reply_bytes = 0;
      append = 0.0;
      appends = 0;
      append_bytes = 0;
      flush = 0.0;
      compact = 0.0;
      compacts = 0;
      dispatch = 0.0;
      uniques = 0;
    }

  let close st =
    Serve_journal.close st.journal;
    Par.Pool.shutdown st.pool

  let rows_of line =
    let num v = Option.get (Obs_json.to_float v) in
    match Obs_json.of_string line with
    | Ok doc ->
      Array.of_list
        (List.map
           (fun j ->
             match Obs_json.to_list j with
             | Some [ r; w ] ->
               { Serve_key.release = num r; work = num w; weight = None; deadline = None }
             | _ -> failwith "stages: malformed job row")
           (Option.get (Option.bind (Obs_json.member "jobs" doc) Obs_json.to_list)))
    | Error e -> failwith ("stages: " ^ e)

  (* one window; [record] false replays without accumulating (preload) *)
  let window st chk ~record (lines : string array) =
    let n = Array.length lines in
    let add f dt = if record then f dt in
    Array.iter
      (fun l ->
        let _, dt = Util.time (fun () -> Obs_json.of_string l) in
        add (fun dt -> st.parse <- st.parse +. dt) dt)
      lines;
    let reqs =
      Array.map
        (fun l ->
          let r, dt, w = Util.measure (fun () -> Serve_protocol.decode l) in
          add
            (fun dt ->
              st.decode <- st.decode +. dt;
              st.decode_w <- st.decode_w +. w)
            dt;
          match r with
          | Ok { Serve_protocol.id; op = Serve_protocol.Solve sr } -> (id, sr)
          | _ -> failwith "stages: a request did not decode")
        lines
    in
    Array.iteri
      (fun i (_, (sr : Serve_protocol.solve_request)) ->
        let rows = rows_of lines.(i) in
        let (canon, hash), dt =
          Util.time (fun () ->
              let c = Serve_key.canonical_jobs rows in
              let pairs = Array.map (fun (r : Serve_key.row) -> (r.Serve_key.release, r.Serve_key.work)) c in
              let canon =
                Serve_key.canon ~solver:sr.Serve_protocol.solver ~points:sr.Serve_protocol.points
                  sr.Serve_protocol.problem pairs
              in
              (canon, Serve_key.hash canon))
        in
        add (fun dt -> st.key <- st.key +. dt) dt;
        Util.check chk
          (canon = sr.Serve_protocol.canon && hash = sr.Serve_protocol.hash)
          (lazy "stages: Serve_key disagrees with the decoded request's key"))
      reqs;
    (* cache probes for the whole window first, as Serve_batch does *)
    let found =
      Array.map
        (fun (_, (sr : Serve_protocol.solve_request)) ->
          let r, dt = Util.time (fun () -> Serve_cache.find st.cache ~hash:sr.hash ~canon:sr.canon) in
          add (fun dt -> st.find <- st.find +. dt) dt;
          r)
        reqs
    in
    let fresh = Hashtbl.create 16 in
    let order = ref [] in
    Array.iteri
      (fun i (_, (sr : Serve_protocol.solve_request)) ->
        if found.(i) = None && not (Hashtbl.mem fresh sr.canon) then begin
          Hashtbl.add fresh sr.canon None;
          order := sr :: !order
        end)
      reqs;
    let order = List.rev !order in
    let engine_dt = ref 0.0 in
    List.iter
      (fun (sr : Serve_protocol.solve_request) ->
        let s =
          match Engine.supporting sr.problem sr.inst with
          | s :: _ -> s
          | [] -> failwith "stages: no solver accepts a request"
        in
        let r, dt, w = Util.measure (fun () -> Engine.solve_with s sr.problem sr.inst) in
        engine_dt := !engine_dt +. dt;
        add
          (fun dt ->
            let name = Engine.name_of s in
            let secs, count =
              match Hashtbl.find_opt st.engine name with
              | Some e -> e
              | None ->
                let e = (ref 0.0, ref 0) in
                Hashtbl.add st.engine name e;
                e
            in
            secs := !secs +. dt;
            incr count;
            st.solve_w <- st.solve_w +. w;
            st.solves <- st.solves + 1)
          dt;
        let payload, dt, w = Util.measure (fun () -> Serve_protocol.ok_payload ~points:sr.points r) in
        add
          (fun dt ->
            st.ok_payload <- st.ok_payload +. dt;
            st.encode_w <- st.encode_w +. w)
          dt;
        Hashtbl.replace fresh sr.canon (Some payload))
      order;
    List.iter
      (fun (sr : Serve_protocol.solve_request) ->
        let payload = Option.get (Hashtbl.find fresh sr.canon) in
        let (), dt = Util.time (fun () -> Serve_cache.insert st.cache ~hash:sr.hash ~canon:sr.canon payload) in
        add
          (fun dt ->
            st.insert <- st.insert +. dt;
            st.inserts <- st.inserts + 1)
          dt;
        let (), dt = Util.time (fun () -> Serve_journal.append st.journal ~canon:sr.canon payload) in
        add
          (fun dt ->
            st.append <- st.append +. dt;
            st.appends <- st.appends + 1;
            st.append_bytes <-
              st.append_bytes + String.length (Serve_journal.encode_line ~canon:sr.canon payload) + 1)
          dt)
      order;
    let (), dt = Util.time (fun () -> Serve_journal.flush st.journal) in
    add (fun dt -> st.flush <- st.flush +. dt) dt;
    if Serve_journal.needs_compact st.journal then begin
      let (), dt =
        Util.time (fun () -> Serve_journal.compact st.journal ~entries:(Serve_cache.to_list st.cache))
      in
      add
        (fun dt ->
          st.compact <- st.compact +. dt;
          st.compacts <- st.compacts + 1)
        dt
    end;
    let replies =
      Array.mapi
        (fun i (id, (sr : Serve_protocol.solve_request)) ->
          let payload =
            match found.(i) with Some p -> p | None -> Option.get (Hashtbl.find fresh sr.canon)
          in
          let s, dt, w = Util.measure (fun () -> Serve_protocol.reply_string ~id payload) in
          add
            (fun dt ->
              st.reply <- st.reply +. dt;
              st.encode_w <- st.encode_w +. w;
              st.reply_bytes <- st.reply_bytes + String.length s)
            dt;
          s)
        reqs
    in
    (* the dispatch core on its own cache: its time minus the engine
       time of the same misses is the dispatch overhead *)
    let answers, dt =
      Util.time (fun () ->
          Serve_batch.run ~pool:st.pool ~cache:st.bcache ~policy:Guard.default ~state:st.bstate
            (Array.map snd reqs))
    in
    add
      (fun dt ->
        st.dispatch <- st.dispatch +. (dt -. !engine_dt);
        st.uniques <- st.uniques + List.length order;
        st.requests <- st.requests + n)
      dt;
    Array.iteri
      (fun i (id, _) ->
        Util.check chk
          (Serve_protocol.reply_string ~id answers.(i) = replies.(i))
          (lazy "stages: Serve_batch.run and the stage-by-stage replay disagree"))
      reqs
end

(* ---------------- the workload ---------------- *)

type timed = {
  mutable secs : float;  (* summed window round trips, wall clock: the run length *)
  mutable cpu : float;  (* the same round trips, client + daemon CPU time *)
  mutable sent : int;
  mutable blocks : (float * float * float) list;  (* per block: requests/s, p50, p99 *)
  mutable lat : float array;  (* per-request write -> reply read, seconds *)
}

let push_lat tm v =
  if tm.sent >= Array.length tm.lat then begin
    let a = Array.make (2 * Array.length tm.lat) 0.0 in
    Array.blit tm.lat 0 a 0 tm.sent;
    tm.lat <- a
  end;
  tm.lat.(tm.sent) <- v;
  tm.sent <- tm.sent + 1

let concat_window lines = String.concat "\n" (Array.to_list lines) ^ "\n"

let windows_of (reqs : (int * string) array) =
  let n = Array.length reqs in
  List.init ((n + window - 1) / window) (fun w ->
      Array.sub reqs (w * window) (Int.min window (n - (w * window))))

let run ~pasched ~seed ~seconds ~trace ~hot =
  let chk = Util.checker () in
  let root = Printf.sprintf ".perfbench_tmp/%d-%s" (Unix.getpid ()) (if hot then "hot" else "cold") in
  (try Unix.mkdir ".perfbench_tmp" 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  rm_rf root;
  Unix.mkdir root 0o700;
  let live = ref [] in
  let cleanup () =
    List.iter kill !live;
    rm_rf root;
    try Unix.rmdir ".perfbench_tmp" with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  ignore (Util.pin_quietest_cpu ());
  let hot_set = if hot then hot_set seed else [||] in
  let preload = windows_of (hot_preload hot_set) in
  (* set-up: spawn, first ping reply, hot preload, in client + daemon
     CPU time; done [setups] times on fresh stores, the last daemon is
     the one measured *)
  let setup_times = Array.make setups 0.0 in
  let daemon = ref None in
  for k = 0 to setups - 1 do
    let t0 = Util.cpu () in
    let d, pong = spawn ~pasched ~dir:(Filename.concat root (Printf.sprintf "daemon%d" k)) in
    live := d :: !live;
    Util.check chk (status_of pong = Some "ok") (lazy ("ping reply: " ^ pong));
    List.iter
      (fun w ->
        let replies = lines_of (exchange d.fd (concat_window (Array.map snd w)) (Array.length w) (fun _ _ -> ())) in
        List.iter
          (fun r -> Util.check chk (status_of r = Some "ok") (lazy ("preload reply: " ^ r)))
          replies)
      preload;
    setup_times.(k) <- Util.cpu () -. t0 +. Util.cpu_of d.pid;
    if k < setups - 1 then begin
      let reply, status = shutdown d in
      live := List.filter (fun x -> x != d) !live;
      Util.check chk (status = Unix.WEXITED 0 && status_of reply = Some "ok")
        (lazy "set-up daemon did not shut down cleanly")
    end
    else daemon := Some d
  done;
  let d = Option.get !daemon in
  let clock () = Util.cpu () +. Util.cpu_of d.pid in
  (* the in-process session every reply is checked against *)
  let ref_dir = Filename.concat root "ref" in
  Unix.mkdir ref_dir 0o700;
  let session =
    Serve_shard.create ~jobs:1 ~cache_capacity ~cache_file:(Filename.concat ref_dir "ref.store") ()
  in
  let obs_dir = Filename.concat root "obs" in
  let obs_session =
    if trace then begin
      Unix.mkdir obs_dir 0o700;
      Some (Serve_shard.create ~jobs:1 ~cache_capacity ~cache_file:(Filename.concat obs_dir "obs.store") ())
    end
    else None
  in
  let stages = if trace then Some (Stages.create ~dir:ref_dir) else None in
  Fun.protect
    ~finally:(fun () ->
      Serve_shard.shutdown session;
      Option.iter Serve_shard.shutdown obs_session;
      Option.iter Stages.close stages)
  @@ fun () ->
  List.iter
    (fun w ->
      let lines = Array.map snd w in
      ignore (Serve_shard.handle_batch session (Array.to_list lines));
      Option.iter (fun s -> ignore (Serve_shard.handle_batch s (Array.to_list lines))) obs_session;
      Option.iter (fun st -> Stages.window st chk ~record:false lines) stages)
    preload;
  let stats_before = call d.fd {|{"op":"stats"}|} in
  let source = if hot then hot_source seed hot_set else cold_source seed in
  let tm = { secs = 0.0; cpu = 0.0; sent = 0; blocks = []; lat = Array.make 65_536 0.0 } in
  (* the replayed blocks: requests, socket CPU, session CPU, Obs-on CPU *)
  let rep_n = ref 0 and rep_cpu = ref 0.0 and session_s = ref 0.0 and obs_s = ref 0.0 in
  let blocks_run = ref 0 in
  let counters = Hashtbl.create 8 in
  while tm.secs < seconds do
    let windows = windows_of (Array.init block_requests (fun _ -> source ())) in
    let payloads = List.map (fun w -> concat_window (Array.map snd w)) windows in
    (* timed: write, count reply lines, stamp *)
    let done_ = ref [] in
    let cpu0 = tm.cpu and sent0 = tm.sent in
    List.iter2
      (fun w payload ->
        if tm.secs < seconds then begin
          let w0 = Util.wall () in
          let t0 = clock () in
          let raw =
            exchange d.fd payload (Array.length w) (fun a b ->
                let t = clock () in
                for _ = a to b - 1 do
                  push_lat tm (t -. t0)
                done)
          in
          tm.cpu <- tm.cpu +. (clock () -. t0);
          tm.secs <- tm.secs +. (Util.wall () -. w0);
          done_ := (w, raw) :: !done_
        end)
      windows payloads;
    (* a block cut short by the deadline still counts if it ran a
       quarter of its windows *)
    if 4 * (tm.sent - sent0) >= block_requests then begin
      let lat = Array.sub tm.lat sent0 (tm.sent - sent0) in
      tm.blocks <-
        (float_of_int (tm.sent - sent0) /. (tm.cpu -. cpu0), Util.quantile lat 0.5, Util.quantile lat 0.99)
        :: tm.blocks
    end;
    (* clock stopped: check every reply, then, for the first blocks of a
       traced run, the layer-by-layer replays *)
    let replay = trace && !blocks_run < traced_blocks in
    incr blocks_run;
    if replay then begin
      rep_n := !rep_n + tm.sent - sent0;
      rep_cpu := !rep_cpu +. (tm.cpu -. cpu0)
    end;
    List.iter
      (fun (w, raw) ->
        let lines = Array.to_list (Array.map snd w) in
        let expect, dt = Util.cpu_time (fun () -> Serve_shard.handle_batch session lines) in
        if replay then session_s := !session_s +. dt;
        let got = Array.of_list (lines_of raw) in
        List.iteri
          (fun i exp ->
            let id, _ = w.(i) in
            (* replies lead with the id, then the status *)
            let head = Printf.sprintf {|{"id":%d,"status":"ok",|} id in
            let ok =
              i < Array.length got
              && got.(i) = exp
              && String.length exp > String.length head
              && String.sub exp 0 (String.length head) = head
            in
            if not ok then
              Util.fail chk
                (Printf.sprintf "request %d: reply %S, in-process reply %S" id
                   (if i < Array.length got then got.(i) else "<missing>")
                   exp))
          expect;
        if replay then begin
          Option.iter
            (fun s ->
              Obs.reset ();
              Obs.set_enabled true;
              let _, dt = Util.cpu_time (fun () -> Serve_shard.handle_batch s lines) in
              Obs.set_enabled false;
              obs_s := !obs_s +. dt;
              let snap = Obs.snapshot () in
              List.iter
                (fun name ->
                  let v = Option.value ~default:0 (List.assoc_opt name snap.Obs_metrics.counters) in
                  Hashtbl.replace counters name (v + Option.value ~default:0 (Hashtbl.find_opt counters name)))
                Util.counter_names)
            obs_session;
          Option.iter (fun st -> Stages.window st chk ~record:true (Array.map snd w)) stages
        end)
      (List.rev !done_)
  done;
  let stats_after = call d.fd {|{"op":"stats"}|} in
  let rss = Util.peak_rss_mb (Some d.pid) in
  let reply, status = shutdown d in
  live := [];
  Util.check chk (status_of reply = Some "ok") (lazy ("shutdown reply: " ^ reply));
  Util.check chk (status = Unix.WEXITED 0) (lazy "daemon exited with a non-zero status");
  let delta k = int_field [ "stats"; k ] stats_after - int_field [ "stats"; k ] stats_before in
  let hits = delta "hits" and misses = delta "misses" and evictions = delta "evictions" in
  let n = tm.sent in
  if hot then Util.check chk (hits = n && misses = 0) (lazy (Printf.sprintf "hot: %d hits, %d misses of %d" hits misses n))
  else Util.check chk (hits = 0 && misses = n) (lazy (Printf.sprintf "cold: %d hits, %d misses of %d" hits misses n));
  (* the generator must match the CLI's own request emitter *)
  if not hot then begin
    let out = Filename.concat root "emit.ndjson" in
    let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
    let pid =
      Unix.create_process pasched
        [| pasched; "sim"; "--emit-requests"; "5"; "--count"; "250"; "--seed"; string_of_int seed |]
        Unix.stdin fd Unix.stderr
    in
    Unix.close fd;
    let _, st = Unix.waitpid [] pid in
    let ic = open_in out in
    let cli = List.init 50 (fun _ -> input_line ic) in
    close_in ic;
    let mine = cold_source seed in
    Util.check chk
      (st = Unix.WEXITED 0 && List.for_all (fun l -> snd (mine ()) = l) cli)
      (lazy "request generator differs from `pasched sim --emit-requests 5`")
  end;
  let per_req s = s /. float_of_int !rep_n *. 1e6 in
  let socket_us = per_req !rep_cpu in
  let session_us = per_req !session_s in
  (* medians over blocks, so a burst of machine noise moves one block
     rather than the run *)
  let by_block f = Util.median (Array.of_list (List.map f tm.blocks)) in
  let end_to_end =
    Util.
      [
        m "throughput_rps" "1/s" (by_block (fun (r, _, _) -> r));
        m "latency_p50_ms" "ms" (by_block (fun (_, p, _) -> p) *. 1e3);
        m "latency_p99_ms" "ms" (by_block (fun (_, _, p) -> p) *. 1e3);
        m "peak_rss_mb" "MB" rss;
        m "setup_s" "s" (median setup_times);
      ]
  in
  let per_layer, table =
    match stages with
    | None -> ([], [])
    | Some st ->
      let r = float_of_int st.Stages.requests in
      let us s = s /. r *. 1e6 in
      let per_solve v = if st.Stages.solves = 0 then 0.0 else v /. float_of_int st.Stages.solves in
      let engine_s = Hashtbl.fold (fun _ (s, _) acc -> acc +. !s) st.Stages.engine 0.0 in
      let journal_s = st.Stages.append +. st.Stages.flush +. st.Stages.compact in
      let stage_sum =
        us st.Stages.decode +. us st.Stages.dispatch +. us engine_s +. us st.Stages.reply +. us journal_s
      in
      let unattributed = session_us -. stage_sum in
      let obs_ratio = !obs_s /. !session_s in
      let layer =
        Util.
          [
            m "obs_json.parse_us" "us" (us st.Stages.parse);
            m "serve_protocol.decode_us" "us" (us st.Stages.decode);
            m "serve_protocol.decode_words" "words" (st.Stages.decode_w /. r);
            m "serve_key.key_us" "us" (us st.Stages.key);
            m "serve_cache.find_us" "us" (us st.Stages.find);
            m "serve_cache.insert_us" "us"
              (if st.Stages.inserts = 0 then 0.0 else st.Stages.insert /. float_of_int st.Stages.inserts *. 1e6);
            m "serve_cache.hit_ratio" "ratio"
              (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
            m "serve_cache.evictions" "count" (float_of_int evictions);
            m "serve_batch.dispatch_us" "us" (us st.Stages.dispatch);
            m "serve_batch.unique_ratio" "ratio" (float_of_int st.Stages.uniques /. r);
            m "engine.solve_words" "words" (per_solve st.Stages.solve_w);
            m "serve_protocol.ok_payload_us" "us" (us st.Stages.ok_payload);
            m "serve_protocol.reply_string_us" "us" (us st.Stages.reply);
            m "serve_protocol.encode_words" "words" (st.Stages.encode_w /. r);
            m "serve_protocol.reply_bytes" "bytes" (float_of_int st.Stages.reply_bytes /. r);
            m "serve_journal.append_us" "us"
              (if st.Stages.appends = 0 then 0.0 else st.Stages.append /. float_of_int st.Stages.appends *. 1e6);
            m "serve_journal.flush_us" "us" (us st.Stages.flush);
            m "serve_journal.bytes_per_append" "bytes"
              (if st.Stages.appends = 0 then 0.0
               else float_of_int st.Stages.append_bytes /. float_of_int st.Stages.appends);
            m "serve_journal.compact_ms" "ms"
              (if st.Stages.compacts = 0 then 0.0
               else st.Stages.compact /. float_of_int st.Stages.compacts *. 1e3);
            m "serve_shard.session_us" "us" session_us;
            m "serve_shard.unattributed_share" "share" (unattributed /. session_us);
            m "serve.transport_us" "us" (socket_us -. session_us);
            m "obs.overhead_ratio" "ratio" obs_ratio;
          ]
        @ Hashtbl.fold
            (fun name (s, c) acc -> Util.m ("engine.solve_us." ^ name) "us" (!s /. float_of_int !c *. 1e6) :: acc)
            st.Stages.engine []
        @ List.map
            (fun name ->
              Util.m name "count"
                (per_solve (float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters name)))))
            Util.counter_names
      in
      let row name ?(words = "") ?(count = "") v = Printf.sprintf "  %-34s %10.3f us %12s %10s" name v words count in
      let table =
        [
          Printf.sprintf "stage table (%s, %d requests replayed in-process; per request)"
            (if hot then "serve_hot" else "serve_cold") st.Stages.requests;
          Printf.sprintf "  %-34s %13s %12s %10s" "stage" "time" "words" "count";
          row "decode" ~words:(Printf.sprintf "%.0f" (st.Stages.decode_w /. r)) ~count:(string_of_int st.Stages.requests)
            (us st.Stages.decode);
          row "  of which obs_json parse" (us st.Stages.parse);
          row "  of which serve_key key" (us st.Stages.key);
          row "dispatch (Serve_batch.run - engine)" ~count:(string_of_int st.Stages.uniques) (us st.Stages.dispatch);
          row "  of which cache find" ~count:(string_of_int st.Stages.requests) (us st.Stages.find);
          row "  of which cache insert" ~count:(string_of_int st.Stages.inserts) (us st.Stages.insert);
          row "  of which ok_payload" (us st.Stages.ok_payload);
          row "engine solve" ~words:(Printf.sprintf "%.0f" (st.Stages.solve_w /. r)) ~count:(string_of_int st.Stages.solves)
            (us engine_s);
          row "reply_string" ~words:(Printf.sprintf "%.0f" (st.Stages.encode_w /. r)) (us st.Stages.reply);
          row "journal append+flush+compact" ~count:(string_of_int st.Stages.appends) (us journal_s);
          row "sum of stages" stage_sum;
          row "unattributed (session - sum)" unattributed;
          row "session (Serve_shard.handle_batch)" session_us;
          row "transport (socket - session)" (socket_us -. session_us);
          row "socket per request (1/throughput)" socket_us;
          Printf.sprintf "  transport share %.3f, unattributed share %.3f" ((socket_us -. session_us) /. socket_us)
            (unattributed /. session_us);
        ]
      in
      (layer, table)
  in
  {
    Util.attempted = Int.max 1 n;
    failed = Int.min (Int.max 1 n) chk.Util.fails;
    problems = List.rev chk.Util.notes;
    end_to_end;
    per_layer;
    table =
      Printf.sprintf
        "%s: %d requests (latency samples) in %.3f s of round trips (%.3f s client + daemon CPU), %d blocks; daemon %d hits, %d misses, %d evictions"
        (if hot then "serve_hot" else "serve_cold") n tm.secs tm.cpu (List.length tm.blocks) hits misses evictions
      :: table;
  }
