(* ---------------- connection ---------------- *)

(* Bytes [lo, hi) of [buf] are read but not yet returned as replies and
   [lo, scan) holds no newline, so each byte is scanned once however the
   replies are split across reads. *)
type t = {
  path : string;
  mutable fd : Unix.file_descr option;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable scan : int;
  mutable hi : int;
}

let create path = { path; fd = None; buf = Bytes.create 65536; lo = 0; scan = 0; hi = 0 }

let close t =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.fd;
  t.fd <- None

let connection t =
  match t.fd with
  | Some fd -> fd
  | None ->
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX t.path)
     with Unix.Unix_error (err, _, _) ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       failwith (Printf.sprintf "cannot connect to %s: %s" t.path (Unix.error_message err)));
    t.fd <- Some fd;
    t.lo <- 0;
    t.scan <- 0;
    t.hi <- 0;
    fd

let write_all fd lines =
  let payload = String.concat "\n" lines ^ "\n" in
  let len = String.length payload in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring fd payload !sent (len - !sent)
  done

let rec newline buf i hi =
  if i >= hi then -1 else if Bytes.unsafe_get buf i = '\n' then i else newline buf (i + 1) hi

let rec read_line t fd =
  let nl = newline t.buf t.scan t.hi in
  if nl >= 0 then begin
    let line = Bytes.sub_string t.buf t.lo (nl - t.lo) in
    t.lo <- nl + 1;
    t.scan <- t.lo;
    line
  end
  else begin
    t.scan <- t.hi;
    if t.hi = Bytes.length t.buf then begin
      (* full: slide the unread tail to the front, in a buffer twice its
         size when it fills more than half *)
      let live = t.hi - t.lo in
      let buf = if 2 * live > Bytes.length t.buf then Bytes.create (2 * live) else t.buf in
      Bytes.blit t.buf t.lo buf 0 live;
      t.buf <- buf;
      t.lo <- 0;
      t.scan <- live;
      t.hi <- live
    end;
    let n = Unix.read fd t.buf t.hi (Bytes.length t.buf - t.hi) in
    if n = 0 then failwith "server closed the connection mid-reply";
    t.hi <- t.hi + n;
    read_line t fd
  end

(* a half-written or half-read exchange leaves the stream unusable:
   drop the connection so the next exchange starts on a fresh one *)
let dropping_on_error t f =
  match f (connection t) with
  | v -> v
  | exception e ->
    close t;
    raise e

let send t lines = if lines <> [] then dropping_on_error t (fun fd -> write_all fd lines)

let exchange t lines =
  if lines = [] then []
  else
    dropping_on_error t (fun fd ->
        write_all fd lines;
        List.map (fun _ -> read_line t fd) lines)

let exchange_once ~socket lines =
  let t = create socket in
  Fun.protect ~finally:(fun () -> close t) (fun () -> exchange t lines)

(* ---------------- retry ---------------- *)

type backoff = { base_ms : float; cap_ms : float; rng : Rng.t; mutable prev_ms : float }

let backoff ?(cap_ms = 10_000.) ?(seed = 0) ~base_ms () =
  if base_ms <= 0.0 then invalid_arg "Serve_client.backoff: base_ms must be > 0";
  if cap_ms < base_ms then invalid_arg "Serve_client.backoff: cap_ms must be >= base_ms";
  { base_ms; cap_ms; rng = Rng.make seed; prev_ms = base_ms }

let next_ms b =
  (* decorrelated jitter: uniform in [base, 3*prev], clamped *)
  let hi = Float.max b.base_ms (3.0 *. b.prev_ms) in
  let sleep = Float.min b.cap_ms (b.base_ms +. Rng.float b.rng (hi -. b.base_ms)) in
  b.prev_ms <- sleep;
  sleep

let is_transient_reply line =
  match Serve_protocol.status_of line with Some ("busy" | "degraded") -> true | _ -> false

let exchange_with_retry ~exchange ~backoff ~retries lines =
  let pause () = Unix.sleepf (next_ms backoff /. 1000.0) in
  let rec go lines budget =
    match exchange lines with
    | exception ((Failure _ | Unix.Unix_error _) as e) ->
      if budget <= 0 then raise e;
      pause ();
      go lines (budget - 1)
    | replies ->
      let transient = List.map is_transient_reply replies in
      if budget <= 0 || not (List.mem true transient) then replies
      else begin
        pause ();
        let resend = List.concat (List.map2 (fun l tr -> if tr then [ l ] else []) lines transient) in
        let retried = ref (go resend (budget - 1)) in
        List.map2
          (fun r tr ->
            match !retried with
            | r' :: rest when tr ->
              retried := rest;
              r'
            | _ -> r)
          replies transient
      end
  in
  go lines retries

let reply_exit_code reply =
  match Obs_json.of_string reply with
  | Error _ -> 6
  | Ok doc -> (
    let field k = Option.bind (Obs_json.member k doc) Obs_json.to_string_val in
    match (field "status", field "class") with
    | Some "ok", _ -> 0
    | Some ("busy" | "degraded"), _ | _, Some ("busy" | "breaker-open") -> 7
    | _, Some c -> Option.value ~default:6 (Guard_error.exit_code_of_class c)
    | _, None -> 6)

(* ---------------- child daemon ---------------- *)

type daemon = { pid : int; mutable status : Unix.process_status option }

let rec reap d =
  match d.status with
  | Some s -> s
  | None -> (
    match Unix.waitpid [] d.pid with
    | _, s ->
      d.status <- Some s;
      s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap d)

let kill d =
  if d.status = None then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (reap d) with Unix.Unix_error _ -> ()
  end

let spawn ~exe ~socket args =
  let argv = Array.of_list (exe :: "serve" :: "--socket" :: socket :: args) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process exe argv devnull devnull Unix.stderr)
  in
  let d = { pid; status = None } in
  let rec wait_ready k =
    match exchange_once ~socket [ {|{"op":"ping"}|} ] with
    | _ -> ()
    | exception (Failure _ | Unix.Unix_error _) when k > 1 ->
      Unix.sleepf 0.05;
      wait_ready (k - 1)
    | exception (Failure _ | Unix.Unix_error _) ->
      kill d;
      failwith (Printf.sprintf "daemon never answered on %s" socket)
  in
  wait_ready 200;
  d

let with_daemon ~exe ~socket args f =
  let d = spawn ~exe ~socket args in
  Fun.protect ~finally:(fun () -> kill d) (fun () -> f d)

(* ---------------- soak ---------------- *)

let emit_requests ~alpha ~batch stream f =
  let rec go id =
    match Workload.Stream.take stream batch with
    | [] -> ()
    | jobs ->
      let r0 = (List.hd jobs).Job.release in
      let work = List.fold_left (fun acc (j : Job.t) -> acc +. j.Job.work) 0.0 jobs in
      let job (j : Job.t) = Obs_json.(List [ Float (j.Job.release -. r0); Float j.Job.work ]) in
      f
        Obs_json.(
          to_string
            (Obj
               [ ("id", Int id); ("op", String "solve"); ("objective", String "makespan");
                 ("alpha", Float alpha); ("budget", Float (2.0 *. work));
                 ("jobs", List (List.map job jobs)) ]));
      if List.length jobs = batch then go (id + 1)
  in
  go 0

type chaos = { exe : string; socket : string; serve_args : string list; kill_at : float }

type recovery = {
  killed_window : int;
  pre_cache : int;
  post_cache : int;
  replayed : int;
  skipped_corrupt : int;
  warm_fraction : float;
  recheck : int;
  mismatches : int;
}

type report = {
  requests : int;
  ok : int;
  busy : int;
  errors : int;
  latency : Streaming_metrics.snapshot;
  wall_s : float;
  recovery : recovery option;
}

(* (cache size, journal replayed, journal skipped_corrupt) off a fresh
   health connection *)
let health socket =
  match List.map Obs_json.of_string (exchange_once ~socket [ {|{"op":"health"}|} ]) with
  | [ Ok doc ] ->
    let int_at path =
      let v = List.fold_left (fun acc k -> Option.bind acc (Obs_json.member k)) (Some doc) path in
      Option.value ~default:0 (Option.bind v Obs_json.to_int)
    in
    ( int_at [ "health"; "cache"; "size" ],
      int_at [ "health"; "journal"; "replayed" ],
      int_at [ "health"; "journal"; "skipped_corrupt" ] )
  | _ -> failwith "health: expected one parseable reply"

let rec windows n lines =
  let rec take k acc = function
    | l :: rest when k > 0 -> take (k - 1) (l :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  match take n [] lines with [], _ -> [] | w, rest -> w :: windows n rest

(* the drill around [run]: spawn, kill and restart before window
   [kill_idx], recheck pre-kill answers after the run, stop *)
let drill c ~exchange ~run windows =
  let nwin = List.length windows in
  let kill_idx = Int.max 0 (Int.min (nwin - 1) (int_of_float (c.kill_at *. float_of_int nwin))) in
  let daemon = ref (spawn ~exe:c.exe ~socket:c.socket c.serve_args) in
  Fun.protect ~finally:(fun () -> kill !daemon) @@ fun () ->
  (* first ok reply per pre-kill request line: the byte-identity
     oracle for post-recovery answers *)
  let first_ok = Hashtbl.create 4096 in
  let pre = ref (0, 0, 0) and post = ref (0, 0, 0) in
  List.iteri
    (fun wi w ->
      if wi = kill_idx then begin
        pre := health c.socket;
        kill !daemon;
        (* the soak's own connection is now dead, and is left so: the
           next window takes the retry path like any client *)
        daemon := spawn ~exe:c.exe ~socket:c.socket c.serve_args;
        post := health c.socket
      end;
      let replies = run w in
      if wi < kill_idx then
        List.iter2
          (fun line reply ->
            if Serve_protocol.status_of reply = Some "ok" && not (Hashtbl.mem first_ok line) then
              Hashtbl.replace first_ok line reply)
          w replies)
    windows;
  let (pre_cache, _, _), (post_cache, replayed, skipped_corrupt) = (!pre, !post) in
  let sample =
    List.filteri (fun i _ -> i < 512) (Hashtbl.fold (fun l r acc -> (l, r) :: acc) first_ok [])
  in
  let mismatches = List.filter (fun (line, expect) -> exchange [ line ] <> [ expect ]) sample in
  (try ignore (exchange_once ~socket:c.socket [ {|{"op":"shutdown"}|} ])
   with Failure _ | Unix.Unix_error _ -> ());
  (try ignore (reap !daemon) with Unix.Unix_error _ -> ());
  let warm_fraction =
    if pre_cache = 0 then 1.0 else float_of_int post_cache /. float_of_int pre_cache
  in
  { killed_window = kill_idx; pre_cache; post_cache; replayed; skipped_corrupt; warm_fraction;
    recheck = List.length sample; mismatches = List.length mismatches }

let soak ?(window = 64) ?chaos ~exchange lines =
  if window < 1 then invalid_arg "Serve_client.soak: window must be >= 1";
  let metrics = Streaming_metrics.create () in
  let ok = ref 0 and busy = ref 0 and errors = ref 0 in
  let t0 = Unix.gettimeofday () in
  (* every request in a window shares the window's round trip *)
  let run w =
    let sent_at = Unix.gettimeofday () in
    let replies = exchange w in
    let now = Unix.gettimeofday () in
    List.iter
      (fun r ->
        (match Serve_protocol.status_of r with
        | Some "ok" -> incr ok
        | Some ("busy" | "degraded") -> incr busy
        | _ -> incr errors);
        Streaming_metrics.observe metrics ~release:(sent_at -. t0) ~completion:(now -. t0))
      replies;
    replies
  in
  let windows = windows window lines in
  let recovery =
    match chaos with
    | None ->
      List.iter (fun w -> ignore (run w)) windows;
      None
    | Some c -> Some (drill c ~exchange ~run windows)
  in
  let latency = Streaming_metrics.snapshot metrics in
  let wall_s = Unix.gettimeofday () -. t0 in
  { requests = List.length lines; ok = !ok; busy = !busy; errors = !errors; latency; wall_s; recovery }

let check_recovery r =
  if r.warm_fraction < 0.9 then
    failwith (Printf.sprintf "chaos: warm recovery %.3f below the 0.9 threshold" r.warm_fraction);
  if r.mismatches > 0 then
    failwith
      (Printf.sprintf "chaos: %d post-crash replies diverged from pre-crash answers" r.mismatches)
