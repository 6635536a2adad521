(* pasched.serve: protocol codec, canonical cache keys, LRU bounds,
   batched dispatch on the resident pool, and daemon-grade failure
   semantics (typed replies, never a dead loop). *)

let () = Builtin.init ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let req ?(id = 1) ?(objective = "makespan") ?budget ?target ?(pareto = false) ?points ?deadline_s
    ?solver ?alpha jobs =
  let open Obs_json in
  let fields =
    [ ("id", Int id); ("objective", String objective) ]
    @ (match budget with Some b -> [ ("budget", Float b) ] | None -> [])
    @ (match target with Some t -> [ ("target", Float t) ] | None -> [])
    @ (if pareto then [ ("pareto", Bool true) ] else [])
    @ (match points with Some p -> [ ("points", Int p) ] | None -> [])
    @ (match deadline_s with Some d -> [ ("deadline_s", Float d) ] | None -> [])
    @ (match solver with Some s -> [ ("solver", String s) ] | None -> [])
    @ (match alpha with Some a -> [ ("alpha", Float a) ] | None -> [])
    @ [ ("jobs", List (List.map (fun (r, w) -> List [ Float r; Float w ]) jobs)) ]
  in
  to_string (Obj fields)

let jobs3 = [ (0.0, 5.0); (5.0, 2.0); (6.0, 1.0) ]
let jobs3_rev = List.rev jobs3

let decode_solve line =
  match Serve_protocol.decode line with
  | Ok { Serve_protocol.op = Serve_protocol.Solve sr; _ } -> sr
  | Ok _ -> Alcotest.fail "decoded to a non-solve op"
  | Error (_, e) -> Alcotest.failf "decode failed: %s" (Guard_error.to_string e)

let decode_error line =
  match Serve_protocol.decode line with
  | Error (_, e) -> e
  | Ok _ -> Alcotest.failf "expected a decode error for %s" line

let status_of reply =
  match Obs_json.of_string reply with
  | Ok doc -> Option.bind (Obs_json.member "status" doc) Obs_json.to_string_val
  | Error m -> Alcotest.failf "reply is not JSON (%s): %s" m reply

let class_of reply =
  match Obs_json.of_string reply with
  | Ok doc -> Option.bind (Obs_json.member "class" doc) Obs_json.to_string_val
  | Error m -> Alcotest.failf "reply is not JSON (%s): %s" m reply

let with_session ?(jobs = 1) ?(cache_capacity = 32) ?max_inflight ?cache_file f =
  let t = Serve_shard.create ~jobs ~cache_capacity ?max_inflight ?cache_file () in
  Fun.protect ~finally:(fun () -> Serve_shard.shutdown t) (fun () -> f t)

(* ---------------- protocol ---------------- *)

let test_roundtrip () =
  let sr = decode_solve (req ~budget:10.0 jobs3_rev) in
  let line2 =
    Obs_json.to_string (Serve_protocol.solve_request_json ~id:(Obs_json.Int 1) sr)
  in
  let sr2 = decode_solve line2 in
  check_string "canonical string is an encode/decode fixed point" sr.Serve_protocol.canon
    sr2.Serve_protocol.canon;
  check_bool "hash survives the round trip" true
    (Int64.equal sr.Serve_protocol.hash sr2.Serve_protocol.hash)

let test_defaults () =
  let sr = decode_solve (req ~budget:10.0 jobs3) in
  check_bool "solver defaults to auto" true (sr.Serve_protocol.solver = None);
  check_bool "alpha defaults to 3" true (sr.Serve_protocol.problem.Problem.alpha = 3.0);
  check_int "procs defaults to 1" 1 sr.Serve_protocol.problem.Problem.procs;
  check_int "points defaults to 0" 0 sr.Serve_protocol.points;
  check_bool "no deadline by default" true (sr.Serve_protocol.deadline_s = None)

let invalid_input e =
  match e with Guard_error.Invalid_input _ -> true | _ -> false

let test_malformed_json () =
  check_bool "garbage line" true (invalid_input (decode_error "this is not json"));
  check_bool "non-object document" true (invalid_input (decode_error "[1,2,3]"));
  check_bool "truncated document" true
    (invalid_input (decode_error (String.sub (req ~budget:1.0 jobs3) 0 20)))

let test_malformed_fields () =
  check_bool "unknown op" true (invalid_input (decode_error {|{"op":"bogus"}|}));
  check_bool "missing objective" true (invalid_input (decode_error {|{"jobs":[[0,1]]}|}));
  check_bool "unknown objective" true
    (invalid_input (decode_error {|{"objective":"nope","budget":1,"jobs":[[0,1]]}|}));
  check_bool "empty jobs" true
    (invalid_input (decode_error {|{"objective":"makespan","budget":1,"jobs":[]}|}));
  check_bool "malformed job pair" true
    (invalid_input (decode_error {|{"objective":"makespan","budget":1,"jobs":[[0]]}|}))

let test_malformed_model () =
  check_bool "alpha at 1 rejected" true
    (invalid_input (decode_error {|{"objective":"makespan","budget":1,"alpha":1.0,"jobs":[[0,1]]}|}));
  check_bool "negative budget rejected" true
    (invalid_input (decode_error {|{"objective":"makespan","budget":-2,"jobs":[[0,1]]}|}));
  check_bool "budget and target exclusive" true
    (invalid_input
       (decode_error {|{"objective":"makespan","budget":1,"target":2,"jobs":[[0,1]]}|}));
  check_bool "missing mode rejected" true
    (invalid_input (decode_error {|{"objective":"makespan","jobs":[[0,1]]}|}));
  check_bool "weights arity checked" true
    (invalid_input
       (decode_error {|{"objective":"wflow","budget":1,"jobs":[[0,1],[0,2]],"weights":[1]}|}))

(* ---------------- canonical keys ---------------- *)

let test_canonical_reorder () =
  let a = decode_solve (req ~budget:10.0 jobs3) in
  let b = decode_solve (req ~budget:10.0 jobs3_rev) in
  check_string "reordered jobs share the canonical string" a.Serve_protocol.canon
    b.Serve_protocol.canon;
  check_bool "reordered jobs share the hash" true
    (Int64.equal a.Serve_protocol.hash b.Serve_protocol.hash);
  check_bool "decoded instances coincide" true
    (Array.for_all2
       (fun (x : Job.t) (y : Job.t) -> x.Job.release = y.Job.release && x.Job.work = y.Job.work)
       (Instance.jobs a.Serve_protocol.inst)
       (Instance.jobs b.Serve_protocol.inst))

let test_canonical_distinguishes () =
  let base = decode_solve (req ~budget:10.0 jobs3) in
  let probes =
    [
      ("different work", decode_solve (req ~budget:10.0 [ (0.0, 5.0); (5.0, 2.0); (6.0, 1.5) ]));
      ("different budget", decode_solve (req ~budget:11.0 jobs3));
      ("different alpha", decode_solve (req ~budget:10.0 ~alpha:2.0 jobs3));
      ("named solver", decode_solve (req ~budget:10.0 ~solver:"incmerge" jobs3));
    ]
  in
  List.iter
    (fun (what, sr) ->
      check_bool (what ^ " changes the canonical string") false
        (String.equal base.Serve_protocol.canon sr.Serve_protocol.canon))
    probes

let test_deadline_not_in_key () =
  let a = decode_solve (req ~budget:10.0 jobs3) in
  let b = decode_solve (req ~budget:10.0 ~deadline_s:5.0 jobs3) in
  check_string "deadline_s stays out of the cache key" a.Serve_protocol.canon
    b.Serve_protocol.canon

(* ---------------- LRU cache ---------------- *)

let payload tag = [ ("status", Obs_json.String "ok"); ("tag", Obs_json.String tag) ]

let test_lru_eviction () =
  let c = Serve_cache.create ~capacity:2 in
  let key s = (Serve_key.hash s, s) in
  let ha, ca = key "a" and hb, cb = key "b" and hc, cc = key "c" in
  Serve_cache.insert c ~hash:ha ~canon:ca (payload "a");
  Serve_cache.insert c ~hash:hb ~canon:cb (payload "b");
  Serve_cache.insert c ~hash:hc ~canon:cc (payload "c");
  let st = Serve_cache.stats c in
  check_int "size stays at the bound" 2 st.Serve_cache.size;
  check_int "one eviction recorded" 1 st.Serve_cache.evictions;
  check_bool "least-recently-used entry evicted" true
    (Serve_cache.find c ~hash:ha ~canon:ca = None);
  check_bool "recent entries survive" true
    (Serve_cache.find c ~hash:hb ~canon:cb <> None
    && Serve_cache.find c ~hash:hc ~canon:cc <> None)

let test_lru_recency () =
  let c = Serve_cache.create ~capacity:2 in
  let key s = (Serve_key.hash s, s) in
  let ha, ca = key "a" and hb, cb = key "b" and hc, cc = key "c" in
  Serve_cache.insert c ~hash:ha ~canon:ca (payload "a");
  Serve_cache.insert c ~hash:hb ~canon:cb (payload "b");
  (* freshen a: now b is the eviction victim *)
  check_bool "freshening hit" true (Serve_cache.find c ~hash:ha ~canon:ca <> None);
  Serve_cache.insert c ~hash:hc ~canon:cc (payload "c");
  check_bool "freshened entry survives" true (Serve_cache.find c ~hash:ha ~canon:ca <> None);
  check_bool "stale entry evicted" true (Serve_cache.find c ~hash:hb ~canon:cb = None)

let test_collision_safety () =
  let c = Serve_cache.create ~capacity:4 in
  let h = Serve_key.hash "whatever" in
  Serve_cache.insert c ~hash:h ~canon:"alpha" (payload "alpha");
  (* same bucket hash, different canonical string: must miss, never
     serve the other entry's payload *)
  check_bool "forged-collision probe misses" true
    (Serve_cache.find c ~hash:h ~canon:"beta" = None);
  Serve_cache.insert c ~hash:h ~canon:"beta" (payload "beta");
  (match Serve_cache.find c ~hash:h ~canon:"beta" with
  | Some p -> check_bool "newcomer owns the slot" true (p = payload "beta")
  | None -> Alcotest.fail "inserted colliding entry not found");
  check_bool "displaced entry now misses" true (Serve_cache.find c ~hash:h ~canon:"alpha" = None)

(* ---------------- serve sessions ---------------- *)

let test_warm_cache_no_solver () =
  with_session @@ fun t ->
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let c_root = Obs.counter "rootfind.calls" in
  let c_hit = Obs.counter "serve.cache.hit" in
  let cold = Serve_shard.handle_line t (req ~budget:10.0 jobs3) in
  let roots_cold = Obs_metrics.value c_root in
  let hits_cold = Obs_metrics.value c_hit in
  check_bool "cold solve is ok" true (status_of cold = Some "ok");
  let warm = Serve_shard.handle_line t (req ~budget:10.0 jobs3) in
  check_string "warm reply byte-identical to cold" cold warm;
  check_int "no solver re-entry on the warm path" roots_cold (Obs_metrics.value c_root);
  check_int "exactly one cache hit recorded" (hits_cold + 1) (Obs_metrics.value c_hit);
  check_int "session stats agree" 1 (Serve_shard.stats t).Serve_shard.cache.Serve_cache.hits

let test_warm_cache_reordered () =
  with_session @@ fun t ->
  let cold = Serve_shard.handle_line t (req ~budget:10.0 jobs3) in
  let warm = Serve_shard.handle_line t (req ~budget:10.0 jobs3_rev) in
  check_string "reordered repeat served from cache, byte-identical" cold warm;
  check_int "hit recorded for the reordered repeat" 1
    (Serve_shard.stats t).Serve_shard.cache.Serve_cache.hits

let test_batch_dedupe () =
  with_session @@ fun t ->
  let line i = req ~id:i ~budget:10.0 jobs3 in
  match Serve_shard.handle_batch t [ line 1; line 2; line 3 ] with
  | [ r1; r2; r3 ] ->
    let strip r =
      match Obs_json.of_string r with
      | Ok (Obs_json.Obj fields) ->
        Obs_json.to_string (Obs_json.Obj (List.remove_assoc "id" fields))
      | _ -> Alcotest.fail "reply is not a JSON object"
    in
    check_string "duplicate replies identical modulo id" (strip r1) (strip r2);
    check_string "duplicate replies identical modulo id (3rd)" (strip r1) (strip r3);
    check_bool "each reply keeps its own id" true
      (Obs_json.member "id" (Result.get_ok (Obs_json.of_string r2)) = Some (Obs_json.Int 2))
  | rs -> Alcotest.failf "expected 3 replies, got %d" (List.length rs)

let flow12_deadline0 =
  req ~id:9 ~objective:"flow" ~budget:30.0 ~deadline_s:0.0
    (List.init 12 (fun i -> (0.1 *. float_of_int i, 1.0)))

let test_deadline_reply () =
  with_session @@ fun t ->
  let r = Serve_shard.handle_line t flow12_deadline0 in
  check_bool "zero deadline returns an error reply" true (status_of r = Some "error");
  check_bool "classified as deadline" true (class_of r = Some "deadline");
  (* the daemon must keep serving after a deadline expiry *)
  let after = Serve_shard.handle_line t (req ~budget:10.0 jobs3) in
  check_bool "daemon keeps serving after a deadline reply" true (status_of after = Some "ok");
  check_bool "deadline replies are not cached" true
    ((Serve_shard.stats t).Serve_shard.cache.Serve_cache.size = 1)

let test_jobs_invariance () =
  let batch =
    [
      req ~id:1 ~budget:10.0 jobs3;
      req ~id:2 ~objective:"flow" ~budget:12.0 [ (0.0, 1.0); (0.5, 1.0); (1.0, 1.0) ];
      req ~id:3 ~objective:"makespan" ~target:7.5 jobs3;
      req ~id:4 ~budget:9.0 [ (0.0, 2.0); (1.0, 2.0) ];
      flow12_deadline0;
    ]
  in
  let run jobs = with_session ~jobs (fun t -> Serve_shard.handle_batch t batch) in
  List.iter2
    (fun a b -> check_string "replies independent of pool width" a b)
    (run 1) (run 4)

let test_ops () =
  with_session @@ fun t ->
  let ping = Serve_shard.handle_line t {|{"id":1,"op":"ping"}|} in
  check_bool "ping pongs" true (status_of ping = Some "ok");
  let stats = Serve_shard.handle_line t {|{"id":2,"op":"stats"}|} in
  (match Obs_json.of_string stats with
  | Ok doc -> (
    match Obs_json.member "stats" doc with
    | Some s ->
      List.iter
        (fun k -> check_bool (k ^ " present in stats") true (Obs_json.member k s <> None))
        [ "hits"; "misses"; "evictions"; "size"; "capacity"; "jobs"; "requests"; "batches" ]
    | None -> Alcotest.fail "stats reply carries no stats object")
  | Error m -> Alcotest.failf "stats reply unparseable: %s" m);
  check_bool "not stopping before shutdown" false (Serve_shard.stopping t);
  let bye = Serve_shard.handle_line t {|{"id":3,"op":"shutdown"}|} in
  check_bool "shutdown acknowledged" true (status_of bye = Some "ok");
  check_bool "stopping after shutdown" true (Serve_shard.stopping t)

let test_unknown_solver_reply () =
  with_session @@ fun t ->
  let r = Serve_shard.handle_line t (req ~budget:10.0 ~solver:"nope" jobs3) in
  check_bool "unknown solver is an error reply" true (status_of r = Some "error");
  check_bool "classified invalid-input" true (class_of r = Some "invalid-input");
  let r2 = Serve_shard.handle_line t (req ~budget:10.0 jobs3) in
  check_bool "daemon keeps serving" true (status_of r2 = Some "ok")

let test_pareto_reply () =
  with_session @@ fun t ->
  let r = Serve_shard.handle_line t (req ~pareto:true ~points:5 jobs3) in
  check_bool "pareto solve is ok" true (status_of r = Some "ok");
  match Obs_json.of_string r with
  | Ok doc ->
    check_bool "breakpoints present" true (Obs_json.member "breakpoints" doc <> None);
    (match Option.bind (Obs_json.member "curve" doc) Obs_json.to_list with
    | Some samples -> check_int "curve sampled at the requested points" 5 (List.length samples)
    | None -> Alcotest.fail "curve missing from pareto reply")
  | Error m -> Alcotest.failf "pareto reply unparseable: %s" m

(* the exact reply bytes of the ops and of an admission shed, from a
   fresh session: clients and the chaos drill parse these fields, so
   the wire shape is pinned byte for byte *)
let test_wire_shape () =
  with_session (fun t ->
      check_string "ping bytes" {|{"id":1,"status":"ok","pong":true}|}
        (Serve_shard.handle_line t {|{"id":1,"op":"ping"}|});
      check_string "stats bytes"
        ({|{"id":2,"status":"ok","stats":{"hits":0,"misses":0,"evictions":0,"size":0,|}
        ^ {|"capacity":32,"jobs":1,"requests":2,"batches":2,|}
        ^ {|"shards":1,"shed":0,"max_inflight":0}}|})
        (Serve_shard.handle_line t {|{"id":2,"op":"stats"}|});
      check_string "health bytes"
        ({|{"id":3,"status":"ok","health":{"shards":1,"inflight":[0],|}
        ^ {|"cache":{"size":0,"capacity":32},"journal":null,"breakers":[]}}|})
        (Serve_shard.handle_line t {|{"id":3,"op":"health"}|}));
  with_session ~max_inflight:1 (fun t ->
      let lines =
        [ req ~id:4 ~budget:10.0 jobs3; req ~id:5 ~budget:11.0 jobs3; {|{"id":6,"op":"health"}|} ]
      in
      match Serve_shard.handle_batch t lines with
      | [ first; shed; health ] ->
        check_bool "first request admitted" true (status_of first = Some "ok");
        check_string "busy bytes"
          ({|{"id":5,"status":"busy","class":"busy","shard":0,|}
          ^ {|"message":"server at admission limit; retry"}|})
          shed;
        check_string "health bytes in the shedding batch"
          ({|{"id":6,"status":"ok","health":{"shards":1,"inflight":[1],|}
          ^ {|"cache":{"size":1,"capacity":32},"journal":null,"breakers":[]}}|})
          health
      | _ -> Alcotest.fail "expected three replies")

(* ---------------- Engine.solve_many and the pool ---------------- *)

let makespan_budget energy =
  Problem.make ~objective:Problem.Makespan ~mode:(Problem.Budget energy) ~alpha:3.0 ()

let test_solve_many_matches () =
  let inst = Instance.of_pairs jobs3 in
  let items = Array.init 4 (fun i -> (makespan_budget (8.0 +. float_of_int i), inst)) in
  let s =
    match Engine.supporting (fst items.(0)) inst with
    | s :: _ -> s
    | [] -> Alcotest.fail "no supporting solver"
  in
  let batch = Engine.solve_many s items in
  Array.iteri
    (fun i r ->
      match r with
      | Ok (r : Solve_result.t) ->
        let direct = Engine.solve_with s (fst items.(i)) (snd items.(i)) in
        check_bool
          (Printf.sprintf "batch item %d matches the direct solve" i)
          true
          (r.Solve_result.value = direct.Solve_result.value
          && r.Solve_result.energy = direct.Solve_result.energy)
      | Error e -> Alcotest.failf "batch item %d failed: %s" i (Printexc.to_string e))
    batch

let test_solve_many_capability () =
  let inst = Instance.of_pairs jobs3 in
  let bad =
    Problem.make ~objective:Problem.Deadline_energy ~mode:Problem.Feasible ~alpha:3.0
      ~deadlines:[| 10.0; 10.0; 10.0 |] ()
  in
  let s =
    match Engine.supporting (makespan_budget 10.0) inst with
    | s :: _ -> s
    | [] -> Alcotest.fail "no supporting solver"
  in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  match Engine.solve_many s [| (makespan_budget 10.0, inst); (bad, inst) |] with
  | exception Invalid_argument msg ->
    check_bool "capability error names the offending index" true (contains ~sub:"item 1" msg)
  | _ -> Alcotest.fail "capability mismatch in a batch must raise Invalid_argument"

let test_pool_determinism () =
  let pool = Par.Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  let expect = Array.init 100 (fun i -> i * i) in
  check_bool "pool init matches Array.init" true
    (Par.Pool.init pool 100 (fun i -> i * i) = expect);
  check_bool "pool reuse across batches" true
    (Par.Pool.init pool 37 (fun i -> 3 * i) = Array.init 37 (fun i -> 3 * i))

let test_pool_exception () =
  let pool = Par.Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  (match Par.Pool.init pool 64 (fun i -> if i >= 10 then failwith (string_of_int i) else i) with
  | _ -> Alcotest.fail "expected the lowest-index failure to propagate"
  | exception Failure msg -> check_string "lowest-index exception wins" "10" msg);
  check_bool "pool survives a failed batch" true
    (Par.Pool.init pool 5 (fun i -> i) = [| 0; 1; 2; 3; 4 |])

let test_pool_shutdown_degrades () =
  let pool = Par.Pool.create ~jobs:4 () in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool;
  check_bool "post-shutdown init runs sequentially" true
    (Par.Pool.init pool 8 (fun i -> i + 1) = Array.init 8 (fun i -> i + 1))

(* ---------------- admission control and snapshots ---------------- *)

let test_busy_shed () =
  with_session ~max_inflight:1 @@ fun t ->
  let lines = List.init 3 (fun i -> req ~id:i ~budget:(8.0 +. float_of_int i) jobs3) in
  (match Serve_shard.handle_batch t lines with
  | [ r1; r2; r3 ] ->
    check_bool "first request admitted" true (status_of r1 = Some "ok");
    check_bool "second shed busy" true (status_of r2 = Some "busy");
    check_bool "third shed busy" true (status_of r3 = Some "busy");
    check_bool "busy reply carries the busy class" true (class_of r2 = Some "busy");
    check_bool "busy reply echoes its id" true
      (match Obs_json.of_string r2 with
      | Ok doc -> Obs_json.member "id" doc = Some (Obs_json.Int 1)
      | Error _ -> false)
  | _ -> Alcotest.fail "expected three replies");
  let st = Serve_shard.stats t in
  check_int "shed counted" 2 st.Serve_shard.shed;
  check_int "admission bound reported" 1 st.Serve_shard.max_inflight;
  (* the daemon never dies: the shed key solves fine on retry *)
  check_bool "retry of a shed request succeeds" true
    (status_of (Serve_shard.handle_line t (List.nth lines 1)) = Some "ok")

let snapshot_file = Filename.temp_file "pasched_serve" ".cache"

let test_snapshot_roundtrip () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let c_root = Obs.counter "rootfind.calls" in
  let line = req ~budget:10.0 jobs3 in
  let cold =
    with_session ~cache_file:snapshot_file @@ fun t -> Serve_shard.handle_line t line
  in
  (* shutdown (via with_session) snapshotted the cache; a fresh daemon
     warms from it *)
  check_bool "snapshot file written" true (Sys.file_exists snapshot_file);
  let roots_after_cold = Obs_metrics.value c_root in
  let warm, hits =
    with_session ~cache_file:snapshot_file @@ fun t ->
    let w = Serve_shard.handle_line t line in
    (w, (Serve_shard.stats t).Serve_shard.cache.Serve_cache.hits)
  in
  check_string "warm reply byte-identical across restart" cold warm;
  check_int "no solver re-entry on the warmed path" roots_after_cold
    (Obs_metrics.value c_root);
  check_int "restart answered from the persisted cache" 1 hits;
  Sys.remove snapshot_file

let test_snapshot_tolerant () =
  let file = Filename.temp_file "pasched_serve_garbage" ".cache" in
  let oc = open_out file in
  output_string oc "this is not json\n{\"canon\": 42}\n{\"payload\": {}}\n";
  close_out oc;
  (* malformed snapshot lines are skipped, never fatal *)
  (with_session ~cache_file:file @@ fun t ->
   check_int "garbage snapshot loads nothing" 0
     (Serve_shard.stats t).Serve_shard.cache.Serve_cache.size;
   check_bool "daemon still serves" true
     (status_of (Serve_shard.handle_line t (req ~budget:10.0 jobs3)) = Some "ok"));
  Sys.remove file

(* ---------------- write-ahead journal ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rm_f path = try Sys.remove path with Sys_error _ -> ()

let with_store f =
  let path = Filename.temp_file "pasched_journal" ".cache" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      rm_f path;
      rm_f (path ^ ".journal");
      rm_f (path ^ ".tmp"))
    (fun () -> f path)

let jpayload i = [ ("status", Obs_json.String "ok"); ("n", Obs_json.Int i) ]

let build_journal path k =
  let j = Serve_journal.open_ ~compact_every:0 ~path () in
  for i = 0 to k - 1 do
    Serve_journal.append j ~canon:(Printf.sprintf "key-%d" i) (jpayload i)
  done;
  (* close without compacting: on-disk state is exactly what a SIGKILL
     after the last flush would leave *)
  Serve_journal.close j

let replay_counts path =
  let j = Serve_journal.open_ ~compact_every:0 ~path () in
  let seen = ref [] in
  Serve_journal.replay j (fun ~canon payload -> seen := (canon, payload) :: !seen);
  let st = Serve_journal.stats j in
  Serve_journal.close j;
  (List.rev !seen, st)

let test_crc_vector () =
  check_int "IEEE CRC-32 check vector" 0xCBF43926 (Serve_journal.crc32 "123456789");
  check_int "empty string" 0 (Serve_journal.crc32 "")

let test_frame_roundtrip () =
  let payload = jpayload 7 in
  let line = Serve_journal.encode_line ~canon:"some key; with=punct" payload in
  (match Serve_journal.decode_line line with
  | Some (canon, p) ->
    check_string "canon survives the frame" "some key; with=punct" canon;
    check_bool "payload survives the frame" true (p = payload)
  | None -> Alcotest.fail "intact frame rejected");
  (* single-character corruption anywhere must be caught *)
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string line in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      match Serve_journal.decode_line (Bytes.to_string b) with
      | None -> ()
      | Some _ -> Alcotest.failf "bit flip at %d went undetected" i)
    line;
  check_bool "truncation detected" true
    (Serve_journal.decode_line (String.sub line 0 (String.length line - 3)) = None);
  check_bool "garbage detected" true (Serve_journal.decode_line "not a frame" = None);
  check_bool "empty rejected" true (Serve_journal.decode_line "" = None)

let test_journal_replay_roundtrip () =
  with_store @@ fun path ->
  build_journal path 5;
  let seen, st = replay_counts path in
  check_int "all five entries replay" 5 (List.length seen);
  check_int "stats.replayed" 5 st.Serve_journal.replayed;
  check_int "stats.skipped_corrupt" 0 st.Serve_journal.skipped_corrupt;
  check_bool "entries replay in append order with payloads intact" true
    (List.mapi (fun i (c, p) -> c = Printf.sprintf "key-%d" i && p = jpayload i) seen
    |> List.for_all Fun.id)

let test_journal_torn_tail () =
  with_store @@ fun path ->
  build_journal path 4;
  let jf = path ^ ".journal" in
  let s = read_file jf in
  (* crash mid-write: the last line loses its tail (and newline) *)
  write_file jf (String.sub s 0 (String.length s - 9));
  let seen, st = replay_counts path in
  check_int "intact prefix replays" 3 (List.length seen);
  check_int "torn tail counted as corrupt" 1 st.Serve_journal.skipped_corrupt

let test_journal_bitflip () =
  with_store @@ fun path ->
  build_journal path 4;
  let jf = path ^ ".journal" in
  let s = read_file jf in
  (* flip one payload bit in the second line: CRC catches it, the
     other three lines still load *)
  let nl1 = String.index s '\n' in
  let b = Bytes.of_string s in
  Bytes.set b (nl1 + 30) (Char.chr (Char.code (Bytes.get b (nl1 + 30)) lxor 1));
  write_file jf (Bytes.to_string b);
  let seen, st = replay_counts path in
  check_int "three of four entries replay" 3 (List.length seen);
  check_int "flipped line counted" 1 st.Serve_journal.skipped_corrupt

let test_journal_duplicate_line () =
  with_store @@ fun path ->
  build_journal path 3;
  let jf = path ^ ".journal" in
  let s = read_file jf in
  let nl1 = String.index s '\n' in
  write_file jf (s ^ String.sub s 0 (nl1 + 1));
  let seen, st = replay_counts path in
  check_int "duplicated line replays twice (idempotent insert)" 4 (List.length seen);
  check_int "a duplicate is not corruption" 0 st.Serve_journal.skipped_corrupt;
  check_string "the re-replayed entry is the first key" "key-0"
    (fst (List.nth seen 3))

let test_journal_zero_length () =
  with_store @@ fun path ->
  write_file (path ^ ".journal") "";
  let seen, st = replay_counts path in
  check_int "nothing to replay" 0 (List.length seen);
  check_int "nothing corrupt" 0 st.Serve_journal.skipped_corrupt;
  check_int "no checkpoint is fine too" 0 st.Serve_journal.replayed

let test_journal_layering () =
  with_store @@ fun path ->
  (* checkpoint says v1, journal says v2: the journal wins by replaying
     last, exactly like the LRU insert it records *)
  Serve_journal.write_checkpoint ~path
    ~entries:[ ("shared", jpayload 1); ("only-ckpt", jpayload 10) ];
  let j = Serve_journal.open_ ~compact_every:0 ~path () in
  Serve_journal.append j ~canon:"shared" (jpayload 2);
  Serve_journal.close j;
  let seen, st = replay_counts path in
  check_int "checkpoint plus journal" 3 (List.length seen);
  check_int "replayed counts both layers" 3 st.Serve_journal.replayed;
  (match List.rev seen with
  | ("shared", p) :: _ -> check_bool "journal entry replays last and wins" true (p = jpayload 2)
  | _ -> Alcotest.fail "journal entry did not replay last")

let test_journal_compaction () =
  with_store @@ fun path ->
  let j = Serve_journal.open_ ~compact_every:3 ~path () in
  Serve_journal.append j ~canon:"a" (jpayload 1);
  Serve_journal.append j ~canon:"b" (jpayload 2);
  check_bool "below the lag threshold" false (Serve_journal.needs_compact j);
  Serve_journal.append j ~canon:"c" (jpayload 3);
  check_bool "lag threshold reached" true (Serve_journal.needs_compact j);
  Serve_journal.compact j ~entries:[ ("a", jpayload 1); ("c", jpayload 3) ];
  let st = Serve_journal.stats j in
  check_int "compaction counted" 1 st.Serve_journal.compactions;
  check_int "lag folded away" 0 st.Serve_journal.lag;
  (* appends after a compaction land in the truncated journal *)
  Serve_journal.append j ~canon:"d" (jpayload 4);
  Serve_journal.close j;
  let seen, st2 = replay_counts path in
  check_int "checkpoint entries plus post-compaction append" 3 (List.length seen);
  check_int "nothing corrupt after truncate-and-append" 0 st2.Serve_journal.skipped_corrupt;
  check_bool "replay order is checkpoint then journal" true
    (List.map fst seen = [ "a"; "c"; "d" ])

(* ---------------- circuit breaker (unit) ---------------- *)

let breaker_state_pp = function
  | Guard_breaker.Closed -> "closed"
  | Guard_breaker.Open -> "open"
  | Guard_breaker.Half_open -> "half-open"

let check_state what expected got =
  Alcotest.(check string) what (breaker_state_pp expected) (breaker_state_pp got)

let test_breaker_lifecycle () =
  let now = ref 0.0 in
  let br =
    Guard_breaker.create ~now:(fun () -> !now)
      { Guard_breaker.threshold = 2; cooldown_s = 10.0 }
  in
  check_bool "unknown solver admitted" true (Guard_breaker.admit br "s");
  check_state "starts closed" Guard_breaker.Closed (Guard_breaker.state br "s");
  Guard_breaker.record_fail br "s";
  check_state "one failure stays closed" Guard_breaker.Closed (Guard_breaker.state br "s");
  check_bool "still admitted below threshold" true (Guard_breaker.admit br "s");
  Guard_breaker.record_fail br "s";
  check_state "threshold trips it open" Guard_breaker.Open (Guard_breaker.state br "s");
  check_bool "open refuses work" false (Guard_breaker.admit br "s");
  now := 5.0;
  check_bool "still open inside the cooldown" false (Guard_breaker.admit br "s");
  now := 10.0;
  check_state "cooldown elapsed: half-open" Guard_breaker.Half_open (Guard_breaker.state br "s");
  check_bool "half-open admits one probe" true (Guard_breaker.admit br "s");
  Guard_breaker.record_ok br "s";
  check_state "successful probe closes it" Guard_breaker.Closed (Guard_breaker.state br "s");
  check_bool "closed admits again" true (Guard_breaker.admit br "s");
  (* a failed probe re-opens immediately, without a fresh failure run *)
  Guard_breaker.record_fail br "s";
  Guard_breaker.record_fail br "s";
  now := 20.0;
  check_bool "probe admitted" true (Guard_breaker.admit br "s");
  Guard_breaker.record_fail br "s";
  check_state "failed probe re-opens" Guard_breaker.Open (Guard_breaker.state br "s");
  check_bool "re-opened refuses" false (Guard_breaker.admit br "s")

let test_breaker_probe_slot () =
  let now = ref 0.0 in
  let br =
    Guard_breaker.create ~now:(fun () -> !now)
      { Guard_breaker.threshold = 1; cooldown_s = 1.0 }
  in
  Guard_breaker.record_fail br "s";
  now := 1.0;
  check_bool "first half-open caller gets the probe" true (Guard_breaker.admit br "s");
  check_bool "second caller is refused while the probe is out" false
    (Guard_breaker.admit br "s");
  (* other solvers are independent *)
  check_bool "an unrelated solver is unaffected" true (Guard_breaker.admit br "other")

let test_breaker_snapshot () =
  let now = ref 0.0 in
  let br =
    Guard_breaker.create ~now:(fun () -> !now)
      { Guard_breaker.threshold = 1; cooldown_s = 60.0 }
  in
  Guard_breaker.record_fail br "bad";
  (* an entry only exists once a failure was seen: recovered solvers
     show closed/0, never-failed solvers stay out of the listing *)
  Guard_breaker.record_fail br "good";
  Guard_breaker.record_ok br "good";
  check_bool "never-failed solvers are not listed" true
    (List.for_all (fun (n, _, _) -> n <> "unseen") (Guard_breaker.snapshot br));
  match Guard_breaker.snapshot br with
  | [ ("bad", Guard_breaker.Open, 1); ("good", Guard_breaker.Closed, 0) ] -> ()
  | rows ->
    Alcotest.failf "unexpected snapshot: %s"
      (String.concat "; "
         (List.map
            (fun (n, s, f) -> Printf.sprintf "%s=%s/%d" n (breaker_state_pp s) f)
            rows))

(* ---------------- breaker supervision through the daemon ---------------- *)

(* an always-raising solver: non-exact, so auto-selection and the
   differential oracles never pick it up on their own *)
let () =
  let module Flaky = struct
    let name = "test-flaky"
    let doc = "always-raising solver for circuit-breaker tests"

    let capability =
      {
        Capability.objective = Problem.Makespan;
        settings = Capability.Any_procs;
        modes = [ Capability.Budget_mode ];
        exact = false;
        requires = [];
      }

    let solve _ _ = failwith "flaky by design"
  end in
  Engine.register (module Flaky)

let health_of t =
  match Obs_json.of_string (Serve_shard.handle_line t {|{"id":0,"op":"health"}|}) with
  | Ok doc -> (
    match Obs_json.member "health" doc with
    | Some h -> h
    | None -> Alcotest.fail "health reply carries no health object")
  | Error m -> Alcotest.failf "health reply unparseable: %s" m

let breaker_row_state h solver =
  match Option.bind (Obs_json.member "breakers" h) Obs_json.to_list with
  | None -> Alcotest.fail "health carries no breakers list"
  | Some rows -> (
    match
      List.find_opt
        (fun row -> Obs_json.member "solver" row = Some (Obs_json.String solver))
        rows
    with
    | Some row -> Option.bind (Obs_json.member "state" row) Obs_json.to_string_val
    | None -> None)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_breaker_degrade_path () =
  let now = ref 0.0 in
  let t =
    Serve_shard.create ~jobs:1 ~cache_capacity:32
      ~breaker:(Some { Guard_breaker.threshold = 2; cooldown_s = 100.0 })
      ~breaker_now:(fun () -> !now)
      ()
  in
  Fun.protect ~finally:(fun () -> Serve_shard.shutdown t) @@ fun () ->
  let flaky budget = req ~budget ~solver:"test-flaky" jobs3 in
  (* two supervised failures: Guard's fallback still answers, but each
     counts against the named solver *)
  check_bool "first flaky request answered by the fallback chain" true
    (status_of (Serve_shard.handle_line t (flaky 10.0)) = Some "ok");
  check_bool "still closed below the threshold" true
    (breaker_row_state (health_of t) "test-flaky" = Some "closed");
  ignore (Serve_shard.handle_line t (flaky 11.0));
  check_bool "two consecutive failures open the breaker" true
    (breaker_row_state (health_of t) "test-flaky" = Some "open");
  (* open: the request degrades along Engine.supporting without ever
     running the sick solver, and the answer is never cached *)
  let size_before = (Serve_shard.stats t).Serve_shard.cache.Serve_cache.size in
  let hits_before = (Serve_shard.stats t).Serve_shard.cache.Serve_cache.hits in
  let d1 = Serve_shard.handle_line t (flaky 20.0) in
  check_bool "degraded reroute still answers ok" true (status_of d1 = Some "ok");
  check_bool "reply carries the breaker.degraded diagnostic" true
    (contains ~sub:"breaker.degraded" d1);
  let d2 = Serve_shard.handle_line t (flaky 20.0) in
  check_string "degraded repeats stay byte-identical (deterministic fallback)" d1 d2;
  let st = (Serve_shard.stats t).Serve_shard.cache in
  check_int "degraded answers never enter the cache" size_before st.Serve_cache.size;
  check_int "so the repeat cannot be a cache hit" hits_before st.Serve_cache.hits;
  (* cooldown over: one probe goes through, fails, re-opens *)
  now := 150.0;
  check_bool "half-open after the cooldown" true
    (breaker_row_state (health_of t) "test-flaky" = Some "half-open");
  ignore (Serve_shard.handle_line t (flaky 30.0));
  check_bool "failed probe re-opens the breaker" true
    (breaker_row_state (health_of t) "test-flaky" = Some "open");
  (* a healthy solver is never collateral damage *)
  check_bool "auto requests unaffected throughout" true
    (status_of (Serve_shard.handle_line t (req ~budget:10.0 jobs3)) = Some "ok")

let test_breaker_reject_when_no_fallback () =
  let now = ref 0.0 in
  let state =
    Serve_batch.create_state
      ~now:(fun () -> !now)
      ~breaker:(Some { Guard_breaker.threshold = 1; cooldown_s = 100.0 })
      ()
  in
  let br = Option.get (Serve_batch.breaker_of state) in
  (* every registered solver has just melted down: nowhere to degrade *)
  List.iter (fun name -> Guard_breaker.record_fail br name) (Engine.names ());
  let pool = Par.Pool.create ~jobs:1 () in
  let cache = Serve_cache.create ~capacity:8 in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  let sr = decode_solve (req ~budget:10.0 jobs3) in
  match Serve_batch.run ~pool ~cache ~policy:Guard.default ~state [| sr |] with
  | [| payload |] ->
    let doc = Obs_json.Obj payload in
    check_bool "refusal is the typed degraded reply" true
      (Obs_json.member "status" doc = Some (Obs_json.String "degraded"));
    check_bool "classified breaker-open" true
      (Obs_json.member "class" doc = Some (Obs_json.String "breaker-open"));
    check_int "nothing cached" 0 (Serve_cache.stats cache).Serve_cache.size
  | _ -> Alcotest.fail "expected exactly one payload"

(* ---------------- health op ---------------- *)

let test_health_op () =
  with_store @@ fun path ->
  let t = Serve_shard.create ~jobs:1 ~cache_capacity:16 ~cache_file:path () in
  Fun.protect ~finally:(fun () -> Serve_shard.shutdown t) @@ fun () ->
  check_bool "a solve lands first" true
    (status_of (Serve_shard.handle_line t (req ~budget:10.0 jobs3)) = Some "ok");
  let h = health_of t in
  let int_at keys =
    match
      List.fold_left (fun acc k -> Option.bind acc (Obs_json.member k)) (Some h) keys
    with
    | Some (Obs_json.Int n) -> n
    | _ -> Alcotest.failf "health field %s missing" (String.concat "." keys)
  in
  check_int "one shard reported" 1 (int_at [ "shards" ]);
  check_int "cache occupancy reported" 1 (int_at [ "cache"; "size" ]);
  check_int "cache capacity is the session's" 16 (int_at [ "cache"; "capacity" ]);
  check_int "journal append counted" 1 (int_at [ "journal"; "appends" ]);
  check_int "nothing replayed on a fresh store" 0 (int_at [ "journal"; "replayed" ]);
  (match Option.bind (Obs_json.member "inflight" h) Obs_json.to_list with
  | Some ds -> check_bool "one inflight row" true (ds = [ Obs_json.Int 0 ])
  | None -> Alcotest.fail "health carries no inflight list");
  check_bool "breakers listed (default config on)" true
    (Obs_json.member "breakers" h <> None)

(* ---------------- crash recovery (SIGKILL simulated by abort) ---------------- *)

let test_crash_warm_recovery () =
  with_store @@ fun path ->
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let c_root = Obs.counter "rootfind.calls" in
  let lines = List.init 3 (fun i -> req ~id:i ~budget:(9.0 +. float_of_int i) jobs3) in
  let t1 = Serve_shard.create ~jobs:1 ~cache_capacity:32 ~cache_file:path () in
  let cold = Serve_shard.handle_batch t1 lines in
  (* crash: no compaction, no checkpoint — the journal alone recovers *)
  Serve_shard.abort t1;
  check_bool "no checkpoint was written by the crash" true (not (Sys.file_exists path));
  let roots_cold = Obs_metrics.value c_root in
  let t2 = Serve_shard.create ~jobs:1 ~cache_capacity:32 ~cache_file:path () in
  Fun.protect ~finally:(fun () -> Serve_shard.shutdown t2) @@ fun () ->
  (match Serve_shard.journal_stats t2 with
  | Some js ->
    check_int "all three inserts replayed from the journal" 3 js.Serve_journal.replayed;
    check_int "nothing corrupt in a flushed journal" 0 js.Serve_journal.skipped_corrupt
  | None -> Alcotest.fail "journaled daemon reports no journal stats");
  let warm = Serve_shard.handle_batch t2 lines in
  List.iter2
    (fun c w -> check_string "post-crash reply byte-identical to pre-crash" c w)
    cold warm;
  check_int "no solver re-entry after recovery" roots_cold (Obs_metrics.value c_root);
  check_int "every post-crash request was a cache hit" 3
    (Serve_shard.stats t2).Serve_shard.cache.Serve_cache.hits

let test_shutdown_then_journal_replays () =
  with_store @@ fun path ->
  let line = req ~budget:10.0 jobs3 in
  (* clean shutdown compacts: checkpoint present, journal empty *)
  (with_session ~cache_file:path @@ fun t ->
   ignore (Serve_shard.handle_line t line));
  check_bool "checkpoint written on shutdown" true (Sys.file_exists path);
  check_int "journal truncated by the shutdown compaction" 0
    (String.length (read_file (path ^ ".journal")));
  let t = Serve_shard.create ~jobs:1 ~cache_capacity:32 ~cache_file:path () in
  Fun.protect ~finally:(fun () -> Serve_shard.shutdown t) @@ fun () ->
  match Serve_shard.journal_stats t with
  | Some js -> check_int "checkpoint replays after a clean shutdown" 1 js.Serve_journal.replayed
  | None -> Alcotest.fail "no journal stats"

(* ---------------- client: retry, exit codes, soak driver ---------------- *)

let test_retry_bounds () =
  let sched = Serve_client.backoff ~base_ms:50.0 ~cap_ms:400.0 ~seed:7 () in
  let first = Serve_client.next_ms sched in
  check_bool "first sleep within [base, 3*base]" true (first >= 50.0 && first <= 150.0);
  for _ = 1 to 100 do
    let s = Serve_client.next_ms sched in
    check_bool "every sleep within [base, cap]" true (s >= 50.0 && s <= 400.0)
  done;
  (* same seed, same schedule: reproducible for tests *)
  let a = Serve_client.backoff ~base_ms:50.0 ~cap_ms:400.0 ~seed:11 () in
  let b = Serve_client.backoff ~base_ms:50.0 ~cap_ms:400.0 ~seed:11 () in
  for _ = 1 to 20 do
    check_bool "deterministic per seed" true (Serve_client.next_ms a = Serve_client.next_ms b)
  done;
  check_bool "invalid base rejected" true
    (match Serve_client.backoff ~base_ms:0.0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_retry_transient_classifier () =
  check_bool "busy retries" true
    (Serve_client.is_transient_reply {|{"id":1,"status":"busy","class":"busy"}|});
  check_bool "degraded retries" true
    (Serve_client.is_transient_reply {|{"id":1,"status":"degraded","class":"breaker-open"}|});
  check_bool "ok does not retry" false (Serve_client.is_transient_reply {|{"status":"ok"}|});
  check_bool "hard errors do not retry" false
    (Serve_client.is_transient_reply {|{"status":"error","class":"infeasible"}|});
  check_bool "garbage does not retry" false (Serve_client.is_transient_reply "not json")

let fake_reply status line k = Printf.sprintf {|{"status":"%s","for":"%s","attempt":%d}|} status line k

(* a scripted exchange: [script k line] answers [line] on attempt [k]
   (counted from 1), or raises for the whole attempt; every attempt's
   lines are recorded *)
let scripted script =
  let calls = ref [] in
  let exchange lines =
    calls := lines :: !calls;
    let k = List.length !calls in
    List.map (fun l -> script k l) lines
  in
  (exchange, fun () -> List.rev !calls)

let retry ~retries exchange lines =
  Serve_client.exchange_with_retry ~exchange
    ~backoff:(Serve_client.backoff ~base_ms:0.01 ~cap_ms:0.05 ())
    ~retries lines

let test_retry_fake_exchange () =
  let lines = [ "a"; "b"; "c"; "d" ] in
  let check_calls what expected calls = Alcotest.(check (list (list string))) what expected calls in
  (* a transport failure resends the whole window *)
  let ex, calls = scripted (fun k l -> if k = 1 then failwith "down" else fake_reply "ok" l k) in
  Alcotest.(check (list string)) "transport retry answers every line"
    (List.map (fun l -> fake_reply "ok" l 2) lines) (retry ~retries:3 ex lines);
  check_calls "transport failure resends the whole window" [ lines; lines ] (calls ());
  (* transient replies resend only their own lines, merged back in order *)
  let ex, calls =
    scripted (fun k l ->
        match (k, l) with
        | 1, "b" -> fake_reply "busy" l k
        | 1, "d" -> fake_reply "degraded" l k
        | _ -> fake_reply "ok" l k)
  in
  Alcotest.(check (list string)) "retried replies merge back in request order"
    [ fake_reply "ok" "a" 1; fake_reply "ok" "b" 2; fake_reply "ok" "c" 1; fake_reply "ok" "d" 2 ]
    (retry ~retries:3 ex lines);
  check_calls "only the transient lines are resent" [ lines; [ "b"; "d" ] ] (calls ());
  (* an exhausted budget returns the last replies as they are *)
  let ex, calls = scripted (fun k l -> fake_reply (if l = "c" then "ok" else "busy") l k) in
  Alcotest.(check (list string)) "exhausted budget returns the last replies"
    [ fake_reply "busy" "a" 3; fake_reply "busy" "b" 3; fake_reply "ok" "c" 1; fake_reply "busy" "d" 3 ]
    (retry ~retries:2 ex lines);
  check_int "one attempt plus the whole budget" 3 (List.length (calls ()));
  (* ... and re-raises a transport failure *)
  let ex, calls = scripted (fun _ _ -> failwith "down for good") in
  check_bool "exhausted transport failure re-raises" true
    (match retry ~retries:2 ex lines with exception Failure _ -> true | _ -> false);
  check_int "every attempt resent the window" 3 (List.length (calls ()));
  let ex, _ = scripted (fun k l -> fake_reply "busy" l k) in
  Alcotest.(check (list string)) "no budget, no resend"
    (List.map (fun l -> fake_reply "busy" l 1) lines) (retry ~retries:0 ex lines)

let test_exit_codes () =
  let reply payload = Serve_protocol.reply_string ~id:(Obs_json.Int 1) payload in
  List.iter
    (fun e ->
      let code = Guard_error.exit_code e and cls = Guard_error.class_string e in
      Alcotest.(check (option int)) (cls ^ ": class string -> code") (Some code)
        (Guard_error.exit_code_of_class cls);
      check_int (cls ^ ": error reply -> code") code
        (Serve_client.reply_exit_code (reply (Serve_protocol.error_payload e))))
    [
      Guard_error.Invalid_input "x";
      Guard_error.Infeasible "x";
      Guard_error.No_convergence { iters = 3; residual = 1.0 };
      Guard_error.Deadline_exceeded { budget_s = 1.0; elapsed_s = 2.0 };
      Guard_error.Solver_fault { solver = "s"; exn = Exit };
    ];
  Alcotest.(check (option int)) "unknown class" None (Guard_error.exit_code_of_class "busy");
  check_int "ok" 0 (Serve_client.reply_exit_code {|{"id":1,"status":"ok"}|});
  check_int "busy" 7 (Serve_client.reply_exit_code (reply Serve_protocol.busy_payload));
  check_int "degraded" 7
    (Serve_client.reply_exit_code (reply (Serve_protocol.degraded_payload ~solver:"s")));
  check_int "breaker-open class" 7
    (Serve_client.reply_exit_code {|{"status":"error","class":"breaker-open"}|});
  check_int "unknown class" 6 (Serve_client.reply_exit_code {|{"status":"error","class":"?"}|});
  check_int "garbage" 6 (Serve_client.reply_exit_code "not json")

let test_soak_counts_degraded_busy () =
  let reply payload = Serve_protocol.reply_string ~id:(Obs_json.Int 1) payload in
  let answers =
    [|
      {|{"id":1,"status":"ok"}|};
      reply Serve_protocol.busy_payload;
      reply (Serve_protocol.degraded_payload ~solver:"s");
      reply (Serve_protocol.error_payload (Guard_error.Infeasible "x"));
    |]
  in
  let lines = List.init 10 string_of_int in
  let r =
    Serve_client.soak ~window:3
      ~exchange:(List.map (fun l -> answers.(int_of_string l mod 4)))
      lines
  in
  check_int "requests" 10 r.Serve_client.requests;
  check_int "ok" 3 r.Serve_client.ok;
  check_int "busy and degraded both count as busy" 5 r.Serve_client.busy;
  check_int "errors" 2 r.Serve_client.errors;
  check_bool "every request has a latency" true
    (r.Serve_client.latency.Streaming_metrics.jobs = 10 && r.Serve_client.recovery = None)

(* ---------------- against a real daemon ---------------- *)

let pasched_exe () =
  (* under `dune runtest` the cwd is _build/default/test (the CLI is a
     declared dep); under `dune exec` it is the project root *)
  let candidates =
    [
      Filename.concat Filename.parent_dir_name "bin/pasched.exe";
      Filename.concat "_build/default/bin" "pasched.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "pasched.exe not found next to the test"

let with_temp_paths f =
  let tmp what =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pasched_test_%d_%s" (Unix.getpid ()) what)
  in
  let socket = tmp "sock" and cache = tmp "cache" in
  let clean () = List.iter rm_f [ socket; cache; cache ^ ".journal"; cache ^ ".tmp" ] in
  clean ();
  Fun.protect ~finally:clean (fun () -> f ~socket ~cache)

let test_disconnect_mid_reply () =
  with_temp_paths @@ fun ~socket ~cache:_ ->
  (* the daemon must outlive a client that hangs up rudely *)
  Serve_client.with_daemon ~exe:(pasched_exe ()) ~socket [ "--jobs"; "1"; "--cache"; "8" ]
  @@ fun d ->
  (* rude client: submit real work, vanish before the reply *)
  let rude = Serve_client.create socket in
  Serve_client.send rude [ req ~budget:10.0 jobs3 ];
  Serve_client.close rude;
  (* polite client: the daemon must still answer, then stop cleanly *)
  let polite = Serve_client.create socket in
  let ask line =
    match Serve_client.exchange polite [ line ] with
    | [ r ] -> status_of r
    | _ -> Alcotest.fail "expected one reply"
  in
  check_bool "daemon survives the disconnect and still answers" true
    (ask {|{"id":1,"op":"ping"}|} = Some "ok");
  check_bool "shutdown acknowledged" true (ask {|{"id":2,"op":"shutdown"}|} = Some "ok");
  Serve_client.close polite;
  match Serve_client.reap d with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "daemon exited with %d" n
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "daemon killed by signal %d" s

(* [n] requests as `pasched sim --emit-requests 5` emits them *)
let emitted_requests n =
  let s =
    Workload.Stream.make ~seed:3 ~limit:(5 * n)
      ~size:(Workload.Stream.Pareto { shape = 2.2; scale = 0.5 })
      (Workload.Stream.Poisson_process 1.0)
  in
  let lines = ref [] in
  Serve_client.emit_requests ~alpha:3.0 ~batch:5 s (fun l -> lines := l :: !lines);
  List.rev !lines

let test_socket_chaos_soak () =
  with_temp_paths @@ fun ~socket ~cache ->
  let lines = emitted_requests 300 in
  let conn = Serve_client.create socket in
  Fun.protect ~finally:(fun () -> Serve_client.close conn) @@ fun () ->
  let exchange =
    Serve_client.exchange_with_retry ~exchange:(Serve_client.exchange conn)
      ~backoff:(Serve_client.backoff ~base_ms:20.0 ())
      ~retries:8
  in
  let chaos =
    {
      Serve_client.exe = pasched_exe ();
      socket;
      serve_args = [ "--cache-file"; cache; "--cache"; "4096"; "--jobs"; "1" ];
      kill_at = 0.5;
    }
  in
  let r = Serve_client.soak ~window:16 ~chaos ~exchange lines in
  check_int "every request answered ok across the kill" 300 r.Serve_client.ok;
  check_int "no busy" 0 r.Serve_client.busy;
  check_int "no errors" 0 r.Serve_client.errors;
  (match r.Serve_client.recovery with
  | None -> Alcotest.fail "a chaos soak reports its recovery"
  | Some c ->
    check_int "killed at half the windows" 9 c.Serve_client.killed_window;
    check_bool "pre-kill cache was populated" true (c.Serve_client.pre_cache > 0);
    check_bool "warm fraction >= 0.9" true (c.Serve_client.warm_fraction >= 0.9);
    check_int "no corrupt journal lines" 0 c.Serve_client.skipped_corrupt;
    check_bool "pre-kill requests were rechecked" true (c.Serve_client.recheck > 0);
    check_int "rechecked replies byte-identical" 0 c.Serve_client.mismatches);
  check_bool "the restarted daemon was stopped (it unlinks its socket)" false
    (Sys.file_exists socket);
  (* a drill that dies mid-run still kills and reaps its daemon *)
  check_bool "the failure propagates" true
    (match Serve_client.soak ~window:16 ~chaos ~exchange:(fun _ -> failwith "boom") lines with
    | exception Failure _ -> true
    | _ -> false);
  check_bool "nothing answers on the socket afterwards" true
    (match Serve_client.exchange (Serve_client.create socket) [ {|{"op":"ping"}|} ] with
    | exception (Failure _ | Unix.Unix_error _) -> true
    | _ -> false)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "malformed-json" `Quick test_malformed_json;
          Alcotest.test_case "malformed-fields" `Quick test_malformed_fields;
          Alcotest.test_case "malformed-model" `Quick test_malformed_model;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "reorder-collides" `Quick test_canonical_reorder;
          Alcotest.test_case "distinguishes" `Quick test_canonical_distinguishes;
          Alcotest.test_case "deadline-excluded" `Quick test_deadline_not_in_key;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru-eviction" `Quick test_lru_eviction;
          Alcotest.test_case "lru-recency" `Quick test_lru_recency;
          Alcotest.test_case "collision-safety" `Quick test_collision_safety;
        ] );
      ( "session",
        [
          Alcotest.test_case "warm-cache-no-solver" `Quick test_warm_cache_no_solver;
          Alcotest.test_case "warm-cache-reordered" `Quick test_warm_cache_reordered;
          Alcotest.test_case "batch-dedupe" `Quick test_batch_dedupe;
          Alcotest.test_case "deadline-reply" `Quick test_deadline_reply;
          Alcotest.test_case "jobs-invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "ops" `Quick test_ops;
          Alcotest.test_case "unknown-solver" `Quick test_unknown_solver_reply;
          Alcotest.test_case "pareto" `Quick test_pareto_reply;
          Alcotest.test_case "wire-shape" `Quick test_wire_shape;
        ] );
      ( "shard",
        [
          Alcotest.test_case "busy-shed" `Quick test_busy_shed;
          Alcotest.test_case "snapshot-roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "snapshot-tolerant" `Quick test_snapshot_tolerant;
        ] );
      ( "journal",
        [
          Alcotest.test_case "crc-vector" `Quick test_crc_vector;
          Alcotest.test_case "frame-roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "replay-roundtrip" `Quick test_journal_replay_roundtrip;
          Alcotest.test_case "torn-tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "bit-flip" `Quick test_journal_bitflip;
          Alcotest.test_case "duplicate-line" `Quick test_journal_duplicate_line;
          Alcotest.test_case "zero-length" `Quick test_journal_zero_length;
          Alcotest.test_case "layering" `Quick test_journal_layering;
          Alcotest.test_case "compaction" `Quick test_journal_compaction;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "probe-slot" `Quick test_breaker_probe_slot;
          Alcotest.test_case "snapshot" `Quick test_breaker_snapshot;
          Alcotest.test_case "degrade-path" `Quick test_breaker_degrade_path;
          Alcotest.test_case "reject-no-fallback" `Quick test_breaker_reject_when_no_fallback;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "health-op" `Quick test_health_op;
          Alcotest.test_case "crash-warm-recovery" `Quick test_crash_warm_recovery;
          Alcotest.test_case "shutdown-checkpoint" `Quick test_shutdown_then_journal_replays;
          Alcotest.test_case "retry-bounds" `Quick test_retry_bounds;
          Alcotest.test_case "retry-transient" `Quick test_retry_transient_classifier;
          Alcotest.test_case "disconnect-mid-reply" `Quick test_disconnect_mid_reply;
        ] );
      ( "client",
        [
          Alcotest.test_case "retry-fake-exchange" `Quick test_retry_fake_exchange;
          Alcotest.test_case "exit-codes" `Quick test_exit_codes;
          Alcotest.test_case "soak-degraded-is-busy" `Quick test_soak_counts_degraded_busy;
          Alcotest.test_case "socket-chaos-soak" `Quick test_socket_chaos_soak;
        ] );
      ( "engine-pool",
        [
          Alcotest.test_case "solve-many-matches" `Quick test_solve_many_matches;
          Alcotest.test_case "solve-many-capability" `Quick test_solve_many_capability;
          Alcotest.test_case "pool-determinism" `Quick test_pool_determinism;
          Alcotest.test_case "pool-exception" `Quick test_pool_exception;
          Alcotest.test_case "pool-shutdown" `Quick test_pool_shutdown_degrades;
        ] );
    ]
