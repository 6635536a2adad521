(* The pasched benchmark.

   main.exe --workload W --seed N --seconds S --trace 0|1 --pasched EXE

   Runs one workload for S seconds on inputs drawn from seed N, checks
   every output after the timed phase, and prints, as its last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   Untraced runs report the end-to-end metrics; traced runs report the
   per-layer metrics (zero where a layer takes no part in the
   workload).  Exits 1 when any output check fails. *)

let workloads = [ "serve_cold"; "serve_hot"; "solve_mix"; "exact_thm8" ]

(* every per-layer metric, in BENCHMARK.json order *)
let per_layer_units =
  [
    ("obs_json.parse_us", "us");
    ("serve_protocol.decode_us", "us");
    ("serve_protocol.decode_words", "words");
    ("serve_key.key_us", "us");
    ("serve_cache.find_us", "us");
    ("serve_cache.insert_us", "us");
    ("serve_cache.hit_ratio", "ratio");
    ("serve_cache.evictions", "count");
    ("serve_batch.dispatch_us", "us");
    ("serve_batch.unique_ratio", "ratio");
    ("engine.solve_us.incmerge", "us");
    ("engine.solve_us.flow", "us");
    ("engine.solve_us.frontier", "us");
    ("engine.solve_us.multi-cyclic", "us");
    ("engine.solve_words", "words");
    ("guard.overhead_ratio", "ratio");
    ("rootfind.calls", "count");
    ("rootfind.newton_iters", "count");
    ("flow.run_merges", "count");
    ("incmerge.merge_rounds", "count");
    ("serve_protocol.ok_payload_us", "us");
    ("serve_protocol.reply_string_us", "us");
    ("serve_protocol.encode_words", "words");
    ("serve_protocol.reply_bytes", "bytes");
    ("serve_journal.append_us", "us");
    ("serve_journal.flush_us", "us");
    ("serve_journal.bytes_per_append", "bytes");
    ("serve_journal.compact_ms", "ms");
    ("serve_shard.session_us", "us");
    ("serve_shard.unattributed_share", "share");
    ("serve.transport_us", "us");
    ("flow_hardness.derive_ms", "ms");
    ("sturm.chain_ms", "ms");
    ("sturm.isolate_ms", "ms");
    ("sturm.refine_ms", "ms");
    ("obs.overhead_ratio", "ratio");
    ("fail_share", "share");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (serve_cold|serve_hot|solve_mix|exact_thm8) --seed N --seconds S \
     --trace 0|1 --pasched PATH";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  Builtin.init ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let o =
    match workload with
    | "serve_cold" -> Serve_load.run ~pasched:(get "pasched") ~seed ~seconds ~trace ~hot:false
    | "serve_hot" -> Serve_load.run ~pasched:(get "pasched") ~seed ~seconds ~trace ~hot:true
    | "solve_mix" -> Solve_mix.run ~seed ~seconds ~trace
    | _ -> Exact_thm8.run ~seed ~seconds ~trace
  in
  List.iter print_endline o.Util.table;
  List.iter (fun p -> print_endline ("CHECK FAILED: " ^ p)) o.Util.problems;
  let metrics =
    if trace then
      List.map
        (fun (name, unit_) ->
          let value =
            match List.find_opt (fun (x : Util.metric) -> x.Util.name = name) o.Util.per_layer with
            | Some x -> x.Util.value
            | None when name = "fail_share" ->
              float_of_int o.Util.failed /. float_of_int o.Util.attempted
            | None -> 0.0
          in
          Util.m name unit_ value)
        per_layer_units
    else o.Util.end_to_end
  in
  List.iter
    (fun (x : Util.metric) -> Printf.printf "%-34s %16.6f %s\n" x.Util.name x.Util.value x.Util.unit_)
    metrics;
  let correct = o.Util.failed = 0 && o.Util.problems = [] in
  let open Obs_json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int o.Util.attempted);
            ("failed", Int o.Util.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (x : Util.metric) ->
                     (x.Util.name, Obj [ ("value", Float x.Util.value); ("unit", String x.Util.unit_) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
