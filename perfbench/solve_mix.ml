(* The in-process kernel mix: Guard.solve_with under the default policy
   (the call `pasched solve` makes) on larger instances, with no
   protocol involved.  One pass draws 400 fresh operations and solves
   them all:

   - 128 total-flow solves under a budget, equal-work Poisson instances
     of 256 jobs, at 1.25..3 energy per job;
   - 128 makespan solves under a budget, heavy-tailed (Pareto work)
     instances of 512 jobs, at 1.5..4 times the total work;
   - 16 makespan Pareto frontiers of 2048 jobs, each followed by 4096
     point queries (timed together as one operation);
   - 128 four-processor equal-work makespan solves, 256 jobs.

   The seed draws the instances; sizes and budget factors are fixed, so
   every pass is nearly the same work.  Flow solve times have a long
   tail (the slowest of 32 is 2-4 times the median), so a fixed pool
   would make the p99 a property of the pool: each pass draws new
   instances instead.  Throughput is the median over passes; the
   latency quantiles pool every solve of the run, so that the p99 has
   dozens of samples beyond it rather than four per pass.  Passes run
   until the run length (wall clock) is spent; instances are drawn
   before, and checked after, each pass's timed solves, and the last
   pass's instances are collected before the next are drawn, so the
   peak heap holds one pass.  Solve times are CPU time (see Util). *)

type op = {
  kind : string;
  problem : Problem.t;
  inst : Instance.t;
  solver : Engine.solver;
  budget : float;  (* the energy budget; the query range's top for frontiers *)
  queries : float array;
}

let queries_per_frontier = 4096

let op ~kind ?procs ~mode ~objective ?(queries = [||]) inst budget =
  let problem = Problem.make ?procs ~objective ~mode ~alpha:3.0 () in
  let solver =
    match Engine.supporting problem inst with
    | s :: _ -> s
    | [] -> failwith ("solve_mix: no solver accepts the " ^ kind ^ " instance")
  in
  { kind; problem; inst; solver; budget; queries }

let make_ops rng =
  let sub () = Rng.int rng 1_000_000_000 in
  let jitter () = 1.0 +. Rng.float rng 0.05 in
  let flow =
    List.init 128 (fun i ->
        let inst = Workload.equal_work ~seed:(sub ()) ~n:256 ~work:1.0 (Workload.Poisson 1.0) in
        let b = [| 1.25; 1.5; 2.0; 3.0 |].(i mod 4) *. 256.0 *. jitter () in
        op ~kind:"flow" ~objective:Problem.Total_flow ~mode:(Problem.Budget b) inst b)
  in
  let makespan =
    List.init 128 (fun i ->
        let inst =
          Workload.heavy_tailed ~seed:(sub ()) ~n:512 ~shape:1.5 ~scale:1.0 (Workload.Poisson 1.0)
        in
        let b = [| 1.5; 2.0; 3.0; 4.0 |].(i mod 4) *. Instance.total_work inst *. jitter () in
        op ~kind:"makespan" ~objective:Problem.Makespan ~mode:(Problem.Budget b) inst b)
  in
  let frontier =
    List.init 16 (fun _ ->
        let inst =
          Workload.heavy_tailed ~seed:(sub ()) ~n:2048 ~shape:1.5 ~scale:1.0 (Workload.Poisson 1.0)
        in
        let w = Instance.total_work inst in
        let queries =
          Array.init queries_per_frontier (fun k ->
              w *. (1.0 +. (7.0 *. float_of_int k /. float_of_int queries_per_frontier)))
        in
        op ~kind:"frontier" ~objective:Problem.Makespan ~mode:Problem.Pareto ~queries inst (8.0 *. w))
  in
  let multi =
    List.init 128 (fun i ->
        let inst = Workload.equal_work ~seed:(sub ()) ~n:256 ~work:1.0 (Workload.Poisson 1.0) in
        let b = [| 1.25; 1.5; 2.0; 3.0 |].(i mod 4) *. 256.0 *. jitter () in
        op ~kind:"multi" ~procs:4 ~objective:Problem.Makespan ~mode:(Problem.Budget b) inst b)
  in
  Array.of_list (flow @ makespan @ frontier @ multi)

(* one supervised operation, a frontier's point queries included *)
let solve_guarded o =
  let r = Guard.solve_with ~policy:Guard.default o.solver o.problem o.inst in
  (match r with
  | Ok { Solve_result.pareto = Some p; _ } ->
    Array.iter (fun q -> ignore (Sys.opaque_identity (p.Solve_result.value_at q))) o.queries
  | _ -> ());
  r

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* output checks, run once per distinct operation after timing *)
let check_op chk o (r : (Solve_result.t, Guard_error.t) result) =
  let what = Printf.sprintf "%s (%d jobs, %s)" o.kind (Instance.n o.inst) (Engine.name_of o.solver) in
  match r with
  | Error e -> Util.fail chk (what ^ ": " ^ Guard_error.to_string e)
  | Ok r ->
    Util.check chk
      (Solve_result.diag r "guard.degraded" = None)
      (lazy (what ^ ": the guard degraded the solve"));
    if o.kind = "frontier" then begin
      match r.Solve_result.pareto with
      | None -> Util.fail chk (what ^ ": no Pareto frontier")
      | Some p ->
        (* point queries agree with direct budget solves *)
        let incmerge = Option.get (Engine.find "incmerge") in
        Array.iteri
          (fun k q ->
            if k mod 512 = 0 then
              let direct =
                Guard.solve_with incmerge
                  (Problem.make ~objective:Problem.Makespan ~mode:(Problem.Budget q) ~alpha:3.0 ())
                  o.inst
              in
              match direct with
              | Ok d ->
                Util.check chk
                  (close (p.Solve_result.value_at q) d.Solve_result.value)
                  (lazy (Printf.sprintf "%s: frontier at %g disagrees with incmerge" what q))
              | Error e -> Util.fail chk (what ^ ": incmerge " ^ Guard_error.to_string e))
          o.queries
    end
    else begin
      match r.Solve_result.schedule with
      | None -> Util.fail chk (what ^ ": no schedule")
      | Some s ->
        (match Validate.check_with_budget (Problem.model o.problem) ~budget:o.budget o.inst s with
        | Ok () -> ()
        | Error vs ->
          Util.fail chk (what ^ ": " ^ String.concat "; " (List.map Validate.to_string vs)));
        let recomputed =
          match o.problem.Problem.objective with
          | Problem.Total_flow -> Metrics.total_flow s
          | _ -> Metrics.makespan s
        in
        Util.check chk
          (close r.Solve_result.value recomputed)
          (lazy (Printf.sprintf "%s: value %.17g, schedule gives %.17g" what r.Solve_result.value recomputed))
    end

let solver_names = [ "flow"; "incmerge"; "frontier"; "multi-cyclic" ]

let run ~seed ~seconds ~trace =
  let chk = Util.checker () in
  let setup =
    Array.init 5 (fun _ ->
        Gc.full_major ();
        snd (Util.cpu_time (fun () -> make_ops (Rng.make seed))))
  in
  (* one untimed pass on instances of their own grows the heap to its
     working size first *)
  Array.iter (fun o -> ignore (solve_guarded o)) (make_ops (Rng.make (seed lxor 0x2545f491)));
  let rng = Rng.make seed in
  let ops = ref [||] in
  let timed = ref 0.0 and solves = ref 0 in
  let passes = ref [] in  (* per pass: seconds of solving *)
  let lat = ref [] in  (* per pass: the solve times *)
  let t0 = Util.wall () in
  while !passes = [] || Util.wall () -. t0 < seconds do
    ops := [||];
    Gc.full_major ();
    ops := make_ops rng;
    let times = Array.make (Array.length !ops) 0.0 in
    let results =
      Array.mapi
        (fun i o ->
          let r, dt = Util.cpu_time (fun () -> solve_guarded o) in
          times.(i) <- dt;
          r)
        !ops
    in
    let secs = Array.fold_left ( +. ) 0.0 times in
    timed := !timed +. secs;
    solves := !solves + Array.length times;
    passes := secs :: !passes;
    lat := times :: !lat;
    Array.iteri (fun i o -> check_op chk o results.(i)) !ops
  done;
  let ops = !ops and solves = !solves in
  let nops = Array.length ops in
  let lat = Array.concat !lat in
  let end_to_end =
    Util.
      [
        m "throughput_rps" "1/s" (float_of_int nops /. median (Array.of_list !passes));
        m "latency_p50_ms" "ms" (quantile lat 0.5 *. 1e3);
        m "latency_p99_ms" "ms" (quantile lat 0.99 *. 1e3);
        m "peak_rss_mb" "MB" (peak_rss_mb None);
        m "setup_s" "s" (median setup);
      ]
  in
  let per_layer, table =
    if not trace then ([], [])
    else begin
      (* three passes each: raw engine, guarded, guarded with Obs on *)
      let reps = 3 in
      let engine = Hashtbl.create 4 in
      let engine_s = ref 0.0 and engine_w = ref 0.0 and guard_s = ref 0.0 and obs_s = ref 0.0 in
      let counts = Hashtbl.create 4 in
      for _ = 1 to reps do
        Array.iter
          (fun o ->
            let _, dt, w = Util.measure (fun () -> Engine.solve_with o.solver o.problem o.inst) in
            let name = Engine.name_of o.solver in
            let s, c = Option.value ~default:(0.0, 0) (Hashtbl.find_opt engine name) in
            Hashtbl.replace engine name (s +. dt, c + 1);
            engine_s := !engine_s +. dt;
            engine_w := !engine_w +. w;
            let _, dt =
              Util.time (fun () -> Guard.solve_with ~policy:Guard.default o.solver o.problem o.inst)
            in
            guard_s := !guard_s +. dt)
          ops
      done;
      let plain_s = ref 0.0 in
      for _ = 1 to reps do
        let (), dt = Util.time (fun () -> Array.iter (fun o -> ignore (solve_guarded o)) ops) in
        plain_s := !plain_s +. dt;
        Obs.reset ();
        Obs.set_enabled true;
        let (), dt = Util.time (fun () -> Array.iter (fun o -> ignore (solve_guarded o)) ops) in
        Obs.set_enabled false;
        obs_s := !obs_s +. dt;
        let snap = Obs.snapshot () in
        List.iter
          (fun name ->
            let v = Option.value ~default:0 (List.assoc_opt name snap.Obs_metrics.counters) in
            Hashtbl.replace counts name (v + Option.value ~default:0 (Hashtbl.find_opt counts name)))
          Util.counter_names
      done;
      let n = float_of_int (reps * nops) in
      let per_solver name =
        match Hashtbl.find_opt engine name with Some (s, c) -> s /. float_of_int c *. 1e6 | None -> 0.0
      in
      let layer =
        Util.
          [
            m "engine.solve_words" "words" (!engine_w /. n);
            m "guard.overhead_ratio" "ratio" (!guard_s /. !engine_s);
            m "obs.overhead_ratio" "ratio" (!obs_s /. !plain_s);
          ]
        @ List.map (fun name -> Util.m ("engine.solve_us." ^ name) "us" (per_solver name)) solver_names
        @ List.map
            (fun name ->
              Util.m name "count"
                (float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) /. n))
            Util.counter_names
      in
      let table =
        Printf.sprintf "solve_mix layers (%d passes of %d operations, per solve)" reps nops
        :: List.map
             (fun name -> Printf.sprintf "  engine %-14s %10.1f us" name (per_solver name))
             solver_names
        @ [
            Printf.sprintf "  guard/engine time %.4f, obs on/off time %.4f" (!guard_s /. !engine_s)
              (!obs_s /. !plain_s);
          ]
      in
      (layer, table)
    end
  in
  {
    Util.attempted = solves;
    failed = Int.min solves chk.Util.fails;
    problems = List.rev chk.Util.notes;
    end_to_end;
    per_layer;
    table =
      Printf.sprintf "solve_mix: %d passes, %d solves (latency samples) in %.3f s of solving"
        (List.length !passes) solves !timed
      :: table;
  }
