(* Measurement helpers shared by the workloads: the clocks, allocation
   counts, nearest-rank quantiles, peak RSS and the metric rows every
   workload reports.

   Two clocks.  [wall] is monotonic wall-clock time: it sets how long a
   run measures, and times the per-layer stages, which are too short for
   anything but a vDSO clock read.  [cpu] is CPU time (cpuclock.c): the
   end-to-end figures use it, because on a shared host the wall clock
   also counts the time the CPU spends on other tenants, and identical
   runs then differ by up to a factor of two. *)

external cpu_ns : int -> int = "perfbench_cpu_ns" [@@noalloc]
external allowed_cpus : unit -> int = "perfbench_allowed_cpus" [@@noalloc]
external pin_cpu : int -> bool = "perfbench_pin_cpu" [@@noalloc]

let wall () = Int64.to_float (Obs_clock.now_ns ()) *. 1e-9

(* CPU seconds of this process, all threads *)
let cpu () = float_of_int (cpu_ns 0) *. 1e-9

(* CPU seconds of a live child process *)
let cpu_of pid =
  let ns = cpu_ns pid in
  if ns < 0 then failwith (Printf.sprintf "cannot read the CPU clock of process %d" pid);
  float_of_int ns *. 1e-9

(* idle + iowait ticks of each CPU, from /proc/stat *)
let idle_ticks () =
  let ic = open_in "/proc/stat" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line when String.length line > 3 && String.sub line 0 3 = "cpu" && line.[3] <> ' ' ->
          go (Scanf.sscanf line "cpu%d %d %d %d %d %d" (fun c _ _ _ idle iowait -> (c, idle + iowait)) :: acc)
        | _ -> go acc
        | exception End_of_file -> acc
      in
      go [])

(* Pin this process, and the children it starts afterwards, to the
   allowed CPU that was idle longest over a short sample; returns it. *)
let pin_quietest_cpu () =
  let mask = allowed_cpus () in
  let before = idle_ticks () in
  Unix.sleepf 0.2;
  let best =
    List.fold_left
      (fun best (c, ticks) ->
        if c >= 62 || mask land (1 lsl c) = 0 then best
        else
          let idle = ticks - Option.value ~default:ticks (List.assoc_opt c before) in
          match best with Some (_, b) when b >= idle -> best | _ -> Some (c, idle))
      None (List.rev (idle_ticks ()))
  in
  match best with Some (c, _) when pin_cpu c -> Some c | _ -> None

(* words allocated by this domain so far (minor + direct major) *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* run [f ()], returning its result, wall seconds and allocated words *)
let measure f =
  let w0 = words () in
  let t0 = wall () in
  let r = f () in
  let t1 = wall () in
  (r, t1 -. t0, words () -. w0)

let time f =
  let r, dt, _ = measure f in
  (r, dt)

(* run [f ()], returning its result and this process's CPU seconds *)
let cpu_time f =
  let t0 = cpu () in
  let r = f () in
  (r, cpu () -. t0)

(* nearest-rank quantile of an unsorted sample, [q] in (0, 1] *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(Int.max 0 (Int.min (n - 1) k))
  end

let median xs = quantile xs 0.5

(* VmHWM of a live process, in MB (kB in /proc) *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* what one run reports: its correctness tally and both metric sets *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (* one line per failed output check, capped *)
  end_to_end : metric list;
  per_layer : metric list;  (* filled only by traced runs *)
  table : string list;  (* human-readable lines printed before the result *)
}

(* a bounded list of failure descriptions, so a systematic defect does
   not flood the output *)
type checker = { mutable fails : int; mutable notes : string list }

let checker () = { fails = 0; notes = [] }

let fail c msg =
  c.fails <- c.fails + 1;
  if c.fails <= 10 then c.notes <- msg :: c.notes

let check c ok msg = if not ok then fail c (Lazy.force msg)

(* kernel work counters reported per solve by the traced runs *)
let counter_names = [ "rootfind.calls"; "rootfind.newton_iters"; "flow.run_merges"; "incmerge.merge_rounds" ]
