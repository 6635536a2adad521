(* The Theorem 8 certification on the exact layer (Bigint, Rat, Qpoly,
   Sturm).  One cycle certifies the boundary roots
   (Flow_hardness.boundary_roots) at five energies:

   - E = 9, the budget of the paper's own polynomial;
   - one energy a/2^k strictly inside the measured boundary window for
     each k in [denominator_bits], a odd (for k > 0) and drawn from the
     seed.

   k = 1 is drawn twice, and the window holds two such energies, 10.5
   and 11.5, so a cycle certifies both.  With five energies the median
   certification is one of the two k = 1 ones, whatever the number of
   cycles; with four, it was the slowest certification of the
   second-cheapest energy, which one slow sample moves.

   A certification's cost grows with the bit length of the energy's
   denominator (about 0.9, 1.7 and 2.4 s for k = 0, 1, 2 on a 2-core
   Xeon VM) and, beyond k = 2, also varies by 20% or more with the
   numerator, so larger k would make a run's figures depend on the seed
   and give too few certifications in a run.  The bit lengths are
   fixed, so the work per cycle is nearly the same for every seed.
   Whole cycles run until the time (wall clock) is spent; certification
   times are CPU time (see Util). *)

let denominator_bits = [ 0; 1; 1; 2 ]
let refine_eps = Rat.of_ints 1 1_000_000_000 (* boundary_roots' own width *)

(* set-up: locate the window, draw the energies, solve each one
   numerically for the later check *)
let make_energies seed =
  let lo, hi = Flow_hardness.measured_window () in
  let rng = Rng.make seed in
  (* a k drawn twice takes another numerator the second time, while
     there is one, so the seed cannot pick the costlier one twice *)
  let inside =
    List.fold_left
      (fun acc k ->
        let d = float_of_int (1 lsl k) in
        let first = int_of_float (Float.ceil ((lo +. 1e-3) *. d)) in
        let last = int_of_float (Float.floor ((hi -. 1e-3) *. d)) in
        let candidates =
          List.filter (fun a -> k = 0 || a land 1 = 1) (List.init (last - first + 1) (fun i -> first + i))
        in
        let fresh = List.filter (fun a -> not (List.mem_assoc (float_of_int a /. d) acc)) candidates in
        let pool = if fresh = [] then candidates else fresh in
        let e = float_of_int (List.nth pool (Rng.int rng (List.length pool))) /. d in
        (e, Some (Flow_hardness.sigma2_numeric ~energy:e)) :: acc)
      [] denominator_bits
  in
  (9.0, None) :: List.rev inside

let run ~seed ~seconds ~trace =
  let chk = Util.checker () in
  let setup = Array.init 9 (fun _ -> snd (Util.cpu_time (fun () -> make_energies seed))) in
  let energies = Array.of_list (make_energies seed) in
  let ne = Array.length energies in
  let roots = ref [] and lat = ref [] in
  let t0 = Util.wall () in
  let cycles = ref 0 in
  (* whole cycles, so every energy has the same number of samples; the
     last one may end up to a cycle past the run length *)
  while Util.wall () -. t0 < seconds do
    Array.iter
      (fun (e, _) ->
        let r, dt = Util.cpu_time (fun () -> Flow_hardness.boundary_roots ~energy:e) in
        roots := r :: !roots;
        lat := dt :: !lat)
      energies;
    incr cycles
  done;
  let lat = Array.of_list !lat in
  let elapsed = Array.fold_left ( +. ) 0.0 lat in
  let roots = Array.of_list (List.rev !roots) in
  (* the paper's polynomial at E = 9 *)
  Util.check chk
    (Flow_hardness.proportional
       (Flow_hardness.derived_polynomial ~energy:(Rat.of_int 9))
       Flow_hardness.paper_polynomial)
    (lazy "E=9: the derived polynomial is not proportional to the paper's");
  Array.iteri
    (fun i r ->
      let e, numeric = energies.(i mod ne) in
      Util.check chk (r = roots.(i mod ne)) (lazy (Printf.sprintf "E=%.17g: roots changed between cycles" e));
      match numeric with
      | None -> ()
      | Some s2 ->
        Util.check chk
          (List.exists (fun x -> Float.abs (x -. s2) <= 1e-6) r)
          (lazy
            (Printf.sprintf "E=%.17g: no certified root within 1e-6 of the solver's sigma2 %.12g (roots %s)" e
               s2 (String.concat "," (List.map string_of_float r)))))
    roots;
  let n = Array.length roots in
  let end_to_end =
    Util.
      [
        m "throughput_rps" "1/s" (float_of_int n /. elapsed);
        m "latency_p50_ms" "ms" (quantile lat 0.5 *. 1e3);
        m "latency_p99_ms" "ms" (quantile lat 0.99 *. 1e3);
        m "peak_rss_mb" "MB" (peak_rss_mb None);
        m "setup_s" "s" (median setup);
      ]
  in
  let per_layer, table =
    if not trace then ([], [])
    else begin
      (* one cycle through the public functions boundary_roots calls;
         isolate_roots and refine_root each build their own chain *)
      let derive = ref 0.0 and chain = ref 0.0 and isolate = ref 0.0 and refine = ref 0.0 in
      Array.iter
        (fun (e, _) ->
          let p, dt = Util.time (fun () -> Flow_hardness.derived_polynomial ~energy:(Rat.of_float_dyadic e)) in
          derive := !derive +. dt;
          let _, dt = Util.time (fun () -> Sturm.chain p) in
          chain := !chain +. dt;
          let ivs, dt = Util.time (fun () -> Sturm.isolate_roots p) in
          isolate := !isolate +. dt;
          List.iter
            (fun (lo, hi) ->
              if Rat.compare hi (Rat.of_int 1) > 0 && Rat.compare lo (Rat.of_int 2) < 0 then begin
                let _, dt = Util.time (fun () -> Sturm.refine_root p ~lo ~hi ~eps:refine_eps) in
                refine := !refine +. dt
              end)
            ivs)
        energies;
      (* each certification again with Obs off and on, back to back *)
      let off = ref 0.0 and on = ref 0.0 in
      Array.iter
        (fun (e, _) ->
          let _, dt = Util.time (fun () -> Flow_hardness.boundary_roots ~energy:e) in
          off := !off +. dt;
          Obs.reset ();
          Obs.set_enabled true;
          let _, dt = Util.time (fun () -> Flow_hardness.boundary_roots ~energy:e) in
          Obs.set_enabled false;
          on := !on +. dt)
        energies;
      let per s = s /. float_of_int ne *. 1e3 in
      let layer =
        Util.
          [
            m "flow_hardness.derive_ms" "ms" (per !derive);
            m "sturm.chain_ms" "ms" (per !chain);
            m "sturm.isolate_ms" "ms" (per !isolate);
            m "sturm.refine_ms" "ms" (per !refine);
            m "obs.overhead_ratio" "ratio" (!on /. !off);
          ]
      in
      let table =
        [
          Printf.sprintf "exact_thm8 layers (per certification, %d energies)" ne;
          Printf.sprintf "  derive %.3f ms, chain %.3f ms, isolate %.3f ms, refine %.3f ms" (per !derive)
            (per !chain) (per !isolate) (per !refine);
        ]
      in
      (layer, table)
    end
  in
  {
    Util.attempted = n;
    failed = Int.min n chk.Util.fails;
    problems = List.rev chk.Util.notes;
    end_to_end;
    per_layer;
    table =
      Printf.sprintf "exact_thm8: %d certifications (latency samples; p99 is the slowest) in %d cycles over energies %s" n !cycles
        (String.concat ", " (Array.to_list (Array.map (fun (e, _) -> Printf.sprintf "%.17g" e) energies)))
      :: table;
  }
