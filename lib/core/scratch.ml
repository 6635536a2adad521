(* Per-domain scratch arena for the kernel hot paths.

   One arena per domain (a Par.Slot: Domain.DLS on OCaml 5, a lazy
   global on 4.14): a Par pool worker keeps its buffers across every
   solve it evaluates, so warm calls to Flow.solve_budget and the
   chunked Flow_frontier.curve allocate nothing proportional to the
   instance.  Buffers only ever grow; the grow counter below makes
   regrowth visible under --metrics. *)

let c_grows = Obs.counter "scratch.grows"
let c_harmonic = Obs.counter "scratch.harmonic_builds"

let float_slots = 24
let int_slots = 24
let soa_slots = 4

type t = {
  fa : floatarray array;
  ia : int array array;
  soa : Block.Soa.t array;
  mutable h : floatarray;
  mutable hp : floatarray;  (* prefix sums of h: hp.(l) = sum_{i=1..l} h.(i) *)
  mutable pw : floatarray;  (* pw.(l) = sum_{t=1..l} t^(1 - 1/alpha) *)
  mutable h_alpha : float;
  mutable h_len : int;  (* entries (0 .. h_len) of h/hp/pw are valid for h_alpha *)
}

let create () =
  {
    fa = Array.init float_slots (fun _ -> Float.Array.create 0);
    ia = Array.init int_slots (fun _ -> [||]);
    soa = Array.init soa_slots (fun _ -> Block.Soa.create 1);
    h = Float.Array.create 1;
    hp = Float.Array.create 1;
    pw = Float.Array.create 1;
    h_alpha = Float.nan;
    h_len = -1;
  }

let slot = Par.Slot.make create
let get () = Par.Slot.get slot

(* doubling keeps the number of regrowths logarithmic in the largest
   instance a domain ever sees *)
let grown_capacity old n = Int.max n (Int.max 8 (2 * old))

let floats t ~slot n =
  let cur = t.fa.(slot) in
  if Float.Array.length cur >= n then cur
  else begin
    Obs.incr c_grows;
    let b = Float.Array.create (grown_capacity (Float.Array.length cur) n) in
    t.fa.(slot) <- b;
    b
  end

let ints t ~slot n =
  let cur = t.ia.(slot) in
  if Array.length cur >= n then cur
  else begin
    Obs.incr c_grows;
    let b = Array.make (grown_capacity (Array.length cur) n) 0 in
    t.ia.(slot) <- b;
    b
  end

let block_soa t ~slot n =
  let s = t.soa.(slot) in
  if Block.Soa.capacity s < n then Obs.incr c_grows;
  Block.Soa.reserve s n;
  s

(* Harmonic-like partial-sum tables, all functions of (alpha, n) only,
   cached per domain and extended in place; the recurrences are
   deterministic, so an extended prefix is bitwise identical to a
   from-scratch rebuild:

     h.(l)  = sum_{t=1..l} t^(-1/alpha)   free-run durations (Flow)
     hp.(l) = sum_{i=1..l} h.(i)          O(1) free-run total flow
     pw.(l) = sum_{t=1..l} t^(1-1/alpha)  O(1) free-run total energy *)
let ensure_tables t ~alpha ~n =
  if not (t.h_alpha = alpha && t.h_len >= n) then begin
    Obs.incr c_harmonic;
    let lo = if t.h_alpha = alpha then t.h_len else -1 in
    let lo =
      if Float.Array.length t.h >= n + 1 then lo
      else begin
        let cap = grown_capacity (Float.Array.length t.h) (n + 1) in
        let grow cur =
          let b = Float.Array.create cap in
          Float.Array.blit cur 0 b 0 (Int.max (lo + 1) 0);
          b
        in
        t.h <- grow t.h;
        t.hp <- grow t.hp;
        t.pw <- grow t.pw;
        lo
      end
    in
    let lo =
      if lo >= 0 then lo
      else begin
        Float.Array.set t.h 0 0.0;
        Float.Array.set t.hp 0 0.0;
        Float.Array.set t.pw 0 0.0;
        0
      end
    in
    let inv_a = 1.0 /. alpha in
    for i = lo + 1 to n do
      let fi = float_of_int i in
      Float.Array.set t.h i (Float.Array.get t.h (i - 1) +. (fi ** (-1.0 /. alpha)));
      Float.Array.set t.hp i (Float.Array.get t.hp (i - 1) +. Float.Array.get t.h i);
      Float.Array.set t.pw i (Float.Array.get t.pw (i - 1) +. (fi ** (1.0 -. inv_a)))
    done;
    t.h_alpha <- alpha;
    t.h_len <- n
  end

let harmonic t ~alpha ~n =
  ensure_tables t ~alpha ~n;
  t.h

let flow_tables t ~alpha ~n =
  ensure_tables t ~alpha ~n;
  (t.h, t.hp, t.pw)
