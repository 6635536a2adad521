type t = { base_ms : float; cap_ms : float; rng : Rng.t; mutable prev_ms : float }

let create ?(cap_ms = 10_000.) ?(seed = 0) ~base_ms () =
  if base_ms <= 0.0 then invalid_arg "Serve_retry.create: base_ms must be > 0";
  if cap_ms < base_ms then invalid_arg "Serve_retry.create: cap_ms must be >= base_ms";
  { base_ms; cap_ms; rng = Rng.make seed; prev_ms = base_ms }

let next_ms t =
  (* decorrelated jitter: uniform in [base, 3*prev], clamped *)
  let hi = Float.max t.base_ms (3.0 *. t.prev_ms) in
  let sleep = t.base_ms +. Rng.float t.rng (hi -. t.base_ms) in
  let sleep = Float.min t.cap_ms sleep in
  t.prev_ms <- sleep;
  sleep

let reset t = t.prev_ms <- t.base_ms

let is_transient_reply line =
  match Serve_protocol.status_of line with Some ("busy" | "degraded") -> true | _ -> false
