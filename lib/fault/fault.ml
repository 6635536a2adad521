type hooks = {
  on_tick : unit -> unit;
  on_enter : string -> unit;
  on_float : string -> float -> float;
  tol_scale : float;
  iter_cap : int option;
}

exception Injected of { site : string; kind : string }

let null =
  {
    on_tick = (fun () -> ());
    on_enter = ignore;
    on_float = (fun _ v -> v);
    tol_scale = 1.0;
    iter_cap = None;
  }

let slot : hooks option Par.Slot.t = Par.Slot.make (fun () -> None)
let current () = Par.Slot.get slot
let installed () = Option.is_some (current ())
let install h = Par.Slot.set slot (Some h)
let clear () = Par.Slot.set slot None

let with_hooks h f =
  let saved = current () in
  Par.Slot.set slot (Some h);
  Fun.protect ~finally:(fun () -> Par.Slot.set slot saved) f

let tick () =
  match current () with
  | None -> ()
  | Some h -> h.on_tick ()

let enter site =
  match current () with
  | None -> ()
  | Some h -> h.on_enter site

let observe_float site v =
  match current () with
  | None -> v
  | Some h -> h.on_float site v

let tol_scale () =
  match current () with
  | None -> 1.0
  | Some h -> h.tol_scale

let cap_iters n =
  match current () with
  | None | Some { iter_cap = None; _ } -> n
  | Some { iter_cap = Some c; _ } -> Int.min n c
