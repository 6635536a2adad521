(** Instrumentation points for the guard supervision layer.

    The numerics and core solvers cannot depend on [pasched.guard]
    (it sits above them), so supervision is threaded through this tiny
    bottom-of-the-stack library instead: hot loops call {!tick}, named
    recovery-relevant sites call {!enter}/{!observe_float}, and
    tolerance/iteration knobs consult {!tol_scale}/{!cap_iters}.  All
    of them are no-ops reading one domain-local word when no hooks are
    installed, so instrumented code pays nothing in normal operation.

    Hooks live in a {!Par.Slot}: {e domain-local} on OCaml 5 (a [Par]
    worker arming fault injection for one fuzz case cannot perturb
    sibling domains) and a plain global on 4.14, where execution is
    sequential. *)

type hooks = {
  on_tick : unit -> unit;
      (** called once per iteration of instrumented loops; the guard
          deadline poll lives here.  May raise to abort the solve. *)
  on_enter : string -> unit;
      (** called on entry to a named site (e.g. ["rootfind.brent"],
          ["dp.solve"]); fault injection raises or delays here. *)
  on_float : string -> float -> float;
      (** observes (and may corrupt) a float produced at a named
          site, e.g. a root returned by Brent. *)
  tol_scale : float;  (** multiplier applied to convergence tolerances ([1.0] = unchanged) *)
  iter_cap : int option;  (** hard cap clamping per-call iteration budgets *)
}

exception Injected of { site : string; kind : string }
(** The generic fault raised by injection harnesses at an {!enter}
    site.  Solvers never raise or catch it themselves; the guard layer
    classifies it as a solver fault. *)

val null : hooks
(** Transparent hooks: every callback a no-op, [tol_scale = 1.0],
    no iteration cap.  Useful as a base for partial overrides. *)

val installed : unit -> bool
(** [true] when hooks are armed on the current domain. *)

val with_hooks : hooks -> (unit -> 'a) -> 'a
(** [with_hooks h f] runs [f] with [h] armed on the current domain,
    restoring the previous hooks (exception-safe).  Nesting replaces
    the hooks for the inner extent. *)

val install : hooks -> unit
(** Imperatively arm hooks on the current domain (prefer
    {!with_hooks}; this exists for long-lived campaign-wide plans). *)

val clear : unit -> unit
(** Disarm any hooks on the current domain. *)

(** {1 Called by instrumented code} *)

val tick : unit -> unit
(** One loop iteration elapsed.  No-op unless hooks are armed. *)

val enter : string -> unit
(** Entering the named site.  No-op unless hooks are armed. *)

val observe_float : string -> float -> float
(** [observe_float site v] is [v] unless hooks are armed, in which
    case the hook may substitute a corrupted value. *)

val tol_scale : unit -> float
(** Current tolerance multiplier ([1.0] when unarmed). *)

val cap_iters : int -> int
(** [cap_iters n] clamps an iteration budget to the armed cap
    ([n] unchanged when unarmed or uncapped). *)
