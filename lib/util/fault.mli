(** Fault injection for exercising degradation paths.

    Production code threads named {e sites} through its failure-prone
    spots ([Fault.fire "sizer.gp"], [Fault.scale "sta.golden" x]); tests
    arm a site with an {!action} and a shot count, run the workload, and
    assert the failure surfaced as a structured {!Err.t} rather than an
    uncaught exception or a poisoned cache entry.  When a site is not
    armed the hooks are a single mutex-guarded hashtable probe, and the
    registry starts empty, so production behaviour is unchanged.

    The registry is global and mutex-guarded: arming is expected from the
    test thread while worker domains fire, and a shot count of [n] means
    the first [n] calls to {!fire} observe the action. *)

type action =
  | Error_result of string
      (** the site should return an [Error]/failure result carrying this
          message instead of computing *)
  | Raise of string  (** the site should raise {!Err.Smart_error} *)
  | Scale of float
      (** the site should multiply its numeric result by this factor
          (used to force STA/model disagreements) *)

val arm : ?count:int -> string -> action -> unit
(** [arm site action] makes the next [count] (default 1) calls to
    [fire site] return [Some action].  Re-arming replaces any previous
    arming of the same site. *)

val reset : unit -> unit
(** Disarm every site and clear fired counters. *)

val fire : string -> action option
(** Called by production code at an injection site.  Consumes one shot
    and returns the armed action, or [None] when the site is not armed
    (or its shots are exhausted). *)

val scale : string -> float -> float
(** [scale site v] is [v *. f] when the site is armed with [Scale f]
    (consuming a shot), [v] otherwise.  Non-[Scale] actions are returned
    to the caller via {!fire} semantics — use {!fire} directly when a
    site supports several action kinds. *)

val fired : string -> int
(** How many shots [site] has consumed since the last {!reset} — lets
    tests assert the injected path was actually reached. *)
