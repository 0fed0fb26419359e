(** Process-corner sets and the joint robust-GP construction.

    The paper's flow is trusted once the golden timer confirms the GP's
    sizing; industrially that confirmation happens {e at process
    corners}, not just typical.  This module models a corner as a named
    RC-product excursion of a base {!Smart_tech.Tech.t} (via
    {!Smart_tech.Tech.scaled}) and builds the {b joint robust sizing
    program}: constraint generation runs once per corner against the
    {e shared} size labels, and the per-corner posynomial delay
    constraints are merged into one GP — widths common, coefficients
    per-corner ({!Smart_gp.Problem.merge}).  A single solve then yields
    one sizing simultaneously subject to every corner's timing, slope and
    precharge constraints, the per-corner analogue of replacing a blanket
    worst-case derate with explicit per-corner constraint sets. *)

module Tech = Smart_tech.Tech
module Constraints = Smart_constraints.Constraints

type corner = {
  corner_name : string;
  rc_scale : float;  (** RC-product factor relative to the base process *)
  tech : Tech.t;  (** the scaled technology the corner times against *)
}

type set
(** A non-empty list of corners with distinct names (no ['@'] or [','],
    both reserved by the constraint tagging and the CLI syntax).  Plain
    data throughout — safe to digest structurally for solve caches. *)

val corner : ?base:Tech.t -> name:string -> rc_scale:float -> unit -> corner
(** A corner of [base] (default {!Smart_tech.Tech.default}) at the given
    RC excursion.  Raises {!Smart_util.Err.Smart_error} on a non-positive
    scale. *)

val of_corners : corner list -> set
(** Validate a corner list into a set.  Raises
    {!Smart_util.Err.Smart_error} on empty lists, duplicate or malformed
    names. *)

val default_set : ?base:Tech.t -> unit -> set
(** The canonical [fast] (0.6×), [typ] (1.0×), [slow] (1.4×) set. *)

val typ_only : ?base:Tech.t -> unit -> set
(** Just the nominal corner — robust sizing over it is the single-corner
    flow at that corner (useful for A/B overhead measurements). *)

val of_tech : Tech.t -> set
(** The one-corner set that times against [tech] exactly as given
    ([rc_scale] 1, named after the technology) — what single-technology
    sizing sizes. *)

val of_string : ?base:Tech.t -> string -> (set, string) result
(** Parse the CLI syntax: comma-separated corner names, each a builtin
    ([fast], [typ], [slow]) or a custom [name:rc_scale] pair — e.g.
    ["fast,typ,slow"] or ["typ,hot:1.6"]. *)

val to_list : set -> corner list
val names : set -> string list
val to_string : set -> string  (** comma-joined names (CLI syntax) *)

val nominal : set -> corner
(** The corner whose [rc_scale] is closest to 1 — the reference point for
    robust-vs-typ overhead comparisons. *)

(** {1 Joint robust constraint generation} *)

type merged = {
  generated : Constraints.result;
      (** the merged program: one shared width vector, every corner's
          constraints tagged [c<i>@<name>]; counts are summed over
          corners, [area] and [path_count] are per-corner (identical
          across corners — the netlist is shared).  A one-corner set's
          program is that corner's own, untagged. *)
  per_corner : (corner * Constraints.result) list;
      (** each corner's own generated program, in set order — what the
          sizer derives its min-delay pre-solve from *)
}

val generate_robust : set -> Smart_circuit.Netlist.t -> Constraints.spec -> merged
(** Generate each corner's area program (all path reductions) against
    the shared size labels and merge them into one GP
    ({!merge_generated}). *)

val merge_generated : (corner * Constraints.result) list -> merged
(** Merge per-corner programs already generated (in set order) — the
    second half of {!generate_robust}, for callers that run the
    generations themselves (the sizer maps them over its worker pool).
    Raises {!Smart_util.Err.Smart_error} on an empty list. *)

val tag_of_index : int -> string
(** The scenario tag ([c<i>]) {!generate_robust} gives corner [i]. *)

val index_of_tag : string -> int option

val rescale_factors :
  timing:float array -> precharge:float array -> string -> float
(** Per-constraint budget factor for the merged program, keyed by merged
    constraint name: corner [i]'s constraints are rescaled by its own
    [timing.(i)] / [precharge.(i)] entries (via
    {!Constraints.rescale_factors}); unmerged names get [1.], except
    that one-entry arrays address a one-corner set's untagged program.
    Feed to {!Smart_gp.Solver.rescale_compiled} — the respecification
    loop's per-corner retargeting. *)
