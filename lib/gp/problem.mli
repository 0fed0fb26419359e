(** Geometric programs in standard form.

    minimize    [objective(x)]                    (posynomial)
    subject to  [f_k(x) <= 1]                     (posynomials, named)
                [g_j(x)  = 1]                     (monomials, named)
                [lo_i <= x_i <= hi_i]             (per-variable bounds)

    over strictly positive variables [x].  Monomial equalities are
    eliminated by substitution before solving (a monomial equality can
    always be solved for one of its variables); bounds become monomial
    inequalities. *)

module Posy = Smart_posy.Posy
module Monomial = Smart_posy.Monomial

type t = {
  objective : Posy.t;
  inequalities : (string * Posy.t) list;  (** name, f with [f <= 1] meant *)
  equalities : (string * Monomial.t) list;  (** name, g with [g = 1] meant *)
  bounds : (string * float * float) list;  (** variable, lower, upper *)
}

val make :
  ?inequalities:(string * Posy.t) list ->
  ?equalities:(string * Monomial.t) list ->
  ?bounds:(string * float * float) list ->
  Posy.t ->
  t
(** Build a problem; validates that bounds are positive and ordered. *)

val constraint_le : string -> Posy.t -> Posy.t -> (string * Posy.t) option
(** [constraint_le name lhs rhs] renders [lhs <= rhs] as a standard-form
    inequality when [rhs] is a monomial: [lhs/rhs <= 1].  [None] when [rhs]
    is not a monomial (the caller must restructure). *)

val variables : t -> string list
(** Every variable occurring in the problem (sorted). *)

val eliminate_equalities : t -> t * (string * Monomial.t) list
(** Substitute away each monomial equality.  Returns the reduced problem and
    the eliminated variables with the monomials (over remaining variables)
    that reconstruct them. *)

val merge : objective:Posy.t -> (string * t) list -> t
(** [merge ~objective tagged] joins several problems over a {e shared}
    variable set into one: each scenario's inequalities are copied under
    names tagged [<tag>@<name>] (so per-scenario budget rescales can
    still address them — see {!split_scenario}), bounds are intersected
    per variable, and the scenarios' own objectives are replaced by
    [objective].  This is the joint robust-GP construction: one width
    vector, per-corner constraint coefficients.  Scenarios must be
    equality-free (constraint generation emits none) and tags must not
    contain ['@'].  Raises {!Smart_util.Err.Smart_error} on an empty
    scenario list. *)

val scenario_name : tag:string -> string -> string
(** The merged name [<tag>@<name>] {!merge} gives a scenario constraint. *)

val split_scenario : string -> (string * string) option
(** Invert {!scenario_name}: [Some (tag, name)] for merged constraint
    names, [None] for unmerged ones. *)

val default_bounds : lo:float -> hi:float -> t -> t
(** Add [lo <= x <= hi] for every variable lacking an explicit bound. *)

val pp : Format.formatter -> t -> unit
