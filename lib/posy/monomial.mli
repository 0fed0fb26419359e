(** Monomials [c * x1^a1 * ... * xn^an] with [c > 0] over named variables.

    Monomials are the atoms of posynomials and the only functions a
    geometric program admits as equality constraints.  Variables are
    identified by name (size labels such as ["P1"], slope variables such as
    ["slope:out"]). *)

type t
(** Immutable monomial with strictly positive coefficient. *)

val const : float -> t
(** [const c] is the constant monomial [c]; requires [c > 0]. *)

val var : string -> t
(** [var x] is the monomial [x]. *)

val make : float -> (string * float) list -> t
(** [make c exps] is [c * prod x_i^e_i]; requires [c > 0].  Duplicate
    variables have their exponents summed; zero exponents are dropped. *)

val coeff : t -> float
val exponents : t -> (string * float) list
(** Sorted by variable name; no zero exponents, no duplicates. *)

val degree_of : t -> string -> float
(** Exponent of a variable (0 when absent). *)

val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> float -> t
val scale : float -> t -> t
(** [scale a m] multiplies the coefficient; requires [a > 0]. *)

val inv : t -> t
val is_const : t -> bool
val vars : t -> string list

val eval : (string -> float) -> t -> float
(** Evaluate under a positive assignment. *)

val subst : string -> t -> t -> t
(** [subst x m' m] replaces variable [x] by monomial [m'] in [m]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
