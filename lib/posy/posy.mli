(** Posynomials: finite sums of {!Monomial}s.

    Posynomials are closed under addition, multiplication, positive scaling
    and division by monomials — exactly the closure properties the SMART
    constraint generator relies on (delays through a path add; loads are
    sums of gate-capacitance monomials; a path constraint [delay <= T]
    becomes the posynomial inequality [delay / T <= 1]). *)

type t
(** A posynomial (possibly a bare monomial; never empty). *)

val of_monomial : Monomial.t -> t
val of_monomials : Monomial.t list -> t
(** Requires a non-empty list; like monomials are merged. *)

val const : float -> t
val var : string -> t
val monomials : t -> Monomial.t list

val add : t -> t -> t
val sum : t list -> t
(** Requires a non-empty list. *)

val mul : t -> t -> t
val scale : float -> t -> t
(** Requires a positive factor. *)

val div_monomial : t -> Monomial.t -> t
val mul_monomial : t -> Monomial.t -> t
val pow_int : t -> int -> t
(** Non-negative integer power. *)

val as_monomial : t -> Monomial.t option
(** [Some m] iff the posynomial has exactly one term. *)

val is_const : t -> bool
val num_terms : t -> int
val vars : t -> string list
(** Sorted, deduplicated variable names. *)

val eval : (string -> float) -> t -> float
val subst : string -> Monomial.t -> t -> t
(** Substitute a monomial for a variable (posynomials are closed under
    monomial substitution). *)

val subst_posy : string -> t -> t -> t
(** Substitute a posynomial for a variable.  Only valid when every
    occurrence of the variable has a non-negative integer exponent
    (raises otherwise) — used by model composition for slope terms. *)

val equal : t -> t -> bool

val drop_tiny : rel:float -> t -> t
(** Drop monomials whose coefficient is below [rel] times the largest
    coefficient (keeping at least one term).  Used to stop slope-model
    compositions growing unboundedly; the dropped mass is negligible by
    construction. *)

val dominates : t -> t -> bool
(** [dominates p q] holds when [p >= q] pointwise over all positive
    assignments, established term-by-term: every monomial of [q] appears in
    [p] with the same exponents and a coefficient at least as large.
    (Sufficient, not necessary.)  Used for §5.2-style dominance pruning:
    a constraint [q <= 1] is implied by [p <= 1]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
