(** Log-space compilation of posynomials.

    Under the change of variables [y = log x], a posynomial
    [f(x) = sum_i c_i prod_j x_j^{a_ij}] becomes
    [F(y) = log f(e^y) = logsumexp_i (a_i . y + b_i)] with [b_i = log c_i],
    which is convex — the transformation that makes geometric programs
    efficiently solvable (Ecker 1980; the paper's §5, refs [6,7]).

    This module compiles a {!Posy.t} against a variable index and exposes
    numerically stable value / gradient / Hessian evaluation in [y]. *)

type index
(** Bijection between variable names and dense indices [0 .. n-1]. *)

val index_of_vars : string list -> index
(** Build an index from a list of names (deduplicated, order preserved). *)

val index_size : index -> int
val index_position : index -> string -> int
(** Raises if the variable is unknown. *)

val index_name : index -> int -> string
val index_names : index -> string list

type t
(** A compiled posynomial [F(y) = logsumexp_i (a_i . y + b_i)], stored as
    flat CSR arrays (term offsets / column indices / exponents) so the
    evaluation loops run over unboxed floats. *)

val compile : index -> Posy.t -> t
(** Terms are ordered canonically by exponent row (total because a
    {!Posy.t} holds at most one monomial per distinct exponent vector).
    The order depends only on the rows, never the coefficients, so
    scenario copies of one constraint — same structure, scaled
    coefficients — compile to term-aligned forms ({!family_of}). *)

val value : t -> Smart_linalg.Vec.t -> float
(** [value f y] is [F(y)] = log of the posynomial at [x = exp y]. *)

val value_grad : t -> Smart_linalg.Vec.t -> float * Smart_linalg.Vec.t
(** Value and gradient. *)

val add_weighted_hessian :
  t -> Smart_linalg.Vec.t -> float -> Smart_linalg.Mat.t -> float * Smart_linalg.Vec.t
(** [add_weighted_hessian f y w h] accumulates [w * hess F(y)] into the
    {e lower triangle} of [h] (in place) and returns [(F(y), grad F(y))].
    The Hessian of a logsumexp is [sum_i p_i a_i a_i^T - g g^T] with
    softmax weights [p].  The upper triangle of [h] is never written —
    the Cholesky-based solves read the lower only, and mirroring would
    double the assembly cost; readers wanting the full matrix must
    symmetrize. *)

val num_terms : t -> int

val rescale : t -> float -> unit
(** [rescale f s] patches the compiled coefficients in place so [f]
    represents [s · p], where [p] is the posynomial originally passed to
    {!compile}.  The factor is absolute (relative to compile time), not
    cumulative, and exponent rows are untouched — rescaling a constraint
    budget never changes the exponents, which is what lets the GP solver
    reuse one compiled problem across respecification rounds. *)

val mul_var : t -> int -> float -> t
(** [mul_var f j e] is the compiled form of [f · x_j^e] ([j] a valid index
    position): every term gains the exponent pair.  Coefficients are
    captured at their *current* (possibly rescaled) values.  Used to build
    the phase-I problem directly in compiled space. *)

(** {2 Workspace evaluation}

    The solver's inner Newton loop evaluates values, gradients and
    Hessians thousands of times per solve; these variants reuse one
    {!scratch} so the loop performs no heap allocation. *)

type scratch
(** Reusable buffers (softmax values/probabilities, gradient accumulator).
    Not thread-safe; use one per solver instance. *)

val make_scratch : n:int -> max_terms:int -> scratch
(** [n] is the variable-index size, [max_terms] the largest term count
    expected (grown automatically if exceeded). *)

val value_ws : scratch -> t -> Smart_linalg.Vec.t -> float
(** Allocation-free {!value}. *)

val add_objective_term :
  scratch -> t -> Smart_linalg.Vec.t -> weight:float ->
  Smart_linalg.Mat.t -> Smart_linalg.Vec.t -> float
(** [add_objective_term s f y ~weight h g] accumulates
    [weight * hess F(y)] into the lower triangle of [h] and
    [weight * grad F(y)] into [g] (both in place, touching only the
    support) and returns [F(y)].  Allocation-free. *)

val add_barrier_term :
  scratch -> t -> Smart_linalg.Vec.t ->
  Smart_linalg.Mat.t -> Smart_linalg.Vec.t -> float
(** [add_barrier_term s f y h g] accumulates the Hessian and gradient of
    the log-barrier term [-log(-F(y))] into the lower triangle of [h]
    and into [g], and returns [F(y)].  When [F(y) >= 0] (infeasible) it
    returns the value without touching [h] or [g].  Single-term
    posynomials (bounds, monomial constraints) skip the softmax
    entirely: no [exp]/[log] on that path.  Allocation-free. *)

val add_scaled_grad :
  scratch -> t -> Smart_linalg.Vec.t -> float -> Smart_linalg.Vec.t -> float
(** [add_scaled_grad s f y lambda r] accumulates [lambda * grad F(y)]
    into [r] (touching only the support) and returns [F(y)].
    Allocation-free — the KKT residual assembly's replacement for
    {!value_grad}. *)

(** {2 Constraint families}

    A merged multi-scenario problem carries one copy of each constraint
    per scenario; the copies share exponent rows exactly (corner merges
    scale RC products and budgets, never exponents) and, thanks to the
    canonical {!compile} order, share term order too.  A {!family}
    evaluates all members from a single pass of term dot products and a
    single pass of [exp]: member [c]'s softmax terms are
    [ratio_c(i) * E_i] with [E_i] the shared shifted exponentials and
    [ratio_c(i) = coef_c(i)/coef_0(i)] precomputed, so per-member work is
    multiply-adds.  The shared term-part Hessian
    [sum_i (sum_c w_c p_ci) a_i a_i^T] is accumulated once with combined
    weights; only the rank-one gradient outer products stay per-member.
    Results agree with the member-at-a-time path up to roundoff. *)

type family

val family_of : t array -> family option
(** [family_of members] bundles the compiled forms when they share term
    structure exactly (same rows, same order); [None] when they differ
    or fewer than two members are given.  Coefficient ratios are
    captured from the members' current (possibly rescaled) values. *)

val family_refresh : family -> unit
(** Recompute the coefficient ratios from the members' current
    coefficients — required after {!rescale} of any member. *)

val add_barrier_family :
  scratch -> family -> Smart_linalg.Vec.t ->
  Smart_linalg.Mat.t -> Smart_linalg.Vec.t -> phi:float ref -> float
(** [add_barrier_family s fam y h g ~phi] accumulates every member's
    log-barrier Hessian (lower triangle) and gradient into [h] and [g],
    adds [sum_c -log(-F_c(y))] to [phi], and returns the worst (largest)
    member value.  When that value is [>= 0] (some member infeasible)
    nothing is written.  Allocation-free. *)

val family_value_ws :
  scratch -> family -> Smart_linalg.Vec.t -> phi:float ref -> float
(** Line-search companion: adds the members' barrier values to [phi]
    (only when all are feasible) and returns the worst member value.
    Allocation-free. *)
