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
(** A compiled posynomial [F(y) = logsumexp_i (a_i . y + b_i)], one
    exponent row per term.  This per-term form is the allocating
    reference evaluation — property tests and
    [Smart_gp.Solver.kkt_residual] use it; the solver's Newton loop runs
    on {!program}. *)

val compile : index -> Posy.t -> t

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
    the Cholesky-based solves read the lower only; readers wanting the
    full matrix must symmetrize. *)

(** {2 Programs over a monomial basis}

    A whole geometric program — an objective [F_0] and constraints
    [F_k <= 0] — compiled in the matrix form of Boyd, Kim, Vandenberghe
    & Hassibi ("A tutorial on geometric programming", 2007):
    [F_k(y) = log (C_k . exp (A y))].  [A] holds each distinct exponent
    row once; [C] has one sparse row of coefficients per constraint over
    those basis rows.  Stage delays recur in every path through a stage,
    and scenario copies of a constraint share every row, so a generated
    program has far fewer rows than terms.  An evaluation costs one dot
    product and one [exp] per basis row plus one multiply-add per term. *)

type program

val program : index -> objective:Posy.t -> Posy.t array -> program
(** [program idx ~objective cons] compiles the objective and the
    constraints [cons.(k) <= 1] over one shared basis. *)

val dim : program -> int
(** Variable count (the index size the program was compiled against). *)

val rows : program -> int
(** Distinct exponent rows in the basis. *)

val terms : program -> int
(** Terms over the objective and every constraint. *)

val constraints : program -> int

val rescale : program -> int -> float -> unit
(** [rescale p k s] makes constraint [k] represent [s · cons.(k)], in
    place: one log-scale per constraint, absolute with respect to the
    compiled coefficients ([s = 1.] restores them).  Rows never change,
    which is what lets the solver reuse one compiled program across
    respecification rounds. *)

val same_rows : program -> int -> int -> bool
(** Constraints [j] and [k] reference the same basis rows — true of the
    scenario copies of one constraint in a corner merge. *)

val relax : program -> lo:float -> hi:float -> program
(** The phase-I program: a slack variable [s] is appended as column
    {!dim}, every constraint becomes [F_k - log s <= 0] (its rows gain
    the column with exponent [-1]; current scales carry over), the
    objective becomes [s], and the bounds [lo <= s <= hi] follow as the
    last two constraints. *)

(** {2 Kernel}

    Evaluation state for one program, reused across calls: the Newton
    loop runs on it without heap allocation.  Each evaluation computes
    [u = A y], one shared [exp (u_r - shift)] per row and one sum per
    constraint.  The shift is nonzero only when a row value would
    overflow; a constraint whose sum underflows or is not finite is
    summed again from [u] under its own max shift.  Not thread-safe;
    one kernel per solver workspace. *)

type kernel

val kernel : program -> kernel

val barrier : kernel -> t:float -> Smart_linalg.Vec.t -> float
(** [barrier k ~t y] is [t F_0(y) - sum_k log (-F_k(y))], or [infinity]
    when some [F_k(y) >= 0] (or is not a number). *)

val assemble :
  kernel -> t:float -> Smart_linalg.Mat.t -> Smart_linalg.Vec.t -> unit
(** [assemble k ~t h g] adds the barrier's Hessian (lower triangle only)
    to [h] and its gradient to [g], at the point of the last {!barrier}
    call, which must have been feasible.  The term part of the Hessian
    is added once per basis row, with its weights summed over the
    constraints; per constraint only the rank-one [(w^2 - w) g_k g_k^T]
    update remains, [w = 1 / -F_k], and constraints with one support
    (the corner copies of a constraint, at the least) share one sweep
    over its lower triangle. *)

val evaluate : kernel -> Smart_linalg.Vec.t -> float
(** Evaluate every constraint at [y] and return the largest value
    ([neg_infinity] without constraints, [infinity] for a value that is
    not a number).  [y] may be longer than {!dim}. *)

val constraint_value : kernel -> int -> float
(** [F_k] at the point of the last {!evaluate} (or feasible {!barrier}). *)
