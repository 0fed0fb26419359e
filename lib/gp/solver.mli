(** Interior-point solver for geometric programs.

    The problem is transformed to convex form by [y = log x]
    (posynomials become log-sum-exp functions, see {!Smart_posy.Logspace})
    and solved with a standard log-barrier method: damped Newton inner
    iterations with backtracking line search, barrier parameter increased
    geometrically until the duality gap bound [m/t] is below tolerance.
    A phase-I problem (minimise a slack scale [S] with [f_k(x) <= S])
    produces the strictly feasible start.  The method's constants are
    fixed: gap bound 1e-7, barrier growth 20 per centering from an
    initial parameter of 1, Newton decrement tolerance 1e-8, at most 250
    Newton steps per centering and 60 centerings.

    {2 Incremental hot path}

    Iterated workloads — the sizer's respecification loop solves the same
    program 2–9 times with rescaled constraint budgets — use the split
    API: {!prepare} compiles once, {!rescale_compiled} patches the
    compiled coefficients in place (budget rescales never change exponent
    rows), and {!resolve} re-solves, warm-started from the previous
    round's log-space solution ({!warm_handle}).  A strictly feasible
    warm point skips phase I entirely and restarts the barrier near the
    previous final parameter.  The program is compiled over its distinct
    monomials ({!Smart_posy.Logspace.program}): each barrier evaluation
    costs one [exp] per basis row, not per term.  All inner-loop vectors
    and matrices live in a per-problem workspace, so warm re-solves
    allocate nothing per Newton iteration.  A [prepared] problem owns
    mutable state (compiled coefficients, workspace) — do not share one
    across domains. *)

type status =
  | Optimal
  | Infeasible  (** phase I could not drive the slack below 1 *)
  | Iteration_limit

type warm_start
(** A restart handle for {!resolve} on the same prepared problem (same
    variable set): a well-centred mid-path iterate and its barrier
    parameter, not the final boundary-hugging optimum — the snapshot
    keeps enough constraint margin to stay strictly feasible across the
    sizer's modest budget rescales. *)

type solution = {
  status : status;
  values : (string * float) list;  (** optimal variable assignment *)
  objective_value : float;
  duals : (string * float) list;  (** approximate dual per inequality *)
  newton_iterations : int;  (** total inner iterations, both phases *)
  centering_steps : int;
  warm_started : bool;
      (** phase I was skipped: the supplied warm point was strictly
          feasible *)
  restart : warm_start option;
      (** handle for warm-starting the next {!resolve}; [None] for
          infeasible or fully-determined solutions *)
}

type prepared
(** A compiled problem plus its solver workspace, reusable across
    {!resolve} calls. *)

val prepare : Problem.t -> prepared
(** Eliminate equalities, apply default bounds and compile the objective,
    inequalities and bounds to one log-space program over their distinct
    exponent rows.  Raises {!Smart_util.Err.Smart_error} on malformed
    problems. *)

type structure_stats = {
  families : int;
      (** scenario copies of one constraint ({!Problem.merge}) that share
          one row list, counted once per constraint *)
  bundled_constraints : int;  (** constraints in those families *)
  scenarios : int;  (** distinct scenario tags *)
  rows : int;  (** distinct exponent rows of the compiled program *)
  terms : int;  (** terms of the objective, inequalities and bounds *)
}

val structure_stats : prepared -> structure_stats
(** The compiled program's size and scenario structure, computed once by
    {!prepare}.  Zero for a problem fully determined by equalities. *)

val rescale_compiled : prepared -> (string -> float) -> unit
(** [rescale_compiled p scale] patches each compiled inequality [f <= 1]
    into [scale name · f <= 1], in place, without recompiling — one
    log-scale per constraint, O(m).  Factors are absolute with respect to the
    problem as prepared (calling with [fun _ -> 1.] restores it), matching
    {!Smart_constraints.Constraints.rescale} semantics when fed
    {!Smart_constraints.Constraints.rescale_factors}. *)

val resolve : ?warm:warm_start -> prepared -> (solution, string) result
(** Solve the prepared (possibly rescaled) problem.  With [warm]: if the
    point is strictly feasible with margin, phase I is skipped and the
    barrier resumes at the snapshot's own parameter; otherwise the point
    still seeds phase I.  Emits a ["gp.solve"] tracepoint with [warm],
    [rows] and [terms] attributes. *)

val warm_handle : solution -> warm_start option
(** The solution's {!solution.restart} handle. *)

val warm_of_values : prepared -> (string * float) list -> warm_start option
(** Build a warm-start point from variable values in problem space (e.g. a
    related problem's solution).  [None] when any compiled variable is
    missing or non-positive — fall back to a cold resolve. *)

val solve : Problem.t -> (solution, string) result
(** [prepare] + cold [resolve], under one ["gp.solve"] tracepoint (its
    time includes the compile).  [Error] is reserved for malformed
    problems (empty variable set, unbounded by construction); solver
    outcomes are reported in [status]. *)

val lookup : solution -> string -> float
(** Value of a variable in the solution; raises if absent. *)

val kkt_residual : Problem.t -> solution -> float
(** Infinity norm of the KKT stationarity residual (in log space) at the
    solution, using the reported duals — small at a true optimum.
    Evaluated per term ({!Smart_posy.Logspace.value_grad}), independently
    of the compiled kernel the solver ran on.  Used by {!Certify} and
    property tests. *)

val kernel_max_rel_diff : prepared -> (string * float) list -> float
(** Self-check of the compiled kernel at a point given by its variable
    values (e.g. a solution's): the largest difference between the
    kernel's barrier value, gradient and lower-triangle Hessian at
    barrier parameter 1 and the same quantities summed per term from
    {!Smart_posy.Logspace.value_grad} and
    {!Smart_posy.Logspace.add_weighted_hessian}, each relative to the
    reference's largest magnitude (at least 1).  Uses the current
    {!rescale_compiled} factors; [infinity] where the point violates a
    constraint.  Allocates; meant for benches and tests. *)
