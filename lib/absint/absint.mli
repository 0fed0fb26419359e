(** Abstract interpretation over geometric programs, in log space.

    A static analysis pass over {!Smart_gp.Problem} values: every
    variable gets a log-space {!Interval} seeded from its declared
    bounds, intervals propagate forward through posynomial terms
    (interval log-sum-exp, with the monomial transfer exact), and
    constraint budgets propagate {e backward} — a term of [f <= B] can
    use at most what the other terms' proven minima leave of the budget,
    which tightens the variables it mentions — to a capped fixed point.

    Three products fall out of the fixed point:
    {ul
    {- {b proofs}: guaranteed bounds on the objective and on every
       variable over the feasible region ({!var_interval}) — e.g. a
       lower bound on achievable delay no solver run can beat;}
    {- {b infeasibility certificates}: a constraint whose proven lower
       bound exceeds every budget its surrounding loop could grant is
       reported as a {!certificate} — the caller can reject the
       specification {e before} compiling or solving anything;}
    {- {b presolve reduction} ({!reduce}, fixed-budget analyses only):
       constraints proven slack are dropped, same-budget-class
       constraints implied by a kept one (term-wise or interval
       dominance) are dropped, and variable bounds tighten to the
       narrowed box, so {!Smart_gp.Solver.prepare} compiles a measurably
       smaller program.  The variable set and constraint
       names are preserved, so advice, warm starts and budget rescales
       keyed by name work unchanged on the reduced program.}}

    Soundness contract: the narrowed box contains every point that is
    feasible under {e any} budget assignment the {!cls} classification
    allows, so intervals always enclose the solved optimum (and any
    feasible operating point).  All certificates carry a multiplicative
    [excess] and are only issued beyond a small margin, so floating-point
    roundoff cannot reject a feasible specification. *)

module Interval = Interval
module Problem = Smart_gp.Problem
module Posy = Smart_posy.Posy

(** {1 Budget classification} *)

type cls = {
  factor_class : string;
      (** constraints sharing a [factor_class] are rescaled by one
          common budget factor at solve time — dominance within a class
          survives any rescale of that class *)
  relax : float;
      (** the largest relaxation factor the surrounding loop can grant
          this class ([f <= relax] is the loosest the constraint gets);
          [1.] for fixed budgets, [infinity] = never certify against it *)
  tightest : float;
      (** the largest {e tightening} factor ([f <= 1/tightest] is the
          tightest); a constraint is provably never-binding only when it
          clears even that budget.  [1.] for fixed budgets. *)
}

val fixed_budget : string -> cls
(** Every constraint keeps its generated budget exactly ([relax] and
    [tightest] both [1.], one shared factor class) — the right
    classification for programs solved directly with
    {!Smart_gp.Solver.solve} (bench A/B runs, merged corner programs
    outside the sizer loop). *)

val sizer_classes : robust:bool -> string -> cls
(** What the {!Smart_sizer.Sizer} respecification loop can do to each
    constraint, keyed by the generated name (and scenario tag for merged
    corner programs): evaluate/stage timing budgets are retargeted
    without bound (never certified against), precharge budgets relax or
    tighten within the loop's clamped retarget range, and slope/bound
    constraints are never rescaled at all.  [robust] widens the
    precharge range by the robust loop's per-corner calibration. *)

type options = {
  classify : string -> cls;
  max_sweeps : int;  (** narrowing fixed-point cap (default 8) *)
  margin : float;
      (** relative slack required before certifying or dropping
          (default 1e-6) — the roundoff guard *)
}

val default_options : options
(** {!fixed_budget} classification. *)

val sizer_options : robust:bool -> options
(** {!sizer_classes} classification. *)

(** {1 Analysis} *)

type certificate = {
  constraint_name : string;
  scenario : string option;  (** corner tag for merged constraint names *)
  excess : float;
      (** proven factor by which the constraint exceeds its most-relaxed
          budget ([> 1 + margin]) *)
  budget : float;  (** that most-relaxed budget, linear space *)
  detail : string;  (** one human-readable sentence *)
}

type constraint_bound = {
  name : string;
  cls : cls;
  bound : Interval.t;  (** of the constraint posynomial, narrowed box *)
  binding_possible : bool;
      (** the interval reaches the class's tightest budget — [false]
          means provably slack at every reachable budget *)
}

type t = {
  problem : Problem.t;
  vars : string array;  (** sorted, = {!Problem.variables} *)
  seed : Interval.t array;  (** per variable, from the declared bounds *)
  box : Interval.t array;  (** per variable, after narrowing *)
  constraints : constraint_bound array;  (** inequality order preserved *)
  objective : Interval.t;  (** over the narrowed box *)
  certificate : certificate option;  (** [Some] = provably infeasible *)
  sweeps : int;  (** narrowing sweeps until fixed point (or cap) *)
  margin : float;
}

val analyze : ?options:options -> Problem.t -> t
(** Run the analysis.  Never raises on well-formed problems; a variable
    without declared bounds is seeded with the solver's default box
    [1e-9 .. 1e9]. *)

val var_interval : t -> string -> Interval.t option
(** Narrowed interval of a variable ([None] when it does not occur). *)

val infeasibility :
  ?options:options -> target_ps:float -> Problem.t -> Smart_util.Err.t option
(** [analyze] and render any certificate as a structured
    {!Smart_util.Err.Infeasible_spec} — the fast-fail gate. *)

val err_of_certificate : target_ps:float -> certificate -> Smart_util.Err.t

(** {1 Marshal-safe summary} *)

type summary = {
  variables : int;
  inequalities : int;
  equalities : int;
  sweeps : int;
  objective_lo : float;  (** linear space *)
  objective_hi : float;
  never_binding : int;  (** constraints provably slack at every budget *)
  tightened : int;  (** variables strictly narrowed vs their seed box *)
  tighten_avg_pct : float;
      (** mean log-width reduction over narrowed variables, percent *)
  bounds : (string * float * float) list;  (** narrowed, linear space *)
  infeasible : certificate option;
}
(** Plain data (strings, floats, options) — safe to Marshal into the
    engine's solve cache and compare across processes. *)

val summarize : t -> summary

(** {1 Presolve reduction} *)

type drop_reason =
  | Slack  (** interval upper bound under the tightest reachable budget *)
  | Dominated of string  (** implied by the named kept constraint *)

type reduction = {
  analysis : t;
  reduced : Problem.t;
      (** same objective, equalities and variable set; kept inequalities
          in original order under their original names *)
  dropped : (string * drop_reason) list;
  kept : int;
  total : int;  (** inequalities before reduction *)
  tightened_bounds : int;  (** variables whose bounds were tightened *)
}

val reduce : t -> reduction
(** Shrink the analyzed problem: variable bounds are replaced by the
    narrowed box (widened by a roundoff guard), and slack/dominance
    drops are judged on that box — the box is enforced by the new
    bounds, so the feasible set is {e exactly} preserved.

    Valid only for fixed-budget analyses ({!fixed_budget}, the
    {!default_options}): the program must be solved at its generated
    budgets.  A surrounding loop that rescales budgets ({!sizer_classes})
    moves the feasible set outside the narrowed box, so its programs
    must not be reduced.

    A certified-infeasible analysis reduces to the identity (the caller
    should fast-fail instead).  [Certify]-checked runs should skip
    reduction entirely: the independent certificate wants the full dual
    vector, so it checks the {e unreduced} problem. *)

val drop_pct : reduction -> float
(** Percent of inequalities dropped. *)

val implied_by : reduction -> string -> string option
(** For a dropped constraint, the kept constraint that implies it
    ([None] for [Slack] drops or kept names) — the round-trip mapping
    for explaining advice in original terms. *)
