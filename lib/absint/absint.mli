(** Abstract interpretation over geometric programs, in log space.

    A static analysis pass over {!Smart_gp.Problem} values: every
    variable gets a log-space {!Interval} seeded from its declared
    bounds, intervals propagate forward through posynomial terms
    (interval log-sum-exp, with the monomial transfer exact), and
    constraint budgets propagate {e backward} — a term of [f <= B] can
    use at most what the other terms' proven minima leave of the budget,
    which tightens the variables it mentions — to a capped fixed point.

    Two products fall out of the fixed point:
    {ul
    {- {b proofs}: guaranteed bounds on the objective and on every
       variable over the feasible region ({!var_interval}) — e.g. a
       lower bound on achievable delay no solver run can beat;}
    {- {b infeasibility certificates}: a constraint whose proven lower
       bound exceeds every budget its surrounding loop could grant is
       reported as a {!certificate} — the caller can reject the
       specification {e before} compiling or solving anything.}}

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
    [tightest] both [1.]) — the right classification for programs
    solved directly with {!Smart_gp.Solver.solve} (bench A/B runs,
    merged corner programs outside the sizer loop). *)

val sizer_classes : robust:bool -> string -> cls
(** What the {!Smart_sizer.Sizer} respecification loop can do to each
    constraint, keyed by the generated name (a merged corner program's
    scenario tag is stripped first): evaluate/stage timing budgets are
    retargeted without bound (never certified against), precharge
    budgets relax or tighten within the loop's clamped retarget range,
    and slope/bound constraints are never rescaled at all.  [robust] widens the
    precharge range by the robust loop's per-corner calibration. *)

type options = { classify : string -> cls }
(** An analysis has one setting, its budget classification.  Narrowing
    stops at a fixed point or after 8 sweeps, and a certificate needs a
    relative excess beyond 1e-6 — the roundoff guard. *)

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
          budget ([> 1 + 1e-6]) *)
  budget : float;  (** that most-relaxed budget, linear space *)
  detail : string;  (** one human-readable sentence *)
}

type constraint_bound = {
  name : string;
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

(** {1 Summary} *)

type summary = {
  variables : int;
  inequalities : int;
  equalities : int;
  sweeps : int;
  objective_lo : float;  (** linear space *)
  never_binding : int;  (** constraints provably slack at every budget *)
  tightened : int;  (** variables strictly narrowed vs their seed box *)
  tighten_avg_pct : float;
      (** mean log-width reduction over narrowed variables, percent *)
  infeasible : certificate option;
}
(** The counts [smart_cli analyze] reports. *)

val summarize : t -> summary
