(** The SMART sizing engine — the full Figure 4 flow.

    {v
    unsized schematic -> path extraction -> constraint generation
        -> GP solve -> update netlist -> golden STA
        -> (mismatch? create new delay specification, iterate) -> sized design
    v}

    The GP runs on fast posynomial models; the golden timer re-measures the
    solution; the evaluate and precharge budgets are retargeted by the
    measured/specified ratio until the golden numbers meet the spec.  This
    is exactly the paper's accuracy-vs-speed bargain: cheap models inside
    the loop, an authoritative timer outside it. *)

type options = {
  max_iterations : int;  (** outer respecification loop cap (default 8) *)
  tolerance : float;  (** relative timing acceptance band (default 0.02) *)
  damping : float;  (** fraction of the measured mismatch applied (default 1.0) *)
  reductions : Smart_paths.Paths.reductions;
  objective : Smart_constraints.Constraints.objective;
  min_delay_hint : float option;
      (** known model-space minimum delay (ps): skips the warm-start
          min-delay pre-solve — pass it when sweeping many targets over
          one netlist *)
  gp_warm_start : bool;
      (** warm-start each respecification round's GP from the previous
          round's log-space solution (and the first round from the
          min-delay pre-solve), reusing one compiled program — the
          incremental hot path (default true).  Disable to force a cold
          compile-and-phase-I solve every round, e.g. for A/B timing. *)
  certify : bool;
      (** validate every [Optimal] resolve with the independent
          {!Smart_gp.Certify} checker against a problem-space
          reconstruction of the round's rescaled program; a rejected
          certificate aborts the loop with
          {!Smart_util.Err.Gp_failure} (default false) *)
  absint : bool;
      (** interval-analyze the generated program before compiling it and
          reject provably-infeasible specifications
          ({!Smart_absint.Absint}) with a structured
          {!Smart_util.Err.Infeasible_spec} — {e before} any GP solve
          runs, so the fast-fail path emits no [gp.solve] span
          (default true) *)
}

val default_options : options

type outcome = {
  sizing : (string * float) list;  (** width per label, µm *)
  sizing_fn : string -> float;
  achieved_delay : float;  (** golden STA evaluate delay, ps *)
  achieved_precharge : float;
      (** golden STA precharge delay, ps; [infinity] when the program has
          precharge constraints but the precharge STA reached no output
          (no precharge path is not "precharge met") *)
  target_delay : float;
  total_width : float;
  clock_load_width : float;
  iterations : int;  (** outer loop iterations used *)
  gp_newton_iterations : int;
      (** every Newton step the sizing ran: the min-delay pre-solve plus
          every respecification round *)
  gp_warm_rounds : int;
      (** respecification rounds whose GP resolve skipped phase I via a
          warm start *)
  gp_newton_per_round : int list;
      (** Newton iterations of each respecification round's GP solve, in
          round order (excludes the min-delay pre-solve) *)
  certified_rounds : int;
      (** rounds whose solution passed the independent GP certificate
          check (0 unless {!options.certify}) *)
  sta_verifies : int;
      (** golden STA runs the loop made: evaluate and precharge at every
          corner per verified round, plus a multi-corner set's
          calibration sweep *)
  converged : bool;
  constraint_stats : Smart_constraints.Constraints.result;
      (** the generated program (counts, area posynomial) *)
  sta : Smart_sta.Sta.t;  (** final evaluate-mode timing *)
}

val size_typed :
  ?options:options ->
  Smart_tech.Tech.t ->
  Smart_circuit.Netlist.t ->
  Smart_constraints.Constraints.spec ->
  (outcome, Smart_util.Err.t) result
(** Size a netlist to meet a delay specification at minimum cost: the
    respecification loop of {!size_robust_typed} over the one-corner set
    {!Smart_corners.Corners.of_tech}[ tech], which compiles exactly the
    single-technology program.  [Error] is structured:
    {!Smart_util.Err.Infeasible_spec} when the specification is
    unreachable within device bounds, {!Smart_util.Err.Sta_disagreement}
    when the model kept certifying the spec but the golden timer never
    confirmed it, or {!Smart_util.Err.Gp_failure} for malformed programs.
    Emits a ["sizer.size"] tracepoint when instrumentation is
    installed. *)

(** {1 Multi-corner robust sizing} *)

type mapper = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }
(** How {!size_robust_typed} runs its independent per-corner work — the
    constraint generations, then each round's golden verifies:
    {!sequential_mapper} runs them in order; the engine passes its worker
    pool so the corners generate and verify concurrently. *)

val sequential_mapper : mapper

type corner_report = {
  corner_name : string;
  corner_delay : float;  (** golden evaluate delay at this corner, ps *)
  corner_precharge : float;
      (** golden precharge delay at this corner, ps ([infinity] when the
          program has precharge constraints but no precharge path
          reached an output) *)
  corner_slack : float;  (** [target - corner_delay], ps; negative = miss *)
}

type robust_outcome = {
  robust : outcome;
      (** the joint sizing, reported from the binding corner's viewpoint:
          [achieved_delay]/[sta] are the worst corner's golden numbers,
          [achieved_precharge] the worst corner's precharge,
          [constraint_stats] the merged per-corner program *)
  per_corner : corner_report list;  (** one report per corner, set order *)
  binding_corner : string;
      (** the corner whose golden evaluate delay is worst — [slow] for
          RC-dominated macros *)
}

val size_robust_typed :
  ?options:options ->
  ?mapper:mapper ->
  Smart_corners.Corners.set ->
  Smart_circuit.Netlist.t ->
  Smart_constraints.Constraints.spec ->
  (robust_outcome, Smart_util.Err.t) result
(** Joint robust sizing — the one Figure 4 loop: one width assignment
    that the golden timer confirms at {e every} corner of the set.
    Constraint generation runs once per corner (through [mapper])
    against the shared size labels, the per-corner programs are merged
    into one GP
    ({!Smart_corners.Corners.merge_generated}; a one-corner set keeps its
    own untagged program) compiled once and warm-started across
    respecification rounds, and each round golden-verifies all corners
    (through [mapper]) and retargets every corner's internal budget by
    its own measured miss; acceptance and convergence key on the
    worst-corner result.  The loop stops early once a round moves no
    budget.  Sets of two or more corners also calibrate each corner's
    budget at the pre-solve sizing and relax a corner only while its
    model constraints are near-active.  Errors as {!size_typed}, with a
    multi-corner [Infeasible_spec] naming the corner set.  Emits a
    ["sizer.size_robust"] tracepoint. *)

type min_delay = {
  golden_min : float;  (** fastest golden delay found, ps *)
  model_min : float;  (** the GP's own makespan optimum, ps *)
}

val minimize_delay_typed :
  ?options:options ->
  Smart_tech.Tech.t ->
  Smart_circuit.Netlist.t ->
  Smart_constraints.Constraints.spec ->
  (min_delay, Smart_util.Err.t) result
(** Fastest achievable delay of the topology within size bounds — the
    anchor point of area–delay trade-off curves (Fig. 6).  [model_min]
    doubles as a {!options.min_delay_hint} for subsequent
    {!size_typed} calls. *)
