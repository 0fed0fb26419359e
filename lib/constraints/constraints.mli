(** Constraint generation (§5.3): from a reduced path set to a geometric
    program.

    Per circuit family:
    {ul
    {- {b static}: each path yields two timing constraints (rise and fall
       at the output);}
    {- {b pass logic}: data-port paths yield two constraints; a path
       through the control port yields four — the select's turn-on edge can
       release either output transition;}
    {- {b dynamic}: evaluate paths are rise-only; every domino stage gets a
       separate precharge constraint against the precharge-phase budget;
       without OTB each clocked stage must additionally settle within its
       own phase, with OTB (Opportunistic Time Borrowing, [12]) the
       evaluate budget is shared across the D1/D2 boundary.}}

    Slope (reliability) constraints bound every net's edge rate; slope
    variables are shared per net class, and model constraints are emitted
    for class representatives only — the §5.2 regularity reductions shrink
    the GP itself, not just the path list.  Device size bounds complete
    the program; connectivity constraints are implicit (shared labels are
    literally shared GP variables). *)

type spec = {
  target_delay : float;  (** evaluate/data arrival budget at outputs, ps *)
  precharge_budget : float option;
      (** per-stage precharge budget; default [target_delay] (mirrored
          evaluate/precharge phases) *)
  max_slope : float option;  (** default [tech.slope_max] *)
  input_slope : float option;  (** default [tech.default_input_slope] *)
  otb : bool;  (** opportunistic time borrowing across domino phases *)
  pinned : (string * float) list;
      (** designer-fixed label widths (µm): §2's requirement that the
          designer "control transistor sizes of portions of the macro while
          letting the automatic sizer size the rest" — e.g. up-sizing a
          pass gate for noise immunity on a noisy region.  Pinned labels
          become equality-tight bounds; everything else stays free. *)
}

val spec : ?precharge_budget:float -> ?max_slope:float -> ?input_slope:float ->
  ?otb:bool -> ?pinned:(string * float) list -> float -> spec
(** [spec target_delay] with defaults ([otb] true, nothing pinned). *)

type objective =
  | Area  (** total transistor width *)
  | Power_weighted  (** width weighted by activity; clocked devices heavy *)
  | Clock_load  (** clocked width, lightly regularised by area *)

type result = {
  problem : Smart_gp.Problem.t;
  area : Smart_posy.Posy.t;  (** total-width posynomial *)
  path_count : int;
  timing_constraints : int;
  slope_constraints : int;
  precharge_constraints : int;
  stage_constraints : int;  (** per-phase constraints added when OTB is off *)
  dominated_pruned : int;
      (** timing/stage constraints dropped because a kept constraint
          dominates them term-by-term (§5.2 dominance at the GP level) *)
}

val generate :
  ?reductions:Smart_paths.Paths.reductions ->
  ?objective:objective ->
  Smart_tech.Tech.t ->
  Smart_circuit.Netlist.t ->
  spec ->
  result
(** Build the GP for a netlist under a delay specification.

    Generation is deterministic and pure in the technology: calling it
    once per process corner (the same netlist, a [Smart_tech.Tech.scaled]
    tech each time) yields programs over the {e same} variable set (the
    shared size labels) with the {e same} constraint names in the same
    order — only the posynomial coefficients differ.  Multi-corner robust
    sizing ({!Smart_corners.Corners.merge_generated}) relies on exactly
    this contract to tag and merge the per-corner programs into one GP,
    and to route per-corner budget factors by name through
    {!rescale_factors}. *)

val rescale_by : (string -> float) -> result -> result
(** Scale each inequality by [factor name] — the problem-space twin of
    {!Smart_gp.Solver.rescale_compiled} fed the same factors, e.g.
    {!rescale_factors}. *)

type budget_class =
  | Timing  (** evaluate/data-path ([t:]) and stage ([stg:]) budgets *)
  | Precharge  (** per-stage precharge budgets ([pre:]) *)
  | Fixed  (** slope and bound constraints: never rescaled *)

val budget_class : string -> budget_class
(** The budget a generated constraint belongs to, read from its name
    (untagged: split a merged corner name with
    {!Smart_gp.Problem.split_scenario} first).  The one classification
    behind {!rescale_factors}, the sizer's per-corner calibration, the
    interval analysis's sizer classes and lint's label coverage. *)

val rescale_factors : timing:float -> precharge:float -> string -> float
(** The outer loop's "create new delay specification" step as a
    per-constraint coefficient factor keyed by constraint name: the
    evaluate/data-path and stage budgets are multiplied by [timing], the
    per-stage precharge budgets by [precharge] (below 1 tightens), and
    slope/bound constraints get [1.].  Feed this to {!rescale_by}, or to
    {!Smart_gp.Solver.rescale_compiled} to retarget budgets on an
    already-compiled program without regenerating or recompiling it. *)

val delay_variable : string
(** Name of the makespan variable of {!min_delay_of}. *)

val min_delay_of : result -> target:float -> result
(** The min-delay program of a program {!generate} built at
    [target_delay = target]: every timing and stage constraint is
    multiplied by [target / ]{!delay_variable}, so its evaluate budget
    becomes the GP variable; the objective is that variable plus 1e-4 ×
    area (to break ties), and the variable is bounded to [[1, 1e6]].
    Solving yields the fastest delay the topology can reach within size
    bounds.  Precharge and slope constraints are kept as they are.  Takes
    an untagged (one-corner) program. *)

val generate_min_delay :
  ?reductions:Smart_paths.Paths.reductions ->
  Smart_tech.Tech.t ->
  Smart_circuit.Netlist.t ->
  spec ->
  result
(** {!generate} at [spec], then {!min_delay_of} at its target. *)
