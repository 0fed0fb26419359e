(** Topology exploration and comparison — the outer loop of Figure 1 and
    the §6.3 experiment.

    Every applicable database topology of an instance (the menu
    [Smart.run] builds) is sized by the SMART sizer against the same
    constraints and scored under a designer-chosen cost metric (area,
    power, clock load).  SMART "can automatically pick the best solution
    ... or let the designer make his/her own choice": {!tune_typed}
    returns the full ranking.

    With [?rewrite:(`Saturate budget)], every candidate netlist also
    seeds {!Smart_rewrite.Rewrite} equality saturation, and the extracted
    top-k alternative topologies join the menu as ordinary candidates
    (lint-vetted, sized through the same engine batch) — topology
    {e generation} on top of topology {e selection}.

    {!sweep_area_delay} regenerates Fig. 6-style area–delay trade-off
    curves; {!tune_typed} is the paper's §3(iii) "topology optimizer"
    (listed as under development there, implemented here): automatic
    tuning of a topology's structural parameter — a domino mux's
    partition point, a comparator's XOR grouping — by sizing each
    candidate structure. *)

type metric = Area | Power | Clock_load

val metric_to_string : metric -> string

type candidate = {
  entry_name : string;
  info : Smart_macros.Macro.info;
  outcome : Smart_sizer.Sizer.outcome;
      (** when sized over a corner set, the joint sizing reported from the
          binding corner's viewpoint (see
          {!Smart_sizer.Sizer.robust_outcome}) *)
  power_report : Smart_power.Power.report;
      (** worst (maximum [total_uw]) over the corner set when one was
          requested; the single-tech estimate otherwise *)
  score : float;  (** under the requested metric; lower is better *)
  corners : Smart_sizer.Sizer.corner_report list;
      (** per-corner golden results, set order; [[]] without [?corners] *)
  binding_corner : string option;
      (** worst golden corner; [None] without [?corners] *)
}

type rewrite_mode = [ `Off | `Saturate of Smart_rewrite.Rewrite.budget ]

type rewrite_summary = {
  rw_sources : (string * Smart_rewrite.Rewrite.stats) list;
      (** per abstracted source candidate: its saturation stats *)
  rw_skipped : (string * string) list;
      (** sources the term abstraction could not express, with reasons *)
  rw_candidates : (string * string * float) list;
      (** (candidate name, source name, pre-sizing netlist cost) for
          every rewrite-generated candidate that entered the batch *)
  rw_lint_dropped : (string * string) list;
      (** rewrite candidates rejected before sizing, with the gating
          lint rule *)
}

type ranking = {
  winner : candidate;
  ranked : candidate list;  (** best first *)
  rejected : (string * string) list;  (** entry name, failure reason *)
  rewrite : rewrite_summary option;
      (** present iff the request asked for [`Saturate] *)
}

type sweep = {
  sweep_curve : (float * float) list;
      (** [(delay target, total width)], fastest target first *)
  sweep_skipped : (float * Smart_util.Err.t) list;
      (** targets whose sizing failed, with the structured reason *)
  sweep_min_delay : Smart_sizer.Sizer.min_delay;
      (** the minimum-delay probe the targets were derived from *)
}

val sweep_area_delay :
  ?engine:Smart_engine.Engine.t ->
  ?options:Smart_sizer.Sizer.options ->
  ?points:int ->
  ?min_relax:float ->
  ?max_relax:float ->
  Smart_tech.Tech.t ->
  Smart_circuit.Netlist.t ->
  Smart_constraints.Constraints.spec ->
  (sweep, Smart_util.Err.t) result
(** Area–delay targets spanning [min_relax] ×..× [max_relax] of the
    fastest feasible delay (defaults: 8 points, 1.0× to 1.35×) — the
    Fig. 6 curve.  Right at 1.0× the area wall is steep; plotting from a
    few percent off it, as the paper does, shows the working range.
    [points = 1] sizes one mid-range point (the mean of the relax
    bounds, clear of the min-delay wall); [points < 1] is
    [Error Invalid_request].  A point whose sizing fails lands in
    [sweep_skipped] with its reason instead of silently vanishing; a
    failed minimum-delay probe fails the whole sweep.  Points are sized
    concurrently over [engine]'s pool, and re-sweeps of the same netlist
    hit its solve cache. *)

val tune_typed :
  ?engine:Smart_engine.Engine.t ->
  ?options:Smart_sizer.Sizer.options ->
  ?corners:Smart_corners.Corners.set ->
  ?hier:Smart_hier.Hier.mode ->
  ?hier_options:Smart_hier.Hier.options ->
  ?rewrite:rewrite_mode ->
  ?metric:metric ->
  variants:(string * Smart_macros.Macro.info) list ->
  Smart_tech.Tech.t ->
  Smart_constraints.Constraints.spec ->
  (ranking, Smart_util.Err.t) result
(** Size every named candidate in [variants] against one spec and rank
    by [metric] (default [Area]).  The candidates are either a database
    menu — [Smart.run] builds the applicable topologies once and passes
    them here — or explicit structural variants of one macro (the
    topology optimizer).  Candidates are evaluated through [engine]
    (default: the process engine) — fanned across its worker pool and
    memoized in its solve cache; rankings are identical at any pool
    width.  With [corners], every candidate is jointly sized over the
    corner set ({!Smart_engine.Engine.size_robust_all}) and ranked by its
    worst-corner cost — under the [Power] metric, the maximum estimate
    over the corners' technologies — so a topology that only wins at
    typical cannot top the ranking.  [Error] is
    {!Smart_util.Err.Invalid_request} on an empty variant list, or
    {!Smart_util.Err.Infeasible_spec} when no candidate can meet the
    specification; [Smart.run] answers
    {!Smart_util.Err.No_applicable_topology} itself when pruning leaves
    an empty menu.  [hier] (default [`Off]) routes candidates that
    {!Smart_hier.Hier.engages} through hierarchical sizing; such
    candidates run sequentially, each fanning its own sub-problems across
    the engine pool, with trace spans labelled per candidate
    (["hier:<name>/<unit>"]).  [hier_options] tunes that routing (its
    [sizer] field is overridden with the effective sizer options).
    Ignored when [corners] is set — robust sizing stays monolithic.
    [rewrite] (default [`Off]) expands the candidates by equality
    saturation; the ranking's [rewrite] field reports what was
    generated, skipped and lint-dropped. *)
