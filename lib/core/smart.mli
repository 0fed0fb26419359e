(** SMART — Smart Macro Design Advisor.

    Public facade of the library: module aliases for every subsystem plus
    the advisory entry point {!run}, which realises the full Figure 1
    flow — look up applicable topologies in the design database, prune,
    generate netlists, size each with the GP-based sizing engine (fanned
    across the {!Engine} worker pool, memoized in its solve cache),
    verify with the golden timer, and rank under the designer's cost
    metric.

    {[
      let request = Smart.Request.make ~kind:"mux" ~bits:8 ~ext_load:40.
                      ~delay:90. () in
      match Smart.run request with
      | Ok advice -> ...
      | Error e -> prerr_endline (Smart.Error.to_string e)
    ]} *)

module Tech = Smart_tech.Tech
module Circuit = Smart_circuit.Netlist
module Cell = Smart_circuit.Cell
module Pdn = Smart_circuit.Pdn
module Family = Smart_circuit.Family
module Spice = Smart_circuit.Spice
module Sim = Smart_sim.Sim
module Logic = Smart_sim.Logic
module Posy = Smart_posy.Posy
module Monomial = Smart_posy.Monomial
module Gp = Smart_gp.Solver
module Gp_problem = Smart_gp.Problem
module Models = Smart_models.Delay
module Golden = Smart_models.Golden
module Arc = Smart_models.Arc
module Sta = Smart_sta.Sta
module Paths = Smart_paths.Paths
module Constraints = Smart_constraints.Constraints
module Corners = Smart_corners.Corners
module Power = Smart_power.Power
module Baseline = Smart_baseline.Baseline
module Sizer = Smart_sizer.Sizer
module Macro = Smart_macros.Macro
module Mux = Smart_macros.Mux
module Incrementor = Smart_macros.Incrementor
module Zero_detect = Smart_macros.Zero_detect
module Decoder = Smart_macros.Decoder
module Comparator = Smart_macros.Comparator
module Cla_adder = Smart_macros.Cla_adder
module Shifter = Smart_macros.Shifter
module Encoder = Smart_macros.Encoder
module Regfile = Smart_macros.Regfile
module Datapath = Smart_macros.Datapath
module Database = Smart_database.Database
module Blocks = Smart_blocks.Blocks
module Explore = Smart_explore.Explore
module Engine = Smart_engine.Engine
module Hier = Smart_hier.Hier
module Event = Smart_sim.Event
module Certify = Smart_gp.Certify
module Fault = Smart_util.Fault
module Check = Smart_check.Check
module Check_oracle = Smart_check.Oracle
module Check_gen = Smart_check.Gen
module Lint = Smart_lint.Lint
module Lint_rules = Smart_lint.Rules
module Lint_report = Smart_lint.Report
module Absint = Smart_absint.Absint
module Interval = Smart_absint.Interval
module Rewrite = Smart_rewrite.Rewrite

module Error : sig
  (** Structured advisory errors (see {!Smart_util.Err}). *)

  type t = Smart_util.Err.t =
    | No_applicable_topology of { kind : string }
    | Infeasible_spec of { target_ps : float; detail : string }
    | Gp_failure of string
    | Sta_disagreement of { target_ps : float; iterations : int }
    | Invalid_request of string
    | Worker_crash of { item : int; detail : string }
    | Lint_failed of {
        netlist : string;
        diagnostics : (string * string * string) list;
      }
    | Bad_request of { field : string option; detail : string }
    | Overloaded of { queued : int; limit : int }

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit

  val code : t -> string
  (** Stable kebab-case tag (["infeasible-spec"], ...), shared by the CLI
      error reporting and the serve wire protocol. *)

  val to_json : t -> string
  (** [{"code":...,"message":...,"data":{...}}] — the one error rendering
      used by every CLI subcommand and the daemon. *)
end

type advice = {
  ranking : Explore.ranking;  (** all sized candidates, best first *)
  metric : Explore.metric;
  spec : Constraints.spec;
  lints : Lint.report list;
      (** one static-analysis report per candidate netlist (empty when
          the request ran with [lint = `Off]) *)
}

(** Advisory requests: one record carrying everything {!run} needs,
    replacing the optional-argument surface that {!advise} had grown.
    Build with {!Request.make}, refine with the [with_*] updaters. *)
module Request : sig
  type t = {
    kind : string;  (** macro kind key, e.g. ["mux"] *)
    bits : int;  (** width parameter (inputs for muxes, bits otherwise) *)
    requirements : Database.requirements;
    spec : Constraints.spec;
    metric : Explore.metric;
    options : Sizer.options;
    tech : Tech.t;
    engine : Engine.t option;  (** [None]: the process-default engine *)
    lint : [ `Off | `Warn | `Strict ];
        (** static analysis of every candidate before sizing: [`Warn]
            attaches reports to the advice, [`Strict] additionally fails
            the request with {!Error.Lint_failed} on any unwaived
            [Error]-severity finding — before any GP solve *)
    corners : Corners.set option;
        (** when set, every candidate is jointly sized over the corner
            set ({!Smart_sizer.Sizer.size_robust_typed}) and ranked by
            worst-corner cost; the per-corner golden results land on each
            {!Explore.candidate}.  [None]: single-tech sizing at
            [tech]. *)
    hier : Hier.mode;
        (** hierarchical sizing of large candidates (regularity
            extraction + partitioned GP, {!Hier}): [`Auto] (the default)
            engages on datapath-scale netlists, [`Force] always, [`Off]
            never.  Ignored when [corners] is set. *)
    rewrite : Explore.rewrite_mode;
        (** topology generation by equality saturation ({!Rewrite}):
            [`Saturate budget] abstracts every menu candidate into an
            e-graph, saturates it under [budget], and enters the
            extracted top-k alternative topologies (lint-vetted) into
            the ranking alongside the hand-coded menu.  [`Off] (the
            default) ranks the menu as-is. *)
  }

  val make :
    ?ext_load:float ->
    ?strongly_mutexed_selects:bool ->
    ?allow_dynamic:bool ->
    ?delay:float ->
    ?spec:Constraints.spec ->
    ?metric:Explore.metric ->
    ?options:Sizer.options ->
    ?tech:Tech.t ->
    ?engine:Engine.t ->
    ?lint:[ `Off | `Warn | `Strict ] ->
    ?corners:Corners.set ->
    ?hier:Hier.mode ->
    ?rewrite:Explore.rewrite_mode ->
    kind:string ->
    bits:int ->
    unit ->
    t
  (** Defaults: 30 fF load, one-hot and dynamic allowed, 150 ps target
      (ignored when [spec] is given), area metric, default sizer options,
      default technology, process-default engine, [`Warn] linting,
      single-corner (no [corners]) sizing, [`Auto] hierarchical
      engagement, [`Off] rewriting. *)

  val with_spec : Constraints.spec -> t -> t
  val with_metric : Explore.metric -> t -> t
  val with_options : Sizer.options -> t -> t
  val with_tech : Tech.t -> t -> t
  val with_engine : Engine.t -> t -> t
  val with_lint : [ `Off | `Warn | `Strict ] -> t -> t
  val with_corners : Corners.set -> t -> t
  val with_hier : Hier.mode -> t -> t
  val with_rewrite : Explore.rewrite_mode -> t -> t
  val with_requirements : Database.requirements -> t -> t
end

val run : ?db:Database.t -> Request.t -> (advice, Error.t) result
(** The advisory flow of Figure 1 over a macro instance ([db] defaults
    to {!Database.builtins}).  The menu is built once: an empty one is
    {!Error.No_applicable_topology}; otherwise the lint gate (see
    {!Request.t.lint}) runs strictly before any GP work and the
    candidates are sized and ranked by {!Explore.tune_typed}.  Unless
    [options.absint] is off, each candidate's sizer rejects a
    certified-infeasible program ({!Absint}) before compiling it, so a
    menu that is certified throughout fails with
    {!Error.Infeasible_spec} without any GP solve. *)

val version : string
