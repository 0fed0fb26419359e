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
module Database = Smart_database.Database
module Blocks = Smart_blocks.Blocks
module Explore = Smart_explore.Explore
module Engine = Smart_engine.Engine
module Hier = Smart_hier.Hier
module Datapath = Smart_macros.Datapath
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
module Error = Smart_util.Err

type advice = {
  ranking : Explore.ranking;
  metric : Explore.metric;
  spec : Constraints.spec;
  lints : Lint.report list;
}

module Request = struct
  type t = {
    kind : string;
    bits : int;
    requirements : Database.requirements;
    spec : Constraints.spec;
    metric : Explore.metric;
    options : Sizer.options;
    tech : Tech.t;
    engine : Engine.t option;
    lint : [ `Off | `Warn | `Strict ];
    corners : Corners.set option;
    hier : Hier.mode;
    rewrite : Explore.rewrite_mode;
  }

  let make ?(ext_load = 30.) ?(strongly_mutexed_selects = true)
      ?(allow_dynamic = true) ?(delay = 150.) ?spec
      ?(metric = Explore.Area) ?(options = Sizer.default_options)
      ?(tech = Tech.default) ?engine ?(lint = `Warn) ?corners
      ?(hier = `Auto) ?(rewrite = `Off) ~kind ~bits () =
    let requirements =
      Database.requirements ~ext_load ~strongly_mutexed_selects ~allow_dynamic
        bits
    in
    let spec = match spec with Some s -> s | None -> Constraints.spec delay in
    {
      kind;
      bits;
      requirements;
      spec;
      metric;
      options;
      tech;
      engine;
      lint;
      corners;
      hier;
      rewrite;
    }

  let with_spec spec t = { t with spec }
  let with_metric metric t = { t with metric }
  let with_options options t = { t with options }
  let with_tech tech t = { t with tech }
  let with_engine engine t = { t with engine = Some engine }
  let with_lint lint t = { t with lint }
  let with_corners corners t = { t with corners = Some corners }
  let with_hier hier t = { t with hier }
  let with_rewrite rewrite t = { t with rewrite }

  let with_requirements requirements t =
    { t with requirements; bits = requirements.Database.bits }
end

(* Static analysis happens strictly before any GP work: the menu's
   candidates are linted, and in [`Strict] mode an unwaived
   Error-severity finding fails the whole request with the structured
   {!Error.Lint_failed} — the engine never sees the candidates, so
   nothing meaningless lands in its solve cache. *)
let lint_candidates (r : Request.t) built =
  match r.Request.lint with
  | `Off -> Ok []
  | (`Warn | `Strict) as mode ->
    let reports =
      List.map
        (fun (_, info) ->
          Lint.run ~tech:r.Request.tech ~spec:r.Request.spec
            info.Smart_macros.Macro.netlist)
        built
    in
    let failing = List.filter (fun rep -> not (Lint.ok rep)) reports in
    (match (mode, failing) with
    | `Strict, rep :: _ ->
      Error
        (Error.Lint_failed
           { netlist = rep.Lint.netlist; diagnostics = Lint.gating rep })
    | _ -> Ok reports)

(* The menu is built once (netlist construction only) and shared by the
   lint gate and the sizing batch. *)
let run ?db (r : Request.t) =
  let db = match db with Some db -> db | None -> Database.builtins () in
  match Database.build_all db ~kind:r.Request.kind r.Request.requirements with
  | [] -> Error (Error.No_applicable_topology { kind = r.Request.kind })
  | built -> (
    match lint_candidates r built with
    | Error e -> Error e
    | Ok lints -> (
      let variants =
        List.map
          (fun ((e : Database.entry), info) -> (e.Database.entry_name, info))
          built
      in
      match
        Explore.tune_typed ?engine:r.Request.engine ~options:r.Request.options
          ?corners:r.Request.corners ~hier:r.Request.hier
          ~rewrite:r.Request.rewrite ~metric:r.Request.metric ~variants
          r.Request.tech r.Request.spec
      with
      | Error e -> Error e
      | Ok ranking ->
        Ok { ranking; metric = r.Request.metric; spec = r.Request.spec; lints }))

let version = "1.4.0"
