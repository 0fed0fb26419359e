module Err = Smart_util.Err
module Netlist = Smart_circuit.Netlist
module Macro = Smart_macros.Macro
module Constraints = Smart_constraints.Constraints
module Corners = Smart_corners.Corners
module Sizer = Smart_sizer.Sizer
module Power = Smart_power.Power
module Engine = Smart_engine.Engine
module Hier = Smart_hier.Hier
module Rewrite = Smart_rewrite.Rewrite
module Lint = Smart_lint.Lint

type metric = Area | Power | Clock_load

let metric_to_string = function
  | Area -> "area"
  | Power -> "power"
  | Clock_load -> "clock-load"

type candidate = {
  entry_name : string;
  info : Macro.info;
  outcome : Sizer.outcome;
  power_report : Power.report;
  score : float;
  corners : Sizer.corner_report list;
  binding_corner : string option;
}

type rewrite_mode = [ `Off | `Saturate of Rewrite.budget ]

type rewrite_summary = {
  rw_sources : (string * Rewrite.stats) list;
  rw_skipped : (string * string) list;
  rw_candidates : (string * string * float) list;
  rw_lint_dropped : (string * string) list;
}

type ranking = {
  winner : candidate;
  ranked : candidate list;
  rejected : (string * string) list;
  rewrite : rewrite_summary option;
}

let objective_of_metric = function
  | Area -> Constraints.Area
  | Power -> Constraints.Power_weighted
  | Clock_load -> Constraints.Clock_load

let score_of metric (outcome : Sizer.outcome) (power : Power.report) =
  match metric with
  | Area -> outcome.Sizer.total_width
  | Power -> power.Power.total_uw
  | Clock_load ->
    (* Tie-break pure clock load by a light area term. *)
    outcome.Sizer.clock_load_width +. (0.05 *. outcome.Sizer.total_width)

let engine_of = function Some e -> e | None -> Engine.default ()

(* Equality saturation multiplies the menu: every abstractable candidate
   netlist seeds an e-graph, the extracted top-k alternatives are
   rendered, statically vetted by the family-discipline analyzer, and
   appended as ordinary candidates — the engine pool, solve cache,
   corners and hier routing all apply to them unchanged.  A seed the
   abstraction cannot express (pass gates, tri-states) is skipped with
   its reason; a rendering the analyzer rejects is dropped with the
   gating rule.  Both land in the ranking's [rewrite] summary. *)
let expand_rewrites ~rewrite ~tech ~spec named_infos =
  match rewrite with
  | `Off -> (named_infos, None)
  | `Saturate budget ->
    let sources = ref []
    and skipped = ref []
    and added = ref []
    and dropped = ref [] in
    let extras =
      List.concat_map
        (fun (n, (info : Macro.info)) ->
          match Rewrite.explore_netlist ~budget info.Macro.netlist with
          | Error reason ->
            skipped := (n, reason) :: !skipped;
            []
          | Ok rep ->
            sources := (n, rep.Rewrite.rw_stats) :: !sources;
            List.filter_map
              (fun (ex : Rewrite.extraction) ->
                let cname = n ^ "~" ^ ex.Rewrite.ex_tag in
                let lint = Lint.run ~tech ~spec ex.Rewrite.ex_netlist in
                if not (Lint.ok lint) then begin
                  let rule =
                    match Lint.gating lint with
                    | (rule, _, _) :: _ -> rule
                    | [] -> "lint"
                  in
                  dropped := (cname, rule) :: !dropped;
                  None
                end
                else begin
                  added := (cname, n, ex.Rewrite.ex_netlist_cost) :: !added;
                  Some
                    ( cname,
                      Macro.make ~kind:info.Macro.kind
                        ~variant:
                          (info.Macro.variant ^ "~" ^ ex.Rewrite.ex_tag)
                        ~bits:info.Macro.bits ex.Rewrite.ex_netlist )
                end)
              rep.Rewrite.rw_extracted)
        named_infos
    in
    ( named_infos @ extras,
      Some
        {
          rw_sources = List.rev !sources;
          rw_skipped = List.rev !skipped;
          rw_candidates = List.rev !added;
          rw_lint_dropped = List.rev !dropped;
        } )

(* All candidates go through the engine in one batch: the pool sizes them
   concurrently, the solve cache absorbs repeats, and every candidate
   gets a sizing trace span.  Results come back in input order, so the
   ranking is identical however many workers ran.

   With [corners], every candidate is jointly sized over the corner set
   and scored by its worst-corner cost: widths are corner-independent
   once the sizing is robust, but power is not — the Power metric takes
   the maximum estimate over the corners' technologies, so a topology
   that only looks cheap at typical cannot win the ranking. *)
(* [hier] routes large single-corner candidates through the hierarchical
   sizer (Smart_hier): those candidates run sequentially because each one
   already fans its sub-problems across the engine pool — nesting the
   candidate fan-out on top would oversubscribe it.  Corner-set sizing
   stays monolithic (the robust flow couples corners inside one GP). *)
let size_candidates ?engine ?options ?corners ?(hier : Hier.mode = `Off)
    ?hier_options ?(rewrite : rewrite_mode = `Off) ~metric tech spec
    named_infos =
  let engine = engine_of engine in
  let options =
    let base = match options with Some o -> o | None -> Sizer.default_options in
    { base with Sizer.objective = objective_of_metric metric }
  in
  let hier_options =
    let base =
      match hier_options with Some h -> h | None -> Hier.default_options
    in
    { base with Hier.sizer = options }
  in
  let named_infos, rewrite_summary =
    expand_rewrites ~rewrite ~tech ~spec named_infos
  in
  let nets =
    List.map (fun (n, (i : Macro.info)) -> (n, i.Macro.netlist)) named_infos
  in
  let results =
    match corners with
    | None ->
      let engaged =
        List.map (fun (_, nl) -> Hier.engages ~options:hier_options hier nl) nets
      in
      if List.exists Fun.id engaged then
        List.map2
          (fun (n, nl) h ->
            let r =
              if h then
                Result.map
                  (fun (o : Hier.outcome) -> o.Hier.sizer)
                  (Hier.size ~options:hier_options ~label:n ~engine tech nl
                     spec)
              else Engine.size engine ~label:n ~options tech nl spec
            in
            (n, Result.map (fun o -> (o, [], None)) r))
          nets engaged
      else
        List.map
          (fun (n, r) -> (n, Result.map (fun o -> (o, [], None)) r))
          (Engine.size_all engine ~options tech spec nets)
    | Some set ->
      List.map
        (fun (n, r) ->
          ( n,
            Result.map
              (fun (ro : Sizer.robust_outcome) ->
                (ro.Sizer.robust, ro.Sizer.per_corner,
                 Some ro.Sizer.binding_corner))
              r ))
        (Engine.size_robust_all engine ~options set spec nets)
  in
  let worst_corner_power netlist sizing_fn =
    match corners with
    | None -> Power.estimate tech netlist ~sizing:sizing_fn
    | Some set ->
      let reports =
        List.map
          (fun (c : Corners.corner) ->
            Power.estimate c.Corners.tech netlist ~sizing:sizing_fn)
          (Corners.to_list set)
      in
      List.fold_left
        (fun (worst : Power.report) (r : Power.report) ->
          if r.Power.total_uw > worst.Power.total_uw then r else worst)
        (List.hd reports) (List.tl reports)
  in
  let accepted, rejected =
    List.fold_left2
      (fun (acc, rej) (entry_name, (info : Macro.info)) (_, result) ->
        match result with
        | Error e -> (acc, (entry_name, Err.to_string e) :: rej)
        | Ok (outcome, corner_reports, binding_corner) ->
          let power_report =
            worst_corner_power info.Macro.netlist outcome.Sizer.sizing_fn
          in
          let score = score_of metric outcome power_report in
          ( {
              entry_name;
              info;
              outcome;
              power_report;
              score;
              corners = corner_reports;
              binding_corner;
            }
            :: acc,
            rej ))
      ([], []) named_infos results
  in
  let ranked = List.sort (fun a b -> Float.compare a.score b.score) accepted in
  match ranked with
  | [] ->
    Error
      (Err.Infeasible_spec
         {
           target_ps = spec.Constraints.target_delay;
           detail =
             String.concat "; "
               (List.map (fun (n, r) -> n ^ ": " ^ r) (List.rev rejected));
         })
  | winner :: _ ->
    Ok
      {
        winner;
        ranked;
        rejected = List.rev rejected;
        rewrite = rewrite_summary;
      }

let tune_typed ?engine ?options ?corners ?hier ?hier_options ?rewrite
    ?(metric = Area) ~variants tech spec =
  if variants = [] then Error (Err.Invalid_request "Explore.tune: no variants")
  else
    size_candidates ?engine ?options ?corners ?hier ?hier_options ?rewrite
      ~metric tech spec variants

type sweep = {
  sweep_curve : (float * float) list;
  sweep_skipped : (float * Err.t) list;
  sweep_min_delay : Sizer.min_delay;
}

let sweep_area_delay ?engine ?options ?(points = 8) ?(min_relax = 1.0)
    ?(max_relax = 1.35) tech netlist spec =
  if points < 1 then
    Error
      (Err.Invalid_request
         (Printf.sprintf "Explore.sweep_area_delay: points = %d (need >= 1)"
            points))
  else
    let engine = engine_of engine in
    let options =
      match options with Some o -> o | None -> Sizer.default_options
    in
    match Engine.minimize_delay engine ~options tech netlist spec with
    | Error e -> Error e
    | Ok ({ Sizer.golden_min; model_min } as min_delay) ->
      let options = { options with Sizer.min_delay_hint = Some model_min } in
      (* A single point sweeps nothing: it sits mid-range, where the
         trade-off is representative and the target comfortably clears
         the min-delay wall — never a division by zero. *)
      let step k =
        if points = 1 then (max_relax -. min_relax) /. 2.
        else
          (max_relax -. min_relax) *. float_of_int k
          /. float_of_int (points - 1)
      in
      let targets =
        List.init points (fun k -> golden_min *. (min_relax +. step k))
      in
      (* Sweep points are independent sizings of one netlist; fan them out
         across the pool like explore candidates. *)
      let outcomes =
        Engine.map engine
          (fun target ->
            let spec' = { spec with Constraints.target_delay = target } in
            ( target,
              Engine.size engine
                ~label:(Printf.sprintf "%s@%.1fps" netlist.Netlist.name target)
                ~options tech netlist spec' ))
          targets
      in
      let curve, skipped =
        List.fold_left
          (fun (curve, skipped) (target, r) ->
            match r with
            | Ok o -> ((target, o.Sizer.total_width) :: curve, skipped)
            | Error e -> (curve, (target, e) :: skipped))
          ([], []) outcomes
      in
      Ok
        {
          sweep_curve = List.rev curve;
          sweep_skipped = List.rev skipped;
          sweep_min_delay = min_delay;
        }
