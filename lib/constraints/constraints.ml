module Netlist = Smart_circuit.Netlist
module Cell = Smart_circuit.Cell
module Family = Smart_circuit.Family
module Tech = Smart_tech.Tech
module Posy = Smart_posy.Posy
module Monomial = Smart_posy.Monomial
module Problem = Smart_gp.Problem
module Arc = Smart_models.Arc
module Delay = Smart_models.Delay
module Load = Smart_models.Load
module Paths = Smart_paths.Paths

type spec = {
  target_delay : float;
  precharge_budget : float option;
  max_slope : float option;
  input_slope : float option;
  otb : bool;
  pinned : (string * float) list;
}

let spec ?precharge_budget ?max_slope ?input_slope ?(otb = true) ?(pinned = [])
    target_delay =
  { target_delay; precharge_budget; max_slope; input_slope; otb; pinned }

type objective = Area | Power_weighted | Clock_load

type result = {
  problem : Problem.t;
  area : Posy.t;
  path_count : int;
  timing_constraints : int;
  slope_constraints : int;
  precharge_constraints : int;
  stage_constraints : int;
  dominated_pruned : int;
}

(* Dominance pruning over a group of same-budget constraints: drop any
   whose posynomial is dominated term-by-term by a kept one (its constraint
   is implied).  Longest (most-term) constraints are considered first.

   A dominator must contain every exponent vector of the dominated
   posynomial, so the only kept constraints worth testing against a
   candidate are those sharing the candidate's rarest term — an inverted
   index on exponent vectors finds them directly.  Same kept set as the
   all-pairs scan (no false negatives: a dominator contains the chosen
   term too), but near-linear instead of quadratic in the group size. *)
let prune_dominated constraints =
  let sorted =
    List.sort
      (fun (_, p) (_, q) -> compare (Posy.num_terms q) (Posy.num_terms p))
      constraints
  in
  let module B = struct
    type bucket = { mutable n : int; mutable items : Posy.t list }
  end in
  let index : ((string * float) list, B.bucket) Hashtbl.t =
    Hashtbl.create 256
  in
  let bucket key =
    match Hashtbl.find_opt index key with
    | Some b -> b
    | None ->
      let b = { B.n = 0; B.items = [] } in
      Hashtbl.replace index key b;
      b
  in
  let kept = ref [] in
  let dropped = ref 0 in
  List.iter
    (fun (name, p) ->
      let buckets =
        List.map
          (fun m -> bucket (Smart_posy.Monomial.exponents m))
          (Posy.monomials p)
      in
      let rarest =
        List.fold_left
          (fun best (b : B.bucket) ->
            match best with
            | Some (cand : B.bucket) when cand.B.n <= b.B.n -> best
            | _ -> Some b)
          None buckets
      in
      let dominated =
        match rarest with
        | None -> false
        | Some b -> List.exists (fun k -> Posy.dominates k p) b.B.items
      in
      if dominated then incr dropped
      else begin
        kept := (name, p) :: !kept;
        List.iter
          (fun (b : B.bucket) ->
            b.B.n <- b.B.n + 1;
            b.B.items <- p :: b.B.items)
          buckets
      end)
    sorted;
  (List.rev !kept, !dropped)

let widths_posy widths =
  Posy.of_monomials
    (List.map (fun (l, m) -> Monomial.make m [ (l, 1.) ]) widths)

let area_posy netlist = widths_posy (Netlist.label_widths netlist)

let clocked_widths_of netlist =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (i : Netlist.instance) ->
      List.iter
        (fun (l, m) ->
          let cur = try Hashtbl.find tbl l with Not_found -> 0. in
          Hashtbl.replace tbl l (cur +. m))
        (Cell.clocked_widths i.Netlist.cell))
    netlist.Netlist.instances;
  Hashtbl.fold (fun l m acc -> (l, m) :: acc) tbl []

let objective_posy objective netlist =
  let area = area_posy netlist in
  match objective with
  | Area -> area
  | Power_weighted -> (
    match clocked_widths_of netlist with
    | [] -> area
    | cw -> Posy.add area (Posy.scale 3. (widths_posy cw)))
  | Clock_load -> (
    let reg = Posy.scale 0.05 area in
    match clocked_widths_of netlist with
    | [] -> reg
    | cw -> Posy.add (widths_posy cw) reg)

(* Enumerate the transition-sense chains a path supports; each chain is one
   timing constraint.  Control arcs fork (§5.3's four pass-gate
   constraints); domino eval arcs filter chains to rising. *)
let sense_chains (p : Paths.path) =
  let max_chains = 64 in
  let initial =
    match p.Paths.steps with
    | [] -> []
    | first :: _ ->
      let arc = Arc.arc_of_pin first.Paths.s_inst.Netlist.cell first.Paths.s_pin in
      List.sort_uniq compare (List.map fst arc.Arc.senses)
  in
  let chains =
    List.fold_left
      (fun chains (step : Paths.step) ->
        let arc = Arc.arc_of_pin step.Paths.s_inst.Netlist.cell step.Paths.s_pin in
        let extended =
          List.concat_map
            (fun (senses_so_far, cur) ->
              List.filter_map
                (fun (i, o) ->
                  if i = cur then Some (senses_so_far @ [ (i, o) ], o) else None)
                arc.Arc.senses)
            chains
        in
        if List.length extended > max_chains then
          List.filteri (fun k _ -> k < max_chains) extended
        else extended)
      (List.map (fun s -> ([], s)) initial)
      p.Paths.steps
  in
  List.map fst chains

let delay_variable = "delay$"

let generate ?(reductions = Paths.all_reductions) ?(objective = Area) tech
    netlist spec =
  let classes = Paths.classes ~reductions netlist in
  let paths, _stats = Paths.extract ~reductions netlist in
  let loads = Load.make tech netlist in
  let input_slope =
    match spec.input_slope with Some s -> s | None -> tech.Tech.default_input_slope
  in
  let max_slope =
    match spec.max_slope with Some s -> s | None -> tech.Tech.slope_max
  in
  let precharge_budget =
    (* Default: the precharge phase mirrors the evaluate phase (half cycle
       each), so the precharge budget equals the evaluate target. *)
    match spec.precharge_budget with
    | Some b -> b
    | None -> spec.target_delay
  in
  (* Closed-form worst-case slope per net class: the slope of a net is the
     output-slope model of its structurally slowest driver arc, composed
     recursively (worst-case pin-to-pin modelling, §5.2).  Substituting the
     expression instead of introducing a slope variable keeps the GP's
     variable set to the size labels alone. *)
  let slope_memo : (int, Posy.t) Hashtbl.t = Hashtbl.create 64 in
  let arc_weight (i : Netlist.instance) (arc : Arc.t) =
    let chain_weight pdn pin =
      match Smart_circuit.Pdn.series_chain_through pdn pin with
      | Some chain -> List.fold_left (fun acc (_, m) -> acc +. m) 0. chain
      | None -> 0.
    in
    let stack =
      match i.Netlist.cell with
      | Cell.Static { pull_down; _ } | Cell.Domino { pull_down; _ } ->
        chain_weight pull_down arc.Arc.pin
      | Cell.Passgate _ | Cell.Tristate _ -> 0.
    in
    (* Control arcs include the local inverter stage: slower. *)
    stack +. (match arc.Arc.kind with Arc.Control -> 0.5 | _ -> 0.)
  in
  let rec slope_expr nid =
    let net = Netlist.net netlist nid in
    match net.Netlist.net_kind with
    | Netlist.Primary_input -> Posy.const input_slope
    | Netlist.Clock -> Posy.const (input_slope /. 2.)
    | Netlist.Primary_output | Netlist.Internal -> (
      let cls = Paths.class_of_net classes nid in
      match Hashtbl.find_opt slope_memo cls with
      | Some p -> p
      | None ->
        (* Guard against (impossible in valid netlists) recursion. *)
        Hashtbl.replace slope_memo cls (Posy.const input_slope);
        let rep = Paths.class_rep classes cls in
        let candidates =
          List.concat_map
            (fun (i : Netlist.instance) ->
              List.filter_map
                (fun (a : Arc.t) ->
                  if a.Arc.kind = Arc.Precharge then None else Some (i, a))
                (Arc.arcs_of i.Netlist.cell))
            (Netlist.drivers netlist rep)
        in
        let p =
          match candidates with
          | [] -> Posy.const input_slope
          | first :: rest ->
            let (i, arc) =
              List.fold_left
                (fun (bi, ba) (ci, ca) ->
                  if arc_weight ci ca > arc_weight bi ba then (ci, ca) else (bi, ba))
                first rest
            in
            let in_slope = slope_expr (List.assoc arc.Arc.pin i.Netlist.conns) in
            Posy.drop_tiny ~rel:1e-6
              (Delay.stage_out_slope tech i.Netlist.cell ~pin:arc.Arc.pin
                 ~out_sense:(Smart_models.Drive.worst_out_sense i.Netlist.cell)
                 ~load:(Load.symbolic loads i.Netlist.out)
                 ~in_slope)
        in
        Hashtbl.replace slope_memo cls p;
        p)
  in
  (* A stage's delay depends on its instance, entry pin and output sense
     only, and many paths share each stage: build it once. *)
  let stage_memo : (int * string * Arc.sense, Posy.t) Hashtbl.t =
    Hashtbl.create 256
  in
  let step_delay (step : Paths.step) out_sense =
    let i = step.Paths.s_inst in
    let key = (i.Netlist.inst_id, step.Paths.s_pin, out_sense) in
    match Hashtbl.find_opt stage_memo key with
    | Some d -> d
    | None ->
      let in_slope =
        if step.Paths.s_pin = "clk" then Posy.const (input_slope /. 2.)
        else slope_expr (List.assoc step.Paths.s_pin i.Netlist.conns)
      in
      let d =
        Delay.stage_delay tech i.Netlist.cell ~pin:step.Paths.s_pin ~out_sense
          ~load:(Load.symbolic loads i.Netlist.out)
          ~in_slope
      in
      Hashtbl.replace stage_memo key d;
      d
  in
  (* A path (or path-prefix) budget: the full evaluate budget times [mult]. *)
  let div_budget total mult =
    Posy.div_monomial total (Monomial.const (spec.target_delay *. mult))
  in
  (* Timing constraints: one per path per sense chain. *)
  let timing = ref [] in
  let stage = ref [] in
  let n_timing = ref 0 in
  let n_stage = ref 0 in
  List.iteri
    (fun pi (p : Paths.path) ->
      let chains = sense_chains p in
      List.iteri
        (fun ci chain ->
          let delays =
            List.map2
              (fun step (_, out_sense) -> step_delay step out_sense)
              p.Paths.steps chain
          in
          let total = Posy.sum delays in
          let name = Printf.sprintf "t:p%d.%d" pi ci in
          incr n_timing;
          timing := (name, div_budget total 1.) :: !timing;
          (* Without OTB, a clocked (D1) domino stage must settle within its
             own phase: constrain the path prefix ending at the first D1
             stage that feeds further dynamic logic. *)
          if not spec.otb then begin
            let rec find_boundary k steps =
              match steps with
              | [] -> None
              | (step : Paths.step) :: rest ->
                let fam = Cell.family step.Paths.s_inst.Netlist.cell in
                if
                  fam = Family.Domino_d1
                  && List.exists
                       (fun (s : Paths.step) ->
                         Family.is_dynamic (Cell.family s.Paths.s_inst.Netlist.cell))
                       rest
                then Some (k + 1)
                else find_boundary (k + 1) rest
            in
            match find_boundary 0 p.Paths.steps with
            | None -> ()
            | Some k ->
              let prefix = List.filteri (fun j _ -> j < k) delays in
              incr n_stage;
              stage :=
                (Printf.sprintf "stg:p%d.%d" pi ci, div_budget (Posy.sum prefix) 0.5)
                :: !stage
          end)
        chains)
    paths;
  (* Slope (reliability) caps per class, and precharge constraints for
     class-representative domino stages. *)
  let slope = ref [] in
  let precharge = ref [] in
  let n_pre = ref 0 in
  List.iter
    (fun rep ->
      let net = Netlist.net netlist rep in
      match net.Netlist.net_kind with
      | Netlist.Primary_input | Netlist.Clock -> ()
      | Netlist.Primary_output | Netlist.Internal ->
        let cls = Paths.class_of_net classes rep in
        slope :=
          ( Printf.sprintf "s:c%d" cls,
            Posy.div_monomial (slope_expr rep) (Monomial.const max_slope) )
          :: !slope;
        List.iter
          (fun (i : Netlist.instance) ->
            let load = Load.symbolic loads i.Netlist.out in
            List.iter
              (fun (arc : Arc.t) ->
                if arc.Arc.kind = Arc.Precharge then begin
                  let d =
                    Delay.stage_delay tech i.Netlist.cell ~pin:"clk"
                      ~out_sense:Arc.Fall ~load
                      ~in_slope:(Posy.const (input_slope /. 2.))
                  in
                  (* The precharge edge keeps rippling through downstream
                     static/pass logic (the golden timer's Precharge mode
                     does exactly this); every such extension is a separate
                     constraint, so e.g. an output inverter that only ever
                     switches during precharge still gets sized. *)
                  let emit posy =
                    incr n_pre;
                    precharge :=
                      ( Printf.sprintf "pre:%s.%d" i.Netlist.inst_name !n_pre,
                        Posy.div_monomial posy (Monomial.const precharge_budget) )
                      :: !precharge
                  in
                  let rec extend acc sense nid depth =
                    let continued = ref false in
                    if depth < 12 then
                      List.iter
                        (fun ((ri : Netlist.instance), pin) ->
                          match Cell.family ri.Netlist.cell with
                          | Family.Domino_d1 | Family.Domino_d2 -> ()
                          | Family.Static_cmos | Family.Pass | Family.Tristate_drv ->
                            let rarc = Arc.arc_of_pin ri.Netlist.cell pin in
                            if rarc.Arc.kind = Arc.Data then
                              List.iter
                                (fun (i_s, o_s) ->
                                  if i_s = sense then begin
                                    continued := true;
                                    let stage =
                                      Delay.stage_delay tech ri.Netlist.cell ~pin
                                        ~out_sense:o_s
                                        ~load:(Load.symbolic loads ri.Netlist.out)
                                        ~in_slope:(slope_expr nid)
                                    in
                                    extend (Posy.add acc stage) o_s ri.Netlist.out
                                      (depth + 1)
                                  end)
                                rarc.Arc.senses)
                        (Netlist.fanout netlist nid);
                    if not !continued then emit acc
                  in
                  extend d Arc.Fall i.Netlist.out 0
                end)
              (Arc.arcs_of i.Netlist.cell))
          (Netlist.drivers netlist rep))
    (Paths.class_reps classes);
  (* Bounds: device sizes only — slopes are closed-form expressions.
     Designer-pinned labels get equality-tight bounds (§2: manual control
     of portions of the macro). *)
  let clamp w = Float.max tech.Tech.w_min (Float.min tech.Tech.w_max w) in
  let label_bounds =
    List.map
      (fun l ->
        match List.assoc_opt l spec.pinned with
        | Some w ->
          let w = clamp w in
          (l, w *. 0.9999, w *. 1.0001)
        | None -> (l, tech.Tech.w_min, tech.Tech.w_max))
      (Netlist.labels netlist)
  in
  let timing_kept, dropped_t = prune_dominated (List.rev !timing) in
  let stage_kept, dropped_s = prune_dominated (List.rev !stage) in
  let slope_kept, dropped_sl = prune_dominated (List.rev !slope) in
  let precharge_kept, dropped_p = prune_dominated (List.rev !precharge) in
  let problem =
    Problem.make
      ~inequalities:(timing_kept @ stage_kept @ slope_kept @ precharge_kept)
      ~bounds:label_bounds
      (objective_posy objective netlist)
  in
  {
    problem;
    area = area_posy netlist;
    path_count = List.length paths;
    timing_constraints = List.length timing_kept;
    slope_constraints = List.length slope_kept;
    precharge_constraints = List.length precharge_kept;
    stage_constraints = List.length stage_kept;
    dominated_pruned = dropped_t + dropped_s + dropped_sl + dropped_p;
  }

type budget_class = Timing | Precharge | Fixed

let budget_class name =
  if String.starts_with ~prefix:"t:" name || String.starts_with ~prefix:"stg:" name
  then Timing
  else if String.starts_with ~prefix:"pre:" name then Precharge
  else Fixed

let rescale_factors ~timing ~precharge name =
  match budget_class name with
  | Timing -> 1. /. timing
  | Precharge -> 1. /. precharge
  | Fixed -> 1.

let rescale_by factor result =
  let problem =
    {
      result.problem with
      Problem.inequalities =
        List.map
          (fun (name, p) ->
            let s = factor name in
            (name, if s = 1. then p else Posy.scale s p))
          result.problem.Problem.inequalities;
    }
  in
  { result with problem }

(* The min-delay program is the same path sums over the makespan variable
   instead of the constant target: each timing and stage constraint
   [total / (target * mult) <= 1] times [target / delay$] is
   [total / (delay$ * mult) <= 1]. *)
let min_delay_of result ~target =
  let per_delay = Monomial.make target [ (delay_variable, -1.) ] in
  let problem = result.problem in
  let problem =
    {
      problem with
      Problem.objective =
        Posy.add (Posy.var delay_variable) (Posy.scale 1e-4 result.area);
      inequalities =
        List.map
          (fun (name, p) ->
            match budget_class name with
            | Timing -> (name, Posy.mul_monomial p per_delay)
            | Precharge | Fixed -> (name, p))
          problem.Problem.inequalities;
      bounds = problem.Problem.bounds @ [ (delay_variable, 1., 1e6) ];
    }
  in
  { result with problem }

let generate_min_delay ?reductions tech netlist spec =
  min_delay_of (generate ?reductions tech netlist spec)
    ~target:spec.target_delay
