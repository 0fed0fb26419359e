(* Unit tests: Smart_constraints (§5.3 constraint generation). *)

module C = Smart_constraints.Constraints
module P = Smart_gp.Problem
module Posy = Smart_posy.Posy
module Cell = Smart_circuit.Cell
module Pdn = Smart_circuit.Pdn
module B = Smart_circuit.Netlist.Builder
module Mux = Smart_macros.Mux
module Macro = Smart_macros.Macro
module Tech = Smart_tech.Tech

let tech = Tech.default
let checkb msg = Alcotest.(check bool) msg
let checki msg = Alcotest.(check int) msg

let count_prefix prefix (gen : C.result) =
  List.length
    (List.filter
       (fun (n, _) ->
         String.length n >= String.length prefix
         && String.sub n 0 (String.length prefix) = prefix)
       gen.C.problem.P.inequalities)

let inverter_chain () =
  let b = B.create "c2" in
  let i = B.input b "in" in
  let w = B.wire b "w" in
  let o = B.output b "out" in
  B.inst b ~name:"g1" ~cell:(Cell.inverter ~p:"P1" ~n:"N1") ~inputs:[ ("a", i) ] ~out:w ();
  B.inst b ~name:"g2" ~cell:(Cell.inverter ~p:"P2" ~n:"N2") ~inputs:[ ("a", w) ] ~out:o ();
  B.ext_load b o 20.;
  B.freeze b

let test_static_two_constraints () =
  (* One path, rise and fall chains -> 2 timing constraints (§5.3). *)
  let gen = C.generate tech (inverter_chain ()) (C.spec 100.) in
  checki "two timing constraints" 2 gen.C.timing_constraints;
  checki "path count" 1 gen.C.path_count

let test_passgate_control_constraints () =
  (* §5.3: four constraints through the control port, two through data. *)
  let b = B.create "pg" in
  let d = B.input b "d" and s = B.input b "s" in
  let m = B.wire b "m" in
  let o = B.output b "out" in
  B.inst b ~name:"pg" ~cell:(Cell.Passgate { style = Cell.N_only; label = "N2" })
    ~inputs:[ ("d", d); ("s", s) ] ~out:m ();
  B.inst b ~name:"buf" ~cell:(Cell.inverter ~p:"P3" ~n:"N3") ~inputs:[ ("a", m) ] ~out:o ();
  B.ext_load b o 10.;
  let nl = B.freeze b in
  let gen = C.generate ~reductions:Smart_paths.Paths.no_reductions tech nl (C.spec 100.) in
  (* data port: 2 sense chains; control port: 2 chains (on-edge x two
     output transitions).  For a lone N-pass the control chains duplicate
     the data chains exactly (no local select inverter), and §5.2-style
     dominance folds identical constraints -- so 2 distinct survive here. *)
  checkb "both senses constrained" true (gen.C.timing_constraints >= 2);
  checki "no dynamic constraints" 0 gen.C.precharge_constraints;
  (* A transmission gate has a local select inverter: its control chains
     differ from the data chains and must survive the fold. *)
  let b2 = B.create "pg2" in
  let d = B.input b2 "d" and s = B.input b2 "s" in
  let m = B.wire b2 "m" in
  let o = B.output b2 "out" in
  B.inst b2 ~name:"pg" ~cell:(Cell.Passgate { style = Cell.Cmos_tgate; label = "N2" })
    ~inputs:[ ("d", d); ("s", s) ] ~out:m ();
  B.inst b2 ~name:"buf" ~cell:(Cell.inverter ~p:"P3" ~n:"N3") ~inputs:[ ("a", m) ] ~out:o ();
  B.ext_load b2 o 10.;
  let nl2 = B.freeze b2 in
  let gen2 = C.generate ~reductions:Smart_paths.Paths.no_reductions tech nl2 (C.spec 100.) in
  checkb "tgate control constraints survive" true (gen2.C.timing_constraints >= 3)

let domino_stage () =
  let b = B.create "dm" in
  let i = B.input b "a" in
  let o = B.output b "out" in
  B.inst b ~name:"d"
    ~cell:
      (Cell.Domino
         { gate_name = "buf"; pull_down = Pdn.leaf ~pin:"a" ~label:"N1";
           precharge = "P1"; eval = Some "F1"; out_p = "P2"; out_n = "N2";
           keeper = false })
    ~inputs:[ ("a", i) ] ~out:o ();
  B.ext_load b o 10.;
  B.freeze b

let test_domino_constraints () =
  let gen = C.generate tech (domino_stage ()) (C.spec 100.) in
  (* Monotone domino: only the rising evaluate chain. *)
  checki "one eval timing constraint" 1 gen.C.timing_constraints;
  checki "one precharge constraint" 1 gen.C.precharge_constraints

let test_otb_stage_constraints () =
  (* Two clocked stages in series: OTB off adds phase-boundary constraints. *)
  let b = B.create "otb" in
  let i = B.input b "a" in
  let w = B.wire b "w" in
  let o = B.output b "out" in
  let dom name input out footed =
    B.inst b ~name
      ~cell:
        (Cell.Domino
           { gate_name = name; pull_down = Pdn.leaf ~pin:"a" ~label:(name ^ "N");
             precharge = name ^ "P"; eval = (if footed then Some (name ^ "F") else None);
             out_p = name ^ "IP"; out_n = name ^ "IN"; keeper = false })
      ~inputs:[ ("a", input) ] ~out ()
  in
  dom "s1" i w true;
  dom "s2" w o false;
  B.ext_load b o 10.;
  let nl = B.freeze b in
  let with_otb = C.generate tech nl (C.spec ~otb:true 100.) in
  let without = C.generate tech nl (C.spec ~otb:false 100.) in
  checki "no stage constraints with OTB" 0 with_otb.C.stage_constraints;
  checkb "stage constraints added without OTB" true (without.C.stage_constraints > 0)

let test_bounds_cover_labels () =
  let nl = inverter_chain () in
  let gen = C.generate tech nl (C.spec 100.) in
  let bound_vars = List.map (fun (v, _, _) -> v) gen.C.problem.P.bounds in
  List.iter
    (fun l -> checkb ("bound for " ^ l) true (List.mem l bound_vars))
    (Smart_circuit.Netlist.labels nl)

let test_slope_constraints_emitted () =
  let gen = C.generate tech (inverter_chain ()) (C.spec 100.) in
  checkb "slope constraints exist" true (gen.C.slope_constraints > 0);
  checkb "named s:" true (count_prefix "s:" gen > 0)

let test_objectives () =
  let nl = domino_stage () in
  let area = C.generate ~objective:C.Area tech nl (C.spec 100.) in
  let power = C.generate ~objective:C.Power_weighted tech nl (C.spec 100.) in
  let clock = C.generate ~objective:C.Clock_load tech nl (C.spec 100.) in
  let nterms g = Posy.num_terms g.C.problem.P.objective in
  checkb "power objective adds clock weighting" true (nterms power >= nterms area);
  checkb "clock objective mentions precharge label" true
    (List.mem "P1" (Posy.vars clock.C.problem.P.objective))

let test_rescale () =
  let gen = C.generate tech (inverter_chain ()) (C.spec 100.) in
  let scaled = C.rescale_by (C.rescale_factors ~timing:0.5 ~precharge:1.0) gen in
  (* Tightening by 2 doubles every timing posynomial's value. *)
  let value g =
    let _, p = List.hd g.C.problem.P.inequalities in
    Posy.eval (fun _ -> 2.) p
  in
  Alcotest.(check (float 1e-9)) "doubled" (2. *. value gen) (value scaled)

let test_min_delay_variant () =
  let gen = C.generate_min_delay tech (inverter_chain ()) (C.spec 100.) in
  checkb "delay variable in objective" true
    (List.mem C.delay_variable (Posy.vars gen.C.problem.P.objective));
  match Smart_gp.Solver.solve gen.C.problem with
  | Ok sol ->
    checkb "solves" true (sol.Smart_gp.Solver.status = Smart_gp.Solver.Optimal);
    checkb "positive min delay" true
      (Smart_gp.Solver.lookup sol C.delay_variable > 1.)
  | Error e -> Alcotest.fail e

let test_dominance_pruning_effective () =
  let info = Smart_macros.Cla_adder.generate ~bits:8 () in
  let gen = C.generate tech info.Macro.netlist (C.spec 400.) in
  checkb "dominated constraints pruned" true (gen.C.dominated_pruned > 0)

let test_spec_defaults () =
  let s = C.spec 80. in
  checkb "otb default on" true s.C.otb;
  checkb "no explicit budget" true (s.C.precharge_budget = None);
  let s2 = C.spec ~precharge_budget:30. ~otb:false 80. in
  checkb "overrides" true (s2.C.precharge_budget = Some 30. && not s2.C.otb)

let test_mux_generation_all_topologies () =
  (* Constraint generation succeeds on every database mux topology. *)
  List.iter
    (fun (_, (info : Macro.info)) ->
      let gen = C.generate tech info.Macro.netlist (C.spec 120.) in
      checkb (Macro.name info) true (gen.C.timing_constraints > 0))
    (Mux.all_for ~n:4 ())

let () =
  Alcotest.run "smart_constraints"
    [
      ( "families",
        [
          Alcotest.test_case "static rise/fall" `Quick test_static_two_constraints;
          Alcotest.test_case "pass control port" `Quick test_passgate_control_constraints;
          Alcotest.test_case "domino eval+precharge" `Quick test_domino_constraints;
          Alcotest.test_case "OTB stage budget" `Quick test_otb_stage_constraints;
        ] );
      ( "program",
        [
          Alcotest.test_case "bounds" `Quick test_bounds_cover_labels;
          Alcotest.test_case "slope caps" `Quick test_slope_constraints_emitted;
          Alcotest.test_case "objectives" `Quick test_objectives;
          Alcotest.test_case "rescale" `Quick test_rescale;
          Alcotest.test_case "min-delay variant" `Quick test_min_delay_variant;
          Alcotest.test_case "dominance pruning" `Quick test_dominance_pruning_effective;
          Alcotest.test_case "spec defaults" `Quick test_spec_defaults;
          Alcotest.test_case "all mux topologies" `Quick test_mux_generation_all_topologies;
        ] );
    ]
