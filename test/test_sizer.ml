(* Integration-grade unit tests: Smart_sizer (the Figure 4 flow). *)

module Sizer = Smart_sizer.Sizer
module C = Smart_constraints.Constraints
module Cell = Smart_circuit.Cell
module B = Smart_circuit.Netlist.Builder
module Mux = Smart_macros.Mux
module Macro = Smart_macros.Macro
module Sta = Smart_sta.Sta
module Tech = Smart_tech.Tech

let tech = Tech.default
let checkb msg = Alcotest.(check bool) msg

let chain () =
  let b = B.create "chain" in
  let i = B.input b "in" in
  let w1 = B.wire b "w1" in
  let w2 = B.wire b "w2" in
  let o = B.output b "out" in
  B.inst b ~name:"g1" ~cell:(Cell.inverter ~p:"P1" ~n:"N1") ~inputs:[ ("a", i) ] ~out:w1 ();
  B.inst b ~name:"g2" ~cell:(Cell.inverter ~p:"P2" ~n:"N2") ~inputs:[ ("a", w1) ] ~out:w2 ();
  B.inst b ~name:"g3" ~cell:(Cell.inverter ~p:"P3" ~n:"N3") ~inputs:[ ("a", w2) ] ~out:o ();
  B.ext_load b o 100.;
  B.freeze b

let size_ok nl spec =
  match Sizer.size_typed tech nl spec with
  | Ok o -> o
  | Error e -> Alcotest.fail (Smart_util.Err.to_string e)

let test_meets_specification () =
  let nl = chain () in
  let o = size_ok nl (C.spec 80.) in
  checkb "golden delay within spec" true (o.Sizer.achieved_delay <= 80. *. 1.03);
  checkb "converged" true o.Sizer.converged;
  (* The reported sizing reproduces the reported delay. *)
  let sta = Sta.analyze tech nl ~sizing:o.Sizer.sizing_fn in
  Alcotest.(check (float 1e-6)) "delay reproducible" o.Sizer.achieved_delay
    sta.Sta.max_delay

let test_tighter_spec_costs_more () =
  let nl = chain () in
  let fast = size_ok nl (C.spec 60.) in
  let slow = size_ok nl (C.spec 110.) in
  checkb "tighter spec needs more width" true
    (fast.Sizer.total_width > slow.Sizer.total_width *. 1.05)

let test_widths_within_bounds () =
  let nl = chain () in
  let o = size_ok nl (C.spec 75.) in
  List.iter
    (fun (_, w) ->
      checkb "within device bounds" true
        (w >= tech.Tech.w_min -. 1e-9 && w <= tech.Tech.w_max +. 1e-9))
    o.Sizer.sizing

let test_infeasible_spec () =
  let nl = chain () in
  checkb "absurd target rejected" true
    (match Sizer.size_typed tech nl (C.spec 1.) with Error _ -> true | Ok _ -> false)

let test_minimize_delay () =
  let nl = chain () in
  match Sizer.minimize_delay_typed tech nl (C.spec 1e6) with
  | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  | Ok md ->
    checkb "positive" true (md.Sizer.golden_min > 5.);
    checkb "model and golden same ballpark" true
      (md.Sizer.model_min /. md.Sizer.golden_min > 0.5
      && md.Sizer.model_min /. md.Sizer.golden_min < 2.);
    (* A relaxed spec must be feasible. *)
    let o = size_ok nl (C.spec (1.3 *. md.Sizer.golden_min)) in
    checkb "meets relaxed" true
      (o.Sizer.achieved_delay <= 1.3 *. md.Sizer.golden_min *. 1.03)

let test_min_delay_hint_equivalence () =
  let nl = chain () in
  match Sizer.minimize_delay_typed tech nl (C.spec 1e6) with
  | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  | Ok md ->
    let spec = C.spec (1.25 *. md.Sizer.golden_min) in
    let without = size_ok nl spec in
    let options =
      { Sizer.default_options with Sizer.min_delay_hint = Some md.Sizer.model_min }
    in
    (match Sizer.size_typed ~options tech nl spec with
    | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
    | Ok with_hint ->
      checkb "hint does not change the answer materially" true
        (abs_float (with_hint.Sizer.total_width -. without.Sizer.total_width)
         /. without.Sizer.total_width
        < 0.05))

let test_domino_macro_sizing () =
  let info = Mux.generate Mux.Domino_unsplit ~n:8 in
  let nl = info.Macro.netlist in
  match Sizer.minimize_delay_typed tech nl (C.spec 1e6) with
  | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  | Ok md ->
    let target = 1.25 *. md.Sizer.golden_min in
    let o = size_ok nl (C.spec target) in
    checkb "meets evaluate budget" true (o.Sizer.achieved_delay <= target *. 1.03);
    checkb "meets precharge budget" true
      (o.Sizer.achieved_precharge <= target *. 1.03);
    checkb "clock load positive" true (o.Sizer.clock_load_width > 0.)

let test_objective_changes_solution () =
  let info = Mux.generate Mux.Domino_unsplit ~n:8 in
  let nl = info.Macro.netlist in
  match Sizer.minimize_delay_typed tech nl (C.spec 1e6) with
  | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  | Ok md ->
    let spec = C.spec (1.4 *. md.Sizer.golden_min) in
    let area = size_ok nl spec in
    let options =
      { Sizer.default_options with Sizer.objective = C.Clock_load }
    in
    (match Sizer.size_typed ~options tech nl spec with
    | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
    | Ok clock ->
      checkb "clock objective trades clock for area" true
        (clock.Sizer.clock_load_width <= area.Sizer.clock_load_width *. 1.05))

let test_sizing_preserves_function () =
  (* Sizing never edits structure: simulation results are unchanged. *)
  let info = Mux.generate Mux.Strongly_mutexed ~n:4 in
  let nl = info.Macro.netlist in
  let _ = size_ok nl (C.spec 120.) in
  let ins =
    List.init 4 (fun i -> (Printf.sprintf "in%d" i, i mod 2 = 0))
    @ List.init 4 (fun i -> (Printf.sprintf "s%d" i, i = 2))
  in
  let out = List.assoc "out" (Smart_sim.Sim.eval_bits nl ins) in
  checkb "function intact" true (Smart_sim.Logic.equal out Smart_sim.Logic.V1)

(* Warm-started resolves are a speed path, not a different answer: the
   8-bit domino CLA adder sized at 1.25x its model minimum delay with
   [gp_warm_start] on and off lands on the same golden delay within the
   sizer's acceptance band, and only the warm run resolves warm. *)
let test_warm_start_ab () =
  let nl = (Smart_macros.Cla_adder.generate ~bits:8 ()).Macro.netlist in
  let target =
    match Sizer.minimize_delay_typed tech nl (C.spec 1e6) with
    | Ok md -> 1.25 *. md.Sizer.model_min
    | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  in
  let size gp_warm_start =
    match
      Sizer.size_typed
        ~options:{ Sizer.default_options with Sizer.gp_warm_start }
        tech nl (C.spec target)
    with
    | Ok o -> o
    | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  in
  let warm = size true and cold = size false in
  checkb "same golden delay within tolerance x target" true
    (Float.abs (warm.Sizer.achieved_delay -. cold.Sizer.achieved_delay)
    <= Sizer.default_options.Sizer.tolerance *. target);
  checkb "warm rounds with warm starts on" true (warm.Sizer.gp_warm_rounds > 0);
  Alcotest.(check int) "no warm rounds with warm starts off" 0
    cold.Sizer.gp_warm_rounds

let () =
  Alcotest.run "smart_sizer"
    [
      ( "flow",
        [
          Alcotest.test_case "meets specification" `Quick test_meets_specification;
          Alcotest.test_case "tighter costs more" `Quick test_tighter_spec_costs_more;
          Alcotest.test_case "bounds respected" `Quick test_widths_within_bounds;
          Alcotest.test_case "infeasible detected" `Quick test_infeasible_spec;
          Alcotest.test_case "minimize delay" `Quick test_minimize_delay;
          Alcotest.test_case "hint equivalence" `Quick test_min_delay_hint_equivalence;
          Alcotest.test_case "warm starts on = off (8-bit CLA)" `Quick
            test_warm_start_ab;
        ] );
      ( "families",
        [
          Alcotest.test_case "domino macro" `Quick test_domino_macro_sizing;
          Alcotest.test_case "objective switch" `Quick test_objective_changes_solution;
          Alcotest.test_case "function preserved" `Quick test_sizing_preserves_function;
        ] );
    ]
