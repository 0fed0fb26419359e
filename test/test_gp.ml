(* Unit + property tests: Smart_gp (geometric program solver). *)

module P = Smart_gp.Problem
module S = Smart_gp.Solver
module Posy = Smart_posy.Posy
module M = Smart_posy.Monomial
module Rng = Smart_util.Rng

let checkb msg = Alcotest.(check bool) msg
let checkf tol msg = Alcotest.(check (float tol)) msg

let solve_ok p =
  match S.solve p with
  | Ok sol -> sol
  | Error e -> Alcotest.fail ("solver error: " ^ e)

let test_symmetric_optimum () =
  (* min x + y s.t. 1/(xy) <= 1: optimum x = y = 1, objective 2. *)
  let p =
    P.make
      ~inequalities:[ ("c", Posy.of_monomial (M.make 1. [ ("x", -1.); ("y", -1.) ])) ]
      (Posy.add (Posy.var "x") (Posy.var "y"))
  in
  let sol = solve_ok p in
  checkb "optimal" true (sol.S.status = S.Optimal);
  checkf 1e-3 "objective" 2. sol.S.objective_value;
  checkf 1e-3 "x" 1. (S.lookup sol "x");
  checkf 1e-3 "y" 1. (S.lookup sol "y")

let test_box_volume () =
  (* max volume under surface budget: min 1/(xyz) s.t.
     0.2(xy + yz + xz) <= 1; optimum x = y = z = sqrt(10/6). *)
  let surf =
    Posy.of_monomials
      [
        M.make 0.2 [ ("x", 1.); ("y", 1.) ];
        M.make 0.2 [ ("y", 1.); ("z", 1.) ];
        M.make 0.2 [ ("x", 1.); ("z", 1.) ];
      ]
  in
  let p =
    P.make ~inequalities:[ ("surf", surf) ]
      (Posy.of_monomial (M.make 1. [ ("x", -1.); ("y", -1.); ("z", -1.) ]))
  in
  let sol = solve_ok p in
  let expected = sqrt (10. /. 6.) in
  checkf 1e-3 "x" expected (S.lookup sol "x");
  checkf 1e-3 "y" expected (S.lookup sol "y");
  checkf 1e-3 "z" expected (S.lookup sol "z")

let test_active_bound () =
  (* min x s.t. x >= 3 via bounds. *)
  let p = P.make ~bounds:[ ("x", 3., 10.) ] (Posy.var "x") in
  let sol = solve_ok p in
  checkf 1e-3 "sits on bound" 3. (S.lookup sol "x")

let test_infeasible_detected () =
  let p =
    P.make
      ~inequalities:
        [
          ("le", Posy.of_monomial (M.make 2. [ ("x", 1.) ]));
          (* x <= 0.5 *)
          ("ge", Posy.of_monomial (M.make 2. [ ("x", -1.) ]));
          (* x >= 2 *)
        ]
      (Posy.var "x")
  in
  let sol = solve_ok p in
  checkb "infeasible" true (sol.S.status = S.Infeasible)

let test_equality_elimination () =
  (* min x*y s.t. x*y^2 = 4 (so x = 4/y^2), x,y in [0.1, 10]:
     objective 4/y is minimised at y = sqrt(4/0.1) where x hits 0.1. *)
  let p =
    P.make
      ~equalities:[ ("eq", M.make 0.25 [ ("x", 1.); ("y", 2.) ]) ]
      ~bounds:[ ("x", 0.1, 10.); ("y", 0.1, 10.) ]
      (Posy.of_monomial (M.make 1. [ ("x", 1.); ("y", 1.) ]))
  in
  let sol = solve_ok p in
  checkf 1e-2 "x at lower bound" 0.1 (S.lookup sol "x");
  checkf 1e-2 "objective" (4. /. sqrt 40.) sol.S.objective_value;
  (* The equality must hold at the reported solution. *)
  let x = S.lookup sol "x" and y = S.lookup sol "y" in
  checkf 1e-4 "equality satisfied" 1. (0.25 *. x *. y *. y)

let test_kkt_residual_small () =
  let p =
    P.make
      ~inequalities:[ ("c", Posy.of_monomial (M.make 1. [ ("x", -1.); ("y", -1.) ])) ]
      (Posy.add (Posy.var "x") (Posy.scale 3. (Posy.var "y")))
  in
  let sol = solve_ok p in
  checkb "KKT stationarity" true (S.kkt_residual p sol < 1e-4)

let test_duals_positive () =
  let p =
    P.make
      ~inequalities:[ ("c", Posy.of_monomial (M.make 1. [ ("x", -1.) ])) ]
      (Posy.var "x")
  in
  let sol = solve_ok p in
  checkb "dual of active constraint is positive" true
    (List.assoc "c" sol.S.duals > 1e-3)

let test_problem_validation () =
  Alcotest.check_raises "bad bounds"
    (Smart_util.Err.Smart_error "Gp.Problem: bad bounds for x: [2, 1]")
    (fun () -> ignore (P.make ~bounds:[ ("x", 2., 1.) ] (Posy.var "x")))

let test_constraint_le_helper () =
  let c = P.constraint_le "c" (Posy.var "x") (Posy.of_monomial (M.const 5.)) in
  checkb "monomial rhs accepted" true (c <> None);
  let c2 = P.constraint_le "c" (Posy.var "x") (Posy.add (Posy.var "y") (Posy.const 1.)) in
  checkb "posynomial rhs rejected" true (c2 = None)

(* Regression: patching compiled coefficients with [rescale_compiled]
   must land on the same optimum as recompiling an explicitly rescaled
   Problem — and the identity factor must restore the original. *)
let test_rescale_compiled_matches_recompile () =
  let vars = [ "a"; "b"; "c" ] in
  let objective = Posy.sum (List.map Posy.var vars) in
  let ineqs =
    List.mapi
      (fun i v ->
        ( Printf.sprintf "c%d" i,
          Posy.of_monomial (M.make (0.4 +. (0.2 *. float_of_int i)) [ (v, -1.) ])
        ))
      vars
  in
  let bounds = List.map (fun v -> (v, 0.01, 100.)) vars in
  let base = P.make ~inequalities:ineqs ~bounds objective in
  let factor = function "c0" -> 1.3 | "c1" -> 0.8 | _ -> 1.0 in
  let prepared = S.prepare base in
  let sol0 = match S.resolve prepared with Ok s -> s | Error e -> Alcotest.fail e in
  S.rescale_compiled prepared factor;
  let patched =
    match S.resolve ?warm:(S.warm_handle sol0) prepared with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let recompiled =
    solve_ok
      (P.make
         ~inequalities:
           (List.map (fun (nm, c) -> (nm, Posy.scale (factor nm) c)) ineqs)
         ~bounds objective)
  in
  checkb "both optimal" true
    (patched.S.status = S.Optimal && recompiled.S.status = S.Optimal);
  checkf 1e-5 "objective" recompiled.S.objective_value patched.S.objective_value;
  List.iter
    (fun v -> checkf 1e-4 v (S.lookup recompiled v) (S.lookup patched v))
    vars;
  (* Identity factors restore the problem as prepared. *)
  S.rescale_compiled prepared (fun _ -> 1.);
  let restored =
    match S.resolve prepared with Ok s -> s | Error e -> Alcotest.fail e
  in
  checkf 1e-5 "identity restores" sol0.S.objective_value
    restored.S.objective_value

(* Property: a warm-started resolve after a random budget rescale agrees
   with a cold compile-and-solve of the equivalent rescaled Problem —
   the hot path may never trade accuracy for speed.  Factors straddle 1
   so both relaxing rounds (warm point stays feasible, phase I skipped)
   and tightening rounds (falls back to a warm-seeded phase I) are
   exercised. *)
let prop_warm_resolve_matches_cold =
  QCheck.Test.make ~name:"warm resolve matches cold solve across rescales"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let vars = [ "a"; "b"; "c" ] in
      let objective =
        Posy.of_monomials
          (List.map (fun v -> M.make (Rng.uniform rng 0.5 2.) [ (v, 1.) ]) vars)
      in
      let ineqs =
        List.mapi
          (fun i v ->
            ( Printf.sprintf "c%d" i,
              Posy.of_monomial
                (M.make (Rng.uniform rng 0.2 1.) [ (v, -1.) ]) ))
          vars
      in
      let bounds = List.map (fun v -> (v, 0.01, 100.)) vars in
      let base = P.make ~inequalities:ineqs ~bounds objective in
      let prepared = S.prepare base in
      match S.resolve prepared with
      | Error _ -> false
      | Ok sol0 ->
        let warm = ref (S.warm_handle sol0) in
        let round _ =
          (* Absolute factors w.r.t. the problem as prepared. *)
          let factors =
            List.map (fun (nm, _) -> (nm, Rng.uniform rng 0.7 1.3)) ineqs
          in
          let factor nm =
            match List.assoc_opt nm factors with Some f -> f | None -> 1.
          in
          S.rescale_compiled prepared factor;
          let cold =
            S.solve
              (P.make
                 ~inequalities:
                   (List.map
                      (fun (nm, c) -> (nm, Posy.scale (factor nm) c))
                      ineqs)
                 ~bounds objective)
          in
          match (cold, S.resolve ?warm:!warm prepared) with
          | Ok sc, Ok sw ->
            (match S.warm_handle sw with
            | Some _ as w -> warm := w
            | None -> ());
            sc.S.status = S.Optimal
            && sw.S.status = S.Optimal
            && abs_float (sc.S.objective_value -. sw.S.objective_value)
               <= 1e-5 *. abs_float sc.S.objective_value
          | _ -> false
        in
        List.for_all round [ 1; 2; 3 ])

(* Property: on random feasible problems, the solver's objective is no
   worse than any feasible point we can sample. *)
let prop_no_sampled_point_beats_solver =
  QCheck.Test.make ~name:"solver optimum beats random feasible samples"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let vars = [ "a"; "b"; "c" ] in
      (* Objective: positive combination of the variables. *)
      let objective =
        Posy.of_monomials
          (List.map (fun v -> M.make (Rng.uniform rng 0.5 2.) [ (v, 1.) ]) vars)
      in
      (* One "coverage" constraint keeping variables away from zero. *)
      let cons =
        Posy.of_monomials
          (List.map
             (fun v -> M.make (Rng.uniform rng 0.2 1.) [ (v, -1.) ])
             vars)
      in
      let p =
        P.make
          ~inequalities:[ ("cover", cons) ]
          ~bounds:(List.map (fun v -> (v, 0.01, 100.)) vars)
          objective
      in
      match S.solve p with
      | Error _ -> false
      | Ok sol -> (
        match sol.S.status with
        | S.Infeasible -> false
        | _ ->
          let feasible env = Posy.eval env cons <= 1. +. 1e-9 in
          let beaten = ref false in
          for _ = 1 to 200 do
            let vals = List.map (fun v -> (v, Rng.uniform rng 0.01 20.)) vars in
            let env v = List.assoc v vals in
            if feasible env && Posy.eval env objective < sol.S.objective_value *. 0.999
            then beaten := true
          done;
          not !beaten))

let prop_solution_feasible =
  QCheck.Test.make ~name:"reported solutions satisfy all constraints"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nv = 2 + Rng.int rng 3 in
      let vars = List.init nv (fun i -> Printf.sprintf "v%d" i) in
      let mono () =
        M.make (Rng.uniform rng 0.1 2.)
          (List.filter_map
             (fun v ->
               if Rng.bool rng then Some (v, Rng.uniform rng (-1.5) 1.5) else None)
             vars)
      in
      let ineqs =
        List.init (1 + Rng.int rng 3) (fun i ->
            (Printf.sprintf "c%d" i, Posy.of_monomials [ mono (); mono () ]))
      in
      let p =
        P.make ~inequalities:ineqs
          ~bounds:(List.map (fun v -> (v, 0.05, 50.)) vars)
          (Posy.sum (List.map Posy.var vars))
      in
      match S.solve p with
      | Error _ -> false
      | Ok sol -> (
        match sol.S.status with
        | S.Infeasible -> true (* nothing to verify *)
        | _ ->
          let env v = S.lookup sol v in
          List.for_all (fun (_, c) -> Posy.eval env c <= 1. +. 1e-5) ineqs
          && List.for_all
               (fun v ->
                 let x = env v in
                 x >= 0.05 -. 1e-6 && x <= 50. +. 1e-4)
               vars))

let prop_objective_scaling_invariance =
  QCheck.Test.make ~name:"scaling the objective does not move the argmin"
    ~count:30
    QCheck.(pair (int_range 0 100_000) (float_range 0.5 8.))
    (fun (seed, k) ->
      let rng = Rng.create seed in
      let obj =
        Posy.of_monomials
          [ M.make (Rng.uniform rng 0.5 2.) [ ("a", 1.) ];
            M.make (Rng.uniform rng 0.5 2.) [ ("b", 1.) ] ]
      in
      let cons =
        Posy.of_monomial (M.make (Rng.uniform rng 0.5 2.) [ ("a", -1.); ("b", -1.) ])
      in
      let solve obj =
        P.make ~inequalities:[ ("c", cons) ] obj |> S.solve
      in
      match (solve obj, solve (Posy.scale k obj)) with
      | Ok s1, Ok s2 ->
        abs_float (S.lookup s1 "a" -. S.lookup s2 "a") < 1e-3
        && abs_float (S.lookup s1 "b" -. S.lookup s2 "b") < 1e-3
      | _ -> false)

let prop_redundant_constraint_harmless =
  QCheck.Test.make ~name:"a dominated constraint does not move the optimum"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = Rng.uniform rng 0.5 2. in
      let cons = Posy.of_monomial (M.make c [ ("a", -1.); ("b", -1.) ]) in
      (* Strictly weaker copy (smaller coefficient): implied by [cons]. *)
      let weaker = Posy.of_monomial (M.make (c /. 2.) [ ("a", -1.); ("b", -1.) ]) in
      let obj = Posy.add (Posy.var "a") (Posy.var "b") in
      match
        ( S.solve (P.make ~inequalities:[ ("c", cons) ] obj),
          S.solve (P.make ~inequalities:[ ("c", cons); ("weak", weaker) ] obj) )
      with
      | Ok s1, Ok s2 ->
        abs_float (s1.S.objective_value -. s2.S.objective_value)
        /. s1.S.objective_value
        < 1e-3
      | _ -> false)

(* A synthetic multi-scenario merge with scenario-private variables:
   shared widths w0..w_m, and per scenario a chain of stage variables
   s<i>_<j> coupling consecutive widths.  Each stage constraint
   k/(w_j s) + k s/w_{j+1} <= 1 is strictly convex in log s, so the
   optimum determines every private variable uniquely. *)
let arrowhead_merge ~scenarios ~stages =
  let w j = Printf.sprintf "w%d" j in
  let scenario i =
    let k = 0.3 +. (0.05 *. float_of_int i) in
    let ineqs =
      List.init stages (fun j ->
          let s = Printf.sprintf "s%d_%d" i j in
          ( Printf.sprintf "st%d" j,
            Posy.of_monomials
              [
                M.make k [ (w j, -1.); (s, -1.) ];
                M.make k [ (s, 1.); (w (j + 1), -1.) ];
              ] ))
    in
    P.make ~inequalities:ineqs (Posy.var (w 0))
  in
  let shared = List.init (stages + 1) w in
  let objective = Posy.sum (List.map Posy.var shared) in
  let tagged =
    List.init scenarios (fun i -> (Printf.sprintf "c%d" i, scenario i))
  in
  P.merge ~objective tagged

(* Scenario structure on a merge with scenario-private variables: the
   stage copies mention different privates, so they share no row list,
   while per-scenario floors on the shared widths (only the coefficient
   differs) share theirs — one family per width.  The solution must pass
   the independent certificate, privates included. *)
let test_scenario_families () =
  let scenarios = 3 and stages = 5 in
  let merged = arrowhead_merge ~scenarios ~stages in
  let floors =
    List.concat
      (List.init scenarios (fun i ->
           List.init (stages + 1) (fun j ->
               ( P.scenario_name ~tag:(Printf.sprintf "c%d" i)
                   (Printf.sprintf "fl%d" j),
                 Posy.of_monomial
                   (M.make
                      (0.5 +. (0.1 *. float_of_int i))
                      [ (Printf.sprintf "w%d" j, -1.) ]) ))))
  in
  let merged = { merged with P.inequalities = merged.P.inequalities @ floors } in
  let prepared = S.prepare merged in
  let st = S.structure_stats prepared in
  Alcotest.(check int) "one family per width floor" (stages + 1) st.S.families;
  Alcotest.(check int) "only the floors share rows" (scenarios * (stages + 1))
    st.S.bundled_constraints;
  Alcotest.(check int) "scenarios" scenarios st.S.scenarios;
  match S.resolve prepared with
  | Error e -> Alcotest.fail e
  | Ok sol ->
    checkb "optimal" true (sol.S.status = S.Optimal);
    List.iter
      (fun v -> checkb (v ^ " solved") true (List.mem_assoc v sol.S.values))
      (P.variables merged);
    let report = Smart_gp.Certify.check merged sol in
    if not report.Smart_gp.Certify.ok then
      Alcotest.failf "%a" Smart_gp.Certify.pp_report report

(* Every gp.solve span, one-shot or prepared, carries the compiled
   program's size. *)
let test_solve_span_size () =
  let module T = Smart_util.Tracepoint in
  let problem = arrowhead_merge ~scenarios:2 ~stages:3 in
  let st = S.structure_stats (S.prepare problem) in
  let events = ref [] in
  T.set_sink (Some (fun e -> if e.T.span = "gp.solve" then events := e :: !events));
  Fun.protect
    ~finally:(fun () -> T.set_sink None)
    (fun () ->
      ignore (S.solve problem);
      ignore (S.resolve (S.prepare problem)));
  Alcotest.(check int) "two spans" 2 (List.length !events);
  List.iter
    (fun e ->
      checkb "rows" true (List.assoc_opt "rows" e.T.attrs = Some (T.Int st.S.rows));
      checkb "terms" true (List.assoc_opt "terms" e.T.attrs = Some (T.Int st.S.terms)))
    !events;
  checkb "a real program" true (st.S.rows > 0 && st.S.terms >= st.S.rows)

(* Minor words per Newton iteration of a warm re-solve of [prepared]
   after a modest relax (the snapshot stays strictly feasible, so phase I
   is skipped). *)
let warm_newton_words prepared =
  let sol0 =
    match S.resolve prepared with Ok s -> s | Error e -> Alcotest.fail e
  in
  match S.warm_handle sol0 with
  | None -> Alcotest.fail "no warm handle"
  | Some warm -> (
    S.rescale_compiled prepared (fun _ -> 0.9);
    let before = Gc.minor_words () in
    let resolved = S.resolve ~warm prepared in
    let delta = Gc.minor_words () -. before in
    match resolved with
    | Error e -> Alcotest.fail e
    | Ok sol ->
      checkb "warm started" true sol.S.warm_started;
      checkb "did some Newton work" true (sol.S.newton_iterations >= 3);
      delta /. float_of_int sol.S.newton_iterations)

(* The warm hot path's allocation contract: all Newton-loop vectors and
   matrices live in the prepared workspace and the dense Cholesky solve
   allocates a constant few words per call, so a warm re-solve's minor
   allocation is the fixed per-solve overhead (solution lists), not
   O(newton iterations).  A leak of even one Hessian-sized buffer per
   iteration (~440 words for these 21 variables) trips the
   per-iteration bound. *)
let test_warm_resolve_newton_allocation_free () =
  let per_iter = warm_newton_words (S.prepare (arrowhead_merge ~scenarios:3 ~stages:5)) in
  if per_iter > 1000. then
    Alcotest.failf "allocates %.0f minor words per warm Newton iteration" per_iter

(* The same contract on a real generated program: the 64-bit adder's
   constraints, where a per-term float boxed anywhere in the loop would
   cost tens of thousands of words per iteration. *)
let test_adder64_newton_allocation_free () =
  let module Smart = Smart_core.Smart in
  let nl = (Smart.Cla_adder.generate ~bits:64 ()).Smart.Macro.netlist in
  let g = Smart.Constraints.generate Smart.Tech.default nl (Smart.Constraints.spec 700.) in
  let per_iter = warm_newton_words (S.prepare g.Smart.Constraints.problem) in
  if per_iter > 1000. then
    Alcotest.failf "allocates %.0f minor words per warm Newton iteration" per_iter

let () =
  Alcotest.run "smart_gp"
    [
      ( "solver",
        [
          Alcotest.test_case "symmetric optimum" `Quick test_symmetric_optimum;
          Alcotest.test_case "box volume" `Quick test_box_volume;
          Alcotest.test_case "active bound" `Quick test_active_bound;
          Alcotest.test_case "infeasibility" `Quick test_infeasible_detected;
          Alcotest.test_case "equality elimination" `Quick test_equality_elimination;
          Alcotest.test_case "KKT residual" `Quick test_kkt_residual_small;
          Alcotest.test_case "positive duals" `Quick test_duals_positive;
        ] );
      ( "problem",
        [
          Alcotest.test_case "bound validation" `Quick test_problem_validation;
          Alcotest.test_case "constraint_le" `Quick test_constraint_le_helper;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "rescale_compiled = recompile" `Quick
            test_rescale_compiled_matches_recompile;
          Alcotest.test_case "warm Newton allocation-free" `Quick
            test_warm_resolve_newton_allocation_free;
          Alcotest.test_case "warm Newton allocation-free (64-bit adder)" `Slow
            test_adder64_newton_allocation_free;
        ] );
      ( "structure",
        [
          Alcotest.test_case "scenario families" `Quick test_scenario_families;
          Alcotest.test_case "gp.solve span carries rows, terms" `Quick
            test_solve_span_size;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_warm_resolve_matches_cold;
            prop_no_sampled_point_beats_solver;
            prop_solution_feasible;
            prop_objective_scaling_invariance;
            prop_redundant_constraint_harmless;
          ] );
    ]
