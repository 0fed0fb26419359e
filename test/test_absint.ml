(* Smart_absint tests: the interval domain, the soundness gauntlet
   (intervals must enclose every solved optimum and never certify a
   feasible program), the summary [smart_cli analyze] reports, and the
   engine fast-fail regression (a certified
   infeasible spec is rejected before any GP solve runs). *)

module Smart = Smart_core.Smart
module Absint = Smart.Absint
module Interval = Smart.Interval
module C = Smart.Constraints
module Gp = Smart.Gp
module Gen = Smart.Check_gen
module Sta = Smart.Sta
module Tech = Smart.Tech
module Sizer = Smart.Sizer
module Engine = Smart.Engine
module Err = Smart_util.Err

let tech = Tech.default
let checkb msg = Alcotest.(check bool) msg
let checki msg = Alcotest.(check int) msg

(* ---------------- interval domain ---------------- *)

let test_interval_linear_roundtrip () =
  let iv = Interval.of_linear 0.25 12.5 in
  checkb "lo" true (abs_float (Interval.lo_linear iv -. 0.25) < 1e-12);
  checkb "hi" true (abs_float (Interval.hi_linear iv -. 12.5) < 1e-12);
  checkb "point width" true (Interval.width (Interval.point 3.) = 0.);
  checkb "top is unbounded" true (Interval.width Interval.top = infinity)

let test_interval_add_is_product () =
  let a = Interval.of_linear 2. 3. and b = Interval.of_linear 5. 7. in
  let p = Interval.add a b in
  checkb "product lo" true (abs_float (Interval.lo_linear p -. 10.) < 1e-9);
  checkb "product hi" true (abs_float (Interval.hi_linear p -. 21.) < 1e-9)

let test_interval_scale_negative_flips () =
  let a = Interval.of_linear 2. 8. in
  let inv = Interval.scale (-1.) a in
  checkb "1/x lo" true (abs_float (Interval.lo_linear inv -. 0.125) < 1e-12);
  checkb "1/x hi" true (abs_float (Interval.hi_linear inv -. 0.5) < 1e-12)

let interval_lse_matches_naive =
  QCheck.Test.make ~name:"lse matches naive log-sum-exp" ~count:500
    QCheck.(list_of_size Gen.(return 4) (float_range (-20.) 20.))
    (fun xs ->
      QCheck.assume (xs <> []);
      let xs = Array.of_list xs in
      let naive =
        log (Array.fold_left (fun acc x -> acc +. exp x) 0. xs)
      in
      abs_float (Interval.lse xs -. naive) < 1e-9 *. (1. +. abs_float naive))

let test_log_sub_stable () =
  (* Near-cancellation: log(e^b - e^s) with s close to b. *)
  let b = 10. and s = 10. -. 1e-9 in
  let d = Interval.log_sub b s in
  checkb "finite under near-cancellation" true
    (d > neg_infinity && d < b);
  checkb "non-positive difference collapses" true
    (Interval.log_sub 1. 2. = neg_infinity)

(* ---------------- soundness gauntlet ---------------- *)

(* For every generated netlist: analyze the fixed-budget program, solve
   it, and require (a) a certificate is never contradicted by an Optimal
   solve, (b) an Optimal solve's objective and variable assignment lie
   inside the proven intervals, (c) the min-delay floor never exceeds
   the golden STA's measured delay at an in-bounds operating point. *)
let soundness_one ~gates seed =
  let nl = Gen.netlist ~gates ~seed () in
  let spec = C.spec 400. in
  let g = C.generate tech nl spec in
  let a = Absint.analyze g.C.problem in
  (match (a.Absint.certificate, Gp.solve g.C.problem) with
  | Some c, Ok sol ->
    if sol.Gp.status = Gp.Optimal then
      Alcotest.failf "seed %d: certified infeasible (%s) yet solved Optimal"
        seed c.Absint.detail
  | _, Error _ | None, Ok _ -> ());
  (match Gp.solve g.C.problem with
  | Error _ -> ()
  | Ok sol when sol.Gp.status <> Gp.Optimal -> ()
  | Ok sol ->
    let lo = Interval.lo_linear a.Absint.objective in
    if sol.Gp.objective_value < lo *. (1. -. 1e-6) then
      Alcotest.failf "seed %d: optimum %.6g beats proven floor %.6g" seed
        sol.Gp.objective_value lo;
    List.iter
      (fun (name, v) ->
        match Absint.var_interval a name with
        | None -> ()
        | Some iv ->
          if not (Interval.contains iv (log v)) then
            Alcotest.failf "seed %d: solved %s=%.6g escapes [%.6g, %.6g]"
              seed name v (Interval.lo_linear iv) (Interval.hi_linear iv))
      sol.Gp.values);
  (* Golden enclosure: the proven model-delay floor is a lower bound
     over the whole box, so no in-box sizing — here the gauntlet's
     deterministic operating point — can be measured faster (small
     tolerance for golden-vs-model slope handoff). *)
  let md = C.generate_min_delay tech nl spec in
  let mda = Absint.analyze md.C.problem in
  match Absint.var_interval mda C.delay_variable with
  | None -> Alcotest.failf "seed %d: min-delay program lost %s" seed
              C.delay_variable
  | Some iv ->
    let floor = Interval.lo_linear iv in
    let golden =
      (Sta.analyze tech nl ~sizing:(Gen.sizing ~seed nl)).Sta.max_delay
    in
    if golden > 0. && floor > golden *. 1.05 then
      Alcotest.failf "seed %d: floor %.2f ps above golden %.2f ps" seed
        floor golden

let test_soundness_gauntlet () =
  for seed = 1 to 40 do
    soundness_one ~gates:10 seed
  done

(* ---------------- summary ---------------- *)

(* [summarize] is the report [smart_cli analyze] prints: its counts must
   agree with the analysis they summarize, and its area floor must lie
   under the solved optimum of the same program. *)
let test_summary_counts () =
  let nl = (Smart.Cla_adder.generate ~bits:16 ()).Smart.Macro.netlist in
  let problem = (C.generate tech nl (C.spec 400.)).C.problem in
  let a = Absint.analyze ~options:(Absint.sizer_options ~robust:false) problem in
  let s = Absint.summarize a in
  checki "variables" (Array.length a.Absint.vars) s.Absint.variables;
  checki "inequalities" (Array.length a.Absint.constraints)
    s.Absint.inequalities;
  checki "never-binding"
    (Array.fold_left
       (fun n c -> if c.Absint.binding_possible then n else n + 1)
       0 a.Absint.constraints)
    s.Absint.never_binding;
  checki "sweeps" a.Absint.sweeps s.Absint.sweeps;
  checkb "sweeps within the cap of 8" true
    (s.Absint.sweeps >= 1 && s.Absint.sweeps <= 8);
  checkb "no certificate" true (s.Absint.infeasible = None);
  match Gp.solve problem with
  | Ok sol when sol.Gp.status = Gp.Optimal ->
    checkb
      (Printf.sprintf "area floor %.6g under optimum %.6g"
         s.Absint.objective_lo sol.Gp.objective_value)
      true
      (s.Absint.objective_lo <= sol.Gp.objective_value *. (1. +. 1e-6))
  | Ok _ | Error _ -> Alcotest.fail "adder16 at 400 ps did not solve Optimal"

(* ---------------- fast-fail regression ---------------- *)

(* Run [f] with the process-wide tracepoint stream (where the solver
   emits its gp.solve spans) bridged into a memory sink; return [f]'s
   result and the number of gp.solve spans it emitted. *)
let gp_solves f =
  let sink, drain = Engine.Trace.memory () in
  Engine.Trace.install_global sink;
  let r = Fun.protect ~finally:Engine.Trace.uninstall_global f in
  ( r,
    List.length
      (List.filter
         (function Engine.Trace.Gp_solve _ -> true | _ -> false)
         (drain ())) )

(* A certified rejection: [Infeasible_spec] against the caller's own
   target, and no gp.solve span (sizing spans may appear). *)
let check_fast_fail name ~target_ps (r, solves) =
  (match r with
  | Error (Err.Infeasible_spec { target_ps = t; _ }) ->
    Alcotest.(check (float 0.)) (name ^ ": target_ps") target_ps t
  | Error e -> Alcotest.failf "%s: wrong error class: %s" name (Err.to_string e)
  | Ok _ -> Alcotest.failf "%s: impossible slope budget was accepted" name);
  checki (name ^ ": no gp.solve span") 0 solves

let mux4 () =
  (Smart.Mux.generate Smart.Mux.Strongly_mutexed ~n:4).Smart.Macro.netlist

(* A spec whose slope budget is provably unreachable must be rejected
   with a structured certificate BEFORE any GP solve runs.  The control
   turns the gate off: the same spec then fails only after GP work, which
   the same sink must see — otherwise a zero count proves nothing. *)
let test_fast_fail_no_gp_solve () =
  let spec = C.spec ~max_slope:1e-4 400. in
  let size absint =
    gp_solves (fun () ->
        Engine.size (Engine.create ~workers:1 ())
          ~options:{ Sizer.default_options with Sizer.absint }
          tech (mux4 ()) spec)
  in
  (match size false with
  | Ok _, _ -> Alcotest.fail "gate off: impossible slope budget was accepted"
  | Error _, solves ->
    checkb "gate off: gp.solve spans reach the sink" true (solves > 0));
  check_fast_fail "Engine.size" ~target_ps:400. (size true)

(* The advisory flow: every menu candidate is certified, so the request
   fails as a whole, still before any GP solve. *)
let test_fast_fail_smart_run () =
  let r =
    Smart.Request.make ~engine:(Engine.create ~workers:1 ())
      ~spec:(C.spec ~max_slope:1e-4 400.) ~kind:"mux" ~bits:4 ()
  in
  check_fast_fail "Smart.run" ~target_ps:400. (gp_solves (fun () -> Smart.run r))

(* Hierarchical sizing: a certified sub-problem fails the whole sizing,
   reported against the caller's target, not the unit's budget.  The
   certificate never reads the unit's budget, so each unit is sized once:
   no relaxed retry. *)
let test_fast_fail_hier () =
  let nl = (Smart.Datapath.generate ()).Smart.Macro.netlist in
  let sink, events = Engine.Trace.memory () in
  check_fast_fail "Hier.size" ~target_ps:2000.
    (gp_solves (fun () ->
         Smart.Hier.size ~engine:(Engine.create ~workers:1 ~sink ()) tech nl
           (C.spec ~max_slope:1e-4 2000.)));
  let labels =
    List.filter_map
      (function
        | Engine.Trace.Sizing { label; _ }
          when String.starts_with ~prefix:"hier:" label ->
          Some label
        | _ -> None)
      (events ())
  in
  checkb "hier: sizing spans emitted" true (labels <> []);
  List.iter
    (fun l ->
      checki (l ^ ": sized once") 1
        (List.length (List.filter (String.equal l) labels)))
    labels

(* The infeasibility helper renders the same certificate the analysis
   carries, as a structured error. *)
let test_infeasibility_helper () =
  let g = C.generate tech (mux4 ()) (C.spec ~max_slope:1e-4 400.) in
  match
    Absint.infeasibility
      ~options:(Absint.sizer_options ~robust:false)
      ~target_ps:400. g.C.problem
  with
  | Some (Err.Infeasible_spec _) -> ()
  | Some e -> Alcotest.failf "wrong error: %s" (Err.to_string e)
  | None -> Alcotest.fail "no certificate for an impossible slope budget"

let () =
  Alcotest.run "smart_absint"
    [
      ( "interval",
        [
          Alcotest.test_case "linear roundtrip" `Quick
            test_interval_linear_roundtrip;
          Alcotest.test_case "add is product" `Quick test_interval_add_is_product;
          Alcotest.test_case "negative scale flips" `Quick
            test_interval_scale_negative_flips;
          QCheck_alcotest.to_alcotest interval_lse_matches_naive;
          Alcotest.test_case "log_sub stability" `Quick test_log_sub_stable;
        ] );
      ( "soundness",
        [ Alcotest.test_case "gauntlet" `Slow test_soundness_gauntlet ] );
      ( "summary",
        [ Alcotest.test_case "counts and area floor" `Quick test_summary_counts ] );
      ( "fast-fail",
        [
          Alcotest.test_case "no gp.solve span" `Quick test_fast_fail_no_gp_solve;
          Alcotest.test_case "Smart.run: no gp.solve span" `Quick
            test_fast_fail_smart_run;
          Alcotest.test_case "Hier.size: no gp.solve span" `Quick
            test_fast_fail_hier;
          Alcotest.test_case "infeasibility helper" `Quick
            test_infeasibility_helper;
        ] );
    ]
