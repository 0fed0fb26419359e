(* Static-analysis bench: what the log-space abstract interpreter buys
   the flow, measured on the two products of the fixed point.

   Protocol:
     1. soundness gauntlet — analyze + solve the fixed-budget program of
        N generated netlists and count enclosure violations (an Optimal
        objective below the proven floor, a solved variable escaping the
        narrowed box, or a certificate contradicted by an Optimal
        solve); must be zero;
     2. fast-fail — an impossible slope budget rejected by the interval
        certificate (no GP ever runs) vs the same rejection with the
        gate off; the certificate must land >= 50x faster.

   Writes BENCH_absint.json {gauntlet_seeds, gauntlet_violations,
   fastfail_ms, full_reject_ms, fastfail_speedup} for the perf
   trajectory.

   Returns the CI gate: zero violations + the fast-fail criterion above. *)

module Smart = Smart_core.Smart
module Absint = Smart.Absint
module Interval = Smart.Interval
module C = Smart.Constraints
module Gp = Smart.Gp
module Gen = Smart.Check_gen
module Sizer = Smart.Sizer
module Tech = Smart.Tech

let tech = Tech.default

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---------------- 1. soundness gauntlet ---------------- *)

let gauntlet ~seeds ~gates =
  let violations = ref 0 in
  let certified = ref 0 in
  let solved = ref 0 in
  for seed = 1 to seeds do
    let nl = Gen.netlist ~gates ~seed () in
    let g = C.generate tech nl (C.spec 400.) in
    let a = Absint.analyze g.C.problem in
    match Gp.solve g.C.problem with
    | Error _ -> ()
    | Ok sol when sol.Gp.status <> Gp.Optimal ->
      if a.Absint.certificate <> None then incr certified
    | Ok sol ->
      incr solved;
      if a.Absint.certificate <> None then incr violations;
      let lo = Interval.lo_linear a.Absint.objective in
      if sol.Gp.objective_value < lo *. (1. -. 1e-6) then incr violations;
      List.iter
        (fun (name, v) ->
          match Absint.var_interval a name with
          | Some iv when not (Interval.contains iv (log v)) ->
            incr violations
          | _ -> ())
        sol.Gp.values
  done;
  (!violations, !solved, !certified)

let run ~fast () =
  Runner.heading "Smart_absint: interval proofs and fast-fail";
  let seeds = if fast then 40 else 200 in
  let (violations, solved, certified), wall_gauntlet =
    time (fun () -> gauntlet ~seeds ~gates:10)
  in
  Printf.printf
    "  gauntlet: %d seeds (%d solved Optimal, %d certified infeasible), %d \
     enclosure violations in %.2f s\n"
    seeds solved certified violations wall_gauntlet;

  (* 2. fast-fail: an unreachable slope budget, interval certificate vs
     the gate-off respecification loop grinding to its iteration cap.
     Both paths pay the same constraint generation, so the contrast is
     measured on the generated program: the gate's wall vs the loop's
     (gate-off total minus the shared generation wall).  Medians of
     repeated runs — the certificate path is short. *)
  let bits = if fast then 8 else 16 in
  let reject_nl = (Smart.Cla_adder.generate ~bits ()).Smart.Macro.netlist in
  let bad_spec = C.spec ~max_slope:1e-4 400. in
  let median f =
    let runs = List.init 3 (fun _ -> snd (time f)) in
    List.nth (List.sort compare runs) 1
  in
  let g = C.generate tech reject_nl bad_spec in
  let wall_gen = median (fun () -> C.generate tech reject_nl bad_spec) in
  let fastfail_s =
    median (fun () ->
        match
          Absint.infeasibility
            ~options:(Absint.sizer_options ~robust:false)
            ~target_ps:400. g.C.problem
        with
        | Some _ -> ()
        | None -> failwith "impossible slope budget went uncertified")
  in
  let gate_off = { Sizer.default_options with Sizer.absint = false } in
  let full_reject_s =
    Float.max 1e-9
      (median (fun () ->
           match Sizer.size_typed ~options:gate_off tech reject_nl bad_spec with
           | Ok _ -> failwith "impossible slope budget was accepted"
           | Error _ -> ())
      -. wall_gen)
  in
  let speedup = if fastfail_s > 0. then full_reject_s /. fastfail_s else 0. in
  Printf.printf
    "  fast-fail (%d-bit adder, shared generation %.0f ms): certificate \
     %.2f ms vs loop reject %.0f ms — %.0fx\n"
    bits (1e3 *. wall_gen) (1e3 *. fastfail_s) (1e3 *. full_reject_s) speedup;

  let sound = violations = 0 && solved > 0 in
  let fastfail_ok = speedup >= 50. in
  Runner.shape_check ~name:"gauntlet enclosure violations = 0" sound;
  Runner.shape_check ~name:"certificate >= 50x faster than full reject"
    fastfail_ok;
  Runner.write_json ~file:"BENCH_absint.json"
    [
      ("gauntlet_seeds", float_of_int seeds);
      ("gauntlet_violations", float_of_int violations);
      ("fastfail_ms", 1e3 *. fastfail_s);
      ("full_reject_ms", 1e3 *. full_reject_s);
      ("fastfail_speedup", speedup);
    ];
  sound && fastfail_ok
