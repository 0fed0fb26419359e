(* Structured-GP bench: the merged multi-corner program on the compiled
   monomial basis, vs a typ-only sizing.

   Protocol:
     1. find the adder's fastest achievable delay at the *slow* corner
        and set the spec at 1.25x it — the regime where a joint 3-corner
        sizing exists but corner margins matter;
     2. compile the typ-only and the merged fast/typ/slow programs: the
        corner copies of a constraint must reference the single-corner
        basis rows, so both programs have the same [rows];
     3. solve the merged program once and compare the compiled kernel
        with the per-term reference at that solution
        ({!Smart.Gp.kernel_max_rel_diff}), budgets doubled first so every
        barrier weight stays O(1) — at the optimum the active slacks are
        ~1e-10 and any roundoff in F_k is magnified by 1/F_k;
     4. time a typ-only sizing against the robust fast/typ/slow sizing:
        the robust wall stays within 1.5x the typ-only wall.

   Writes BENCH_sparse.json {scenarios, families, bundled_constraints,
   rows, terms, kernel_max_rel_diff, wall_typ, wall_block,
   robust_typ_ratio, newton_block, workers} for the perf trajectory.

   Returns the CI gate: shared basis + kernel agreement within 1e-10, and
   at full size the wall ratio (smoke sizes are noise-dominated). *)

module Smart = Smart_core.Smart
module Corners = Smart.Corners
module Sizer = Smart.Sizer
module Solver = Smart.Gp
module Engine = Smart.Engine

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let slowest set =
  List.fold_left
    (fun (worst : Corners.corner) (c : Corners.corner) ->
      if c.Corners.rc_scale > worst.Corners.rc_scale then c else worst)
    (List.hd (Corners.to_list set))
    (Corners.to_list set)

let run ~fast () =
  Runner.heading "Structured GP: the merged program on the monomial basis";
  let bits = if fast then 8 else 64 in
  let nl = (Smart.Cla_adder.generate ~bits ()).Smart.Macro.netlist in
  let set = Corners.default_set () in
  let slow = slowest set in
  let typ = Corners.nominal set in
  let opts = Sizer.default_options in
  match
    Sizer.minimize_delay_typed ~options:opts slow.Corners.tech nl
      (Smart.Constraints.spec 1e6)
  with
  | Error e ->
    Printf.printf "  min-delay at slow corner failed: %s\n"
      (Smart.Error.to_string e);
    false
  | Ok md -> (
    let target = 1.25 *. md.Sizer.golden_min in
    let spec = Smart.Constraints.spec target in
    Printf.printf
      "  %d-bit adder, corners [%s]; slow-corner min %.1f ps, spec %.1f ps\n"
      bits (Corners.to_string set) md.Sizer.golden_min target;
    (* The robust flow runs on an engine (cache off) so per-corner
       constraint generation and golden verifies fan across the pool —
       the production robust configuration; the typ-only baseline is the
       plain sequential single-corner flow. *)
    let eng = Engine.create ~workers:(Runner.workers ()) ~cache_capacity:0 () in
    let merged =
      Corners.generate_robust ~reductions:opts.Sizer.reductions
        ~objective:opts.Sizer.objective
        ~map:(fun f cs -> Engine.map eng f cs)
        set nl spec
    in
    let single =
      Solver.structure_stats
        (Solver.prepare
           (Smart.Constraints.generate ~reductions:opts.Sizer.reductions
              ~objective:opts.Sizer.objective typ.Corners.tech nl spec)
             .Smart.Constraints.problem)
    in
    let prepared = Solver.prepare merged.Corners.generated.Smart.Constraints.problem in
    let st = Solver.structure_stats prepared in
    Printf.printf
      "  merged program: %d scenarios, %d families covering %d constraints, \
       %d terms over %d rows (typ-only: %d terms over %d rows); %d workers\n"
      st.Solver.scenarios st.Solver.families st.Solver.bundled_constraints
      st.Solver.terms st.Solver.rows single.Solver.terms single.Solver.rows
      (Engine.workers eng);
    let kernel_diff =
      match Solver.resolve prepared with
      | Ok sol when sol.Solver.status = Solver.Optimal ->
        Solver.rescale_compiled prepared (fun _ -> 0.5);
        Solver.kernel_max_rel_diff prepared sol.Solver.values
      | _ -> infinity
    in
    let res_typ, wall_typ =
      time (fun () -> Sizer.size_typed ~options:opts typ.Corners.tech nl spec)
    in
    let res_block, wall_block =
      time (fun () -> Engine.size_robust eng ~options:opts set nl spec)
    in
    match (res_typ, res_block) with
    | Error e, _ ->
      Printf.printf "  typ-only sizing failed: %s\n" (Smart.Error.to_string e);
      false
    | _, Error e ->
      Printf.printf "  robust sizing failed: %s\n" (Smart.Error.to_string e);
      false
    | Ok typ_only, Ok ro ->
      let block = ro.Sizer.robust in
      let ratio = wall_block /. wall_typ in
      Printf.printf
        "  typ-only: %.2f s (%d newton); robust: %.2f s (%d newton)\n" wall_typ
        typ_only.Sizer.gp_newton_iterations wall_block
        block.Sizer.gp_newton_iterations;
      Printf.printf
        "  robust/typ wall ratio %.2fx; kernel vs per-term max rel diff %.2e\n"
        ratio kernel_diff;
      let shared = st.Solver.rows = single.Solver.rows && st.Solver.families > 0 in
      let kernel_ok = kernel_diff <= 1e-10 in
      let ratio_ok = ratio <= 1.5 in
      Runner.shape_check ~name:"corner copies share the typ-only basis (same rows)"
        shared;
      Runner.shape_check ~name:"kernel = per-term reference (rel 1e-10)" kernel_ok;
      if not fast then
        Runner.shape_check ~name:"robust wall <= 1.5x typ-only wall" ratio_ok;
      Runner.write_json ~file:"BENCH_sparse.json"
        [
          ("scenarios", float_of_int st.Solver.scenarios);
          ("families", float_of_int st.Solver.families);
          ("bundled_constraints", float_of_int st.Solver.bundled_constraints);
          ("rows", float_of_int st.Solver.rows);
          ("terms", float_of_int st.Solver.terms);
          ("kernel_max_rel_diff", kernel_diff);
          ("wall_typ", wall_typ);
          ("wall_block", wall_block);
          ("robust_typ_ratio", ratio);
          ("newton_block", float_of_int block.Sizer.gp_newton_iterations);
          ("workers", float_of_int (Engine.workers eng));
        ];
      shared && kernel_ok && (fast || ratio_ok))
