(* Structured-GP bench: the merged multi-corner program solved through
   the structured path (corner-family bundling) vs the unbundled
   per-constraint reference, vs a typ-only sizing.

   Protocol:
     1. find the adder's fastest achievable delay at the *slow* corner
        and set the spec at 1.25x it — the regime where a joint 3-corner
        sizing exists but corner margins matter;
     2. size at the typical corner only: the wall the robust flow is
        measured against;
     3. size jointly over fast/typ/slow twice — once with
        [gp_structure = false] (unbundled per-constraint reference, the
        "dense" fields) and once with the default bundled path (the
        "block" fields) — and check the two flows return the same
        advice;
     4. assert the structured path actually engaged (families bundled)
        rather than silently falling back to the unbundled reference,
        and that the robust wall stays within 1.5x the typ-only wall.

   Writes BENCH_sparse.json {scenarios, families, bundled_constraints,
   wall_typ, wall_dense, wall_block, robust_typ_ratio,
   dense_block_speedup, newton_dense, newton_block, advice_max_rel_diff}
   for the perf trajectory.

   Returns the CI gate: structured engagement + advice agreement (the
   wall-ratio shape checks report but only the full-size run is expected
   to meet the ratio; smoke sizes are noise-dominated). *)

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

let max_rel_diff a b =
  List.fold_left
    (fun acc (l, wa) ->
      let wb = List.assoc l b in
      Float.max acc (Float.abs (wa -. wb) /. Float.max wa 1e-12))
    0. a

let run ~fast () =
  Runner.heading
    "Structured GP: corner-family bundling vs the dense reference";
  let bits = if fast then 8 else 64 in
  let nl = (Smart.Cla_adder.generate ~bits ()).Smart.Macro.netlist in
  let set = Corners.default_set () in
  let slow = slowest set in
  let typ = Corners.nominal set in
  let dense_opts = { Sizer.default_options with Sizer.gp_structure = false } in
  let block_opts = Sizer.default_options in
  match
    Sizer.minimize_delay_typed ~options:block_opts slow.Corners.tech nl
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
    (* Both robust flows run on an engine (cache off) so per-corner
       constraint generation and golden verifies fan across the pool —
       the production robust configuration; the typ-only baseline is the
       plain sequential single-corner flow. *)
    let eng = Engine.create ~workers:(Runner.workers ()) ~cache_capacity:0 () in
    (* What the structured compile sees on the merged program. *)
    let merged =
      Corners.generate_robust ~reductions:block_opts.Sizer.reductions
        ~objective:block_opts.Sizer.objective
        ~map:(fun f cs -> Engine.map eng f cs)
        set nl spec
    in
    let st =
      Solver.structure_stats
        (Solver.prepare merged.Corners.generated.Smart.Constraints.problem)
    in
    Printf.printf
      "  merged program: %d scenarios, %d families covering %d constraints; \
       %d workers\n"
      st.Solver.scenarios st.Solver.families st.Solver.bundled_constraints
      (Engine.workers eng);
    let res_typ, wall_typ =
      time (fun () -> Sizer.size_typed ~options:block_opts typ.Corners.tech nl spec)
    in
    let res_dense, wall_dense =
      time (fun () -> Engine.size_robust eng ~options:dense_opts set nl spec)
    in
    let res_block, wall_block =
      time (fun () -> Engine.size_robust eng ~options:block_opts set nl spec)
    in
    match (res_typ, res_dense, res_block) with
    | Error e, _, _ ->
      Printf.printf "  typ-only sizing failed: %s\n" (Smart.Error.to_string e);
      false
    | _, Error e, _ | _, _, Error e ->
      Printf.printf "  robust sizing failed: %s\n" (Smart.Error.to_string e);
      false
    | Ok typ_only, Ok ro_dense, Ok ro_block ->
      let dense = ro_dense.Sizer.robust and block = ro_block.Sizer.robust in
      let advice_diff = max_rel_diff dense.Sizer.sizing block.Sizer.sizing in
      let ratio = wall_block /. wall_typ in
      let speedup = if wall_block > 0. then wall_dense /. wall_block else 1. in
      Printf.printf
        "  typ-only: %.2f s (%d newton); robust dense: %.2f s (%d newton); \
         robust structured: %.2f s (%d newton)\n"
        wall_typ typ_only.Sizer.gp_newton_iterations wall_dense
        dense.Sizer.gp_newton_iterations wall_block
        block.Sizer.gp_newton_iterations;
      Printf.printf
        "  robust/typ wall ratio %.2fx; structured vs dense speedup %.2fx; \
         advice max rel diff %.2e\n"
        ratio speedup advice_diff;
      let engaged =
        st.Solver.families > 0
        && block.Sizer.gp_families = st.Solver.families
        && dense.Sizer.gp_families = 0
      in
      let advice_ok = advice_diff <= 1e-6 in
      Runner.shape_check ~name:"structured path engaged (families bundled)"
        engaged;
      Runner.shape_check ~name:"structured advice = dense advice (rel 1e-6)"
        advice_ok;
      Runner.shape_check ~name:"structured robust no slower than dense"
        (wall_block <= wall_dense *. 1.05);
      if not fast then
        Runner.shape_check ~name:"robust wall <= 1.5x typ-only wall"
          (ratio <= 1.5);
      Runner.write_json ~file:"BENCH_sparse.json"
        [
          ("scenarios", float_of_int st.Solver.scenarios);
          ("families", float_of_int st.Solver.families);
          ("bundled_constraints", float_of_int st.Solver.bundled_constraints);
          ("wall_typ", wall_typ);
          ("wall_dense", wall_dense);
          ("wall_block", wall_block);
          ("robust_typ_ratio", ratio);
          ("dense_block_speedup", speedup);
          ("newton_dense", float_of_int dense.Sizer.gp_newton_iterations);
          ("newton_block", float_of_int block.Sizer.gp_newton_iterations);
          ("advice_max_rel_diff", advice_diff);
          ("workers", float_of_int (Engine.workers eng));
        ];
      engaged && advice_ok)
