(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5.2, §6.1-§6.4), prints paper-vs-measured rows, runs the
   design-choice ablations, and finishes with Bechamel micro-benchmarks of
   the experiment kernels.

   Usage:
     dune exec bench/main.exe                 -- everything, full sizes
     dune exec bench/main.exe -- --fast       -- reduced sizes, no Bechamel
     dune exec bench/main.exe -- fig5 table1  -- selected experiments    *)

let all_experiments =
  [
    ("fig5", "Figures 5(a)-(c): incrementors, zero-detects, decoders");
    ("table1", "Table 1: mux topology savings");
    ("fig6", "Figure 6: 64-bit adder area-delay curve");
    ("fig7", "Figure 7: comparator topology exploration");
    ("table2", "Table 2 and §6.4: functional blocks");
    ("paths", "§5.2: path-space reduction");
    ("corners", "Smart_corners: robust multi-corner sizing (BENCH_corners.json)");
    ("hier", "Smart_hier: regularity + partitioned GP (BENCH_hier.json)");
    ("absint", "Smart_absint: interval proofs + fast-fail (BENCH_absint.json)");
    ("egraph", "Smart_rewrite: e-graph saturation + gauntlet (BENCH_egraph.json)");
    ("ablate", "Design-choice ablations");
    ("micro", "Bechamel micro-benchmarks");
  ]

let run_one ~fast = function
  | "fig5" -> Exp_fig5.run ~fast ()
  | "table1" -> Exp_table1.run ~fast ()
  | "fig6" -> Exp_fig6.run ~fast ()
  | "fig7" -> Exp_fig7.run ~fast ()
  | "table2" -> Exp_table2.run ~fast ()
  | "paths" -> Exp_paths.run ~fast ()
  | "corners" -> Exp_corners.run ~fast ()
  | "hier" -> ignore (Exp_hier.run ~fast () : bool)
  | "absint" -> ignore (Exp_absint.run ~fast () : bool)
  | "egraph" -> ignore (Exp_egraph.run ~fast () : bool)
  | "ablate" -> Exp_ablate.run ~fast ()
  | "micro" -> if not fast then Micro.run ()
  | other ->
    Printf.printf "unknown experiment %s; known: %s\n" other
      (String.concat ", " (List.map fst all_experiments))

(* Smoke mode: one experiment at reduced size.  [sound] is the
   experiment's own functional verdict; its artifact must also carry
   every expected field.  Exits with the combined verdict. *)
let smoke ~name ~file fields sound =
  let ok = sound && Runner.json_has_fields ~file fields in
  Printf.printf "\n%s: %s\n" name (if ok then "OK" else "FAILED");
  exit (if ok then 0 else 1)

(* Corner smoke (dune build @corner-smoke, pulled into @bench-smoke): the
   corners experiment at reduced size plus its artifact schema check. *)
let smoke_corners () =
  Exp_corners.run ~fast:true ();
  smoke ~name:"corner smoke" ~file:"BENCH_corners.json"
    [
      "width_typ"; "width_robust"; "width_overhead"; "worst_corner_slack_ps";
      "wall_verify_seq"; "wall_verify_par"; "verify_speedup"; "workers";
    ]
    true

(* Hier smoke (dune build @hier-smoke, pulled into @bench-smoke): the
   hierarchical experiment at reduced size.  Fails when the pool ended up
   single-worker (the comparison is void), when regularity extraction
   found nothing to dedup, or when the hierarchical advice diverged from
   the monolithic reference — not just when the artifact is malformed. *)
let smoke_hier () =
  smoke ~name:"hier smoke" ~file:"BENCH_hier.json"
    [
      "gates"; "components"; "classes"; "dedup_ratio"; "partitions";
      "cut_nets"; "boundary_iterations"; "solves"; "wall_mono"; "wall_hier";
      "speedup"; "workers"; "advice_rel_diff"; "width_mono"; "width_hier";
    ]
    (Exp_hier.run ~fast:true ())

(* Absint gauntlet (dune build @absint-gauntlet, pulled into
   @bench-smoke): the static-analysis experiment at reduced size.  Fails
   on any interval-enclosure violation or a fast-fail certificate less
   than 50x faster than the gate-off rejection — not just when the
   artifact is malformed. *)
let smoke_absint () =
  smoke ~name:"absint gauntlet" ~file:"BENCH_absint.json"
    [
      "gauntlet_seeds"; "gauntlet_violations"; "fastfail_ms"; "full_reject_ms";
      "fastfail_speedup";
    ]
    (Exp_absint.run ~fast:true ())

(* E-graph smoke (dune build @egraph-smoke, pulled into @bench-smoke):
   the rewrite experiment at reduced size.  Fails when extraction cannot
   match the menu on the naive-chain workload, when the soundness
   gauntlet reports any equivalence/lint/oracle finding or extracts
   fewer than 200 candidates, or when BENCH_egraph.json drops a field. *)
let smoke_egraph () =
  smoke ~name:"egraph smoke" ~file:"BENCH_egraph.json"
    [
      "saturation_wall"; "enodes"; "eclasses"; "saturated"; "chain_menu_best";
      "chain_rewrite_best"; "mux_menu_best"; "mux_rewrite_best";
      "gauntlet_seeds"; "gauntlet_candidates"; "gauntlet_oracle_findings";
      "gauntlet_lint_errors"; "gauntlet_equiv_failures"; "gauntlet_wall";
      "workers";
    ]
    (Exp_egraph.run ~fast:true ())

(* Paper smoke (dune build @paper-smoke, pulled into @bench-smoke): the
   paper reproductions that are cheap at full size — Table 1, Figure 7
   and the §5.2 path reduction, a few seconds together.  Fails unless
   each ran all of its shape checks and every one holds. *)
let smoke_paper () =
  let ok =
    List.map
      (fun (name, expected) ->
        Runner.verdicts := [];
        run_one ~fast:false name;
        let ran = List.length !Runner.verdicts in
        if ran <> expected then
          Printf.printf "  %s ran %d of its %d shape checks\n" name ran expected;
        ran = expected && List.for_all snd !Runner.verdicts)
      [ ("table1", 3); ("fig7", 3); ("paths", 2) ]
  in
  let ok = List.for_all Fun.id ok in
  Printf.printf "\npaper smoke: %s\n" (if ok then "OK" else "FAILED");
  exit (if ok then 0 else 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--smoke-paper" args then smoke_paper ();
  if List.mem "--smoke-egraph" args then smoke_egraph ();
  if List.mem "--smoke-corners" args then smoke_corners ();
  if List.mem "--smoke-hier" args then smoke_hier ();
  if List.mem "--smoke-absint" args then smoke_absint ();
  let fast = List.mem "--fast" args in
  let selected = List.filter (fun a -> a <> "--fast") args in
  let selected =
    if selected = [] then List.map fst all_experiments else selected
  in
  Printf.printf
    "SMART reproduction benches -- Nemani & Tiwari, DAC 2000%s\n"
    (if fast then " [--fast: reduced sizes]" else "");
  Printf.printf "technology: %s (FO4 = %.1f ps)\n" Runner.tech.Smart_tech.Tech.name
    (Smart_tech.Tech.fo4_delay Runner.tech);
  let t0 = Unix.gettimeofday () in
  List.iter (run_one ~fast) selected;
  Printf.printf "\ntotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0)
