(* smart_cli: command-line front end to the SMART design advisor.

   Subcommands:
     db       list the design database
     advise   run the Figure 1 flow on a macro instance
     explore  advise, optionally expanding the menu by e-graph rewriting
     size     size one named macro to a delay spec
     paths    show §5.2 path statistics for a macro
     sweep    area-delay sweep (Figure 6 style)                      *)

open Cmdliner
module Smart = Smart_core.Smart

let tech = Smart.Tech.default

(* ---------------- shared args ---------------- *)

let kind_arg =
  let doc = "Macro kind (mux, incrementor, decrementor, zero-detect, decoder, comparator, adder)." in
  Arg.(value & opt string "mux" & info [ "kind"; "k" ] ~docv:"KIND" ~doc)

let bits_arg =
  let doc = "Width parameter: inputs for muxes, bits otherwise." in
  Arg.(value & opt int 4 & info [ "bits"; "b" ] ~docv:"N" ~doc)

let load_arg =
  let doc = "External load on each output, fF." in
  Arg.(value & opt float 30. & info [ "load"; "l" ] ~docv:"FF" ~doc)

let delay_arg =
  let doc = "Delay specification, ps." in
  Arg.(value & opt float 150. & info [ "delay"; "d" ] ~docv:"PS" ~doc)

let metric_arg =
  let metric_conv =
    Arg.enum
      [ ("area", Smart.Explore.Area); ("power", Smart.Explore.Power);
        ("clock", Smart.Explore.Clock_load) ]
  in
  let doc = "Cost metric: area, power or clock." in
  Arg.(value & opt metric_conv Smart.Explore.Area & info [ "metric"; "m" ] ~doc)

let no_onehot_arg =
  let doc = "Do not assume one-hot (strongly mutexed) selects." in
  Arg.(value & flag & info [ "no-onehot" ] ~doc)

let no_dynamic_arg =
  let doc = "Exclude domino topologies." in
  Arg.(value & flag & info [ "no-dynamic" ] ~doc)

let workers_arg =
  let doc =
    "Worker pool width for multi-candidate evaluation (0 = one per \
     available core)."
  in
  Arg.(value & opt int 0 & info [ "workers"; "j" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Emit engine trace spans: $(b,stderr) for human-readable lines, any \
     other value is a path receiving one JSON object per line."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"SPEC" ~doc)

let corners_arg =
  let doc =
    "Size robustly over a comma-separated process-corner set \
     (e.g. $(b,fast,typ,slow)); each name is a builtin corner or \
     $(i,name:rc_scale).  One joint sizing must meet the spec at every \
     corner; candidates are ranked by their worst corner."
  in
  Arg.(value & opt (some string) None & info [ "corners" ] ~docv:"SET" ~doc)

let hier_arg =
  let mode_conv = Arg.enum [ ("auto", `Auto); ("off", `Off); ("force", `Force) ] in
  let doc =
    "Hierarchical sizing: $(b,auto) engages regularity extraction and \
     partitioned GP on large netlists, $(b,force) always decomposes, \
     $(b,off) keeps the monolithic flow.  Ignored with $(b,--corners)."
  in
  Arg.(value & opt mode_conv `Auto & info [ "hier" ] ~docv:"MODE" ~doc)

(* ---------------- unified error reporting ----------------

   Every subcommand renders advisory failures the same way: one stderr
   line carrying [Smart.Error.to_json] (code + human message + structured
   data), and an exit status from one table:

     0  success
     1  advisory failure (infeasible-spec, sta-disagreement, gp-failure,
        no-applicable-topology, lint-failed, worker-crash)
     2  caller error (invalid-request, bad-request, CLI usage)
     3  server overloaded (serve's backpressure rejection)              *)

let exit_code_of_error (e : Smart.Error.t) =
  match e with
  | Smart.Error.Invalid_request _ | Smart.Error.Bad_request _ -> 2
  | Smart.Error.Overloaded _ -> 3
  | Smart.Error.No_applicable_topology _ | Smart.Error.Infeasible_spec _
  | Smart.Error.Gp_failure _ | Smart.Error.Sta_disagreement _
  | Smart.Error.Worker_crash _ | Smart.Error.Lint_failed _ -> 1

let report_error ~cmd e =
  Printf.eprintf "%s: %s\n" cmd (Smart.Error.to_json e);
  exit_code_of_error e

(* [--corners] is optional everywhere; a malformed set is a usage error. *)
let parse_corners = function
  | None -> None
  | Some s -> (
    match Smart.Corners.of_string s with
    | Ok set -> Some set
    | Error msg ->
      Printf.eprintf "smart_cli: bad --corners: %s\n" msg;
      exit 2)

let print_corner_reports ~binding reports =
  List.iter
    (fun (r : Smart.Sizer.corner_report) ->
      Printf.printf "  corner %-8s %8.1f ps  slack %+7.1f ps%s%s\n"
        r.Smart.Sizer.corner_name r.Smart.Sizer.corner_delay
        r.Smart.Sizer.corner_slack
        (if Float.is_finite r.Smart.Sizer.corner_precharge
           && r.Smart.Sizer.corner_precharge > 0.
         then Printf.sprintf "  precharge %.1f ps" r.Smart.Sizer.corner_precharge
         else "")
        (if r.Smart.Sizer.corner_name = binding then "  <- binding" else ""))
    reports

(* Sinks may be fed concurrently from the engine and the global
   tracepoint bridge; serialise them behind one mutex. *)
let locked_sink sink =
  let m = Mutex.create () in
  fun e ->
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> sink e)

let make_engine ~workers ~trace =
  let sink, cleanup =
    match trace with
    | None -> (Smart.Engine.Trace.null, fun () -> ())
    | Some "stderr" -> (locked_sink Smart.Engine.Trace.stderr_line, fun () -> ())
    | Some path ->
      let oc =
        try open_out path
        with Sys_error msg ->
          Printf.eprintf "smart_cli: cannot open trace file: %s\n" msg;
          exit 2
      in
      (locked_sink (Smart.Engine.Trace.json_lines oc), fun () -> close_out oc)
  in
  if trace <> None then Smart.Engine.Trace.install_global sink;
  (Smart.Engine.create ~workers ~sink (), cleanup)

let requirements ~bits ~load ~no_onehot ~no_dynamic =
  Smart.Database.requirements ~ext_load:load
    ~strongly_mutexed_selects:(not no_onehot) ~allow_dynamic:(not no_dynamic)
    bits

(* ---------------- db ---------------- *)

let db_cmd =
  let run () =
    let db = Smart.Database.builtins () in
    Printf.printf "%-34s %-12s %s\n" "entry" "kind" "description";
    List.iter
      (fun (e : Smart.Database.entry) ->
        Printf.printf "%-34s %-12s %s\n" e.Smart.Database.entry_name
          e.Smart.Database.kind e.Smart.Database.description)
      (Smart.Database.entries db);
    0
  in
  Cmd.v (Cmd.info "db" ~doc:"List the builtin design database")
    Term.(const run $ const ())

(* ---------------- advise ---------------- *)

let advise_cmd =
  let run kind bits load delay metric no_onehot no_dynamic workers trace corners
      hier =
    let corners = parse_corners corners in
    let engine, cleanup = make_engine ~workers ~trace in
    let request =
      Smart.Request.make ~kind ~bits ~delay ~metric ~engine ?corners ~hier ()
      |> Smart.Request.with_requirements
           (requirements ~bits ~load ~no_onehot ~no_dynamic)
    in
    let result = Smart.run request in
    cleanup ();
    match result with
    | Error e -> report_error ~cmd:"advise" e
    | Ok advice ->
      Printf.printf "%-34s %9s %9s %9s %9s%s\n" "topology" "delay ps" "width um"
        "clock um" "power uW"
        (if corners <> None then "  binding" else "");
      List.iter
        (fun (c : Smart.Explore.candidate) ->
          Printf.printf "%-34s %9.1f %9.1f %9.1f %9.1f%s\n"
            c.Smart.Explore.entry_name
            c.Smart.Explore.outcome.Smart.Sizer.achieved_delay
            c.Smart.Explore.outcome.Smart.Sizer.total_width
            c.Smart.Explore.outcome.Smart.Sizer.clock_load_width
            c.Smart.Explore.power_report.Smart.Power.total_uw
            (match c.Smart.Explore.binding_corner with
            | Some b -> "  " ^ b
            | None -> ""))
        advice.Smart.ranking.Smart.Explore.ranked;
      List.iter
        (fun (n, r) -> Printf.printf "%-34s rejected: %s\n" n r)
        advice.Smart.ranking.Smart.Explore.rejected;
      let winner = advice.Smart.ranking.Smart.Explore.winner in
      (match winner.Smart.Explore.binding_corner with
      | Some binding when winner.Smart.Explore.corners <> [] ->
        Printf.printf "\n%s across corners:\n" winner.Smart.Explore.entry_name;
        print_corner_reports ~binding winner.Smart.Explore.corners
      | _ -> ());
      Printf.printf "\nrecommended: %s (metric: %s)\n"
        winner.Smart.Explore.entry_name
        (Smart.Explore.metric_to_string metric);
      0
  in
  Cmd.v (Cmd.info "advise" ~doc:"Run the SMART advisory flow on a macro instance")
    Term.(const run $ kind_arg $ bits_arg $ load_arg $ delay_arg $ metric_arg
          $ no_onehot_arg $ no_dynamic_arg $ workers_arg $ trace_arg
          $ corners_arg $ hier_arg)

(* ---------------- explore ---------------- *)

let explore_cmd =
  let rewrite_arg =
    let doc =
      "Expand the candidate menu by e-graph equality saturation \
       ($(b,Smart_rewrite)): every candidate is abstracted, saturated \
       under the rewrite rule set, and the extracted top-k alternative \
       topologies are sized alongside the hand-coded menu."
    in
    Arg.(value & flag & info [ "rewrite" ] ~doc)
  in
  let rw_iters_arg =
    let doc = "Saturation round cap for $(b,--rewrite)." in
    Arg.(value & opt int Smart.Rewrite.default_budget.Smart.Rewrite.iter_limit
         & info [ "rewrite-iters" ] ~docv:"N" ~doc)
  in
  let rw_nodes_arg =
    let doc = "E-node growth limit for $(b,--rewrite)." in
    Arg.(value & opt int Smart.Rewrite.default_budget.Smart.Rewrite.node_limit
         & info [ "rewrite-nodes" ] ~docv:"N" ~doc)
  in
  let rw_topk_arg =
    let doc = "Candidates extracted per source for $(b,--rewrite)." in
    Arg.(value & opt int Smart.Rewrite.default_budget.Smart.Rewrite.top_k
         & info [ "rewrite-top-k" ] ~docv:"K" ~doc)
  in
  let run kind bits load delay metric no_onehot no_dynamic workers trace rewrite
      rw_iters rw_nodes rw_topk =
    let engine, cleanup = make_engine ~workers ~trace in
    let rewrite_mode =
      if rewrite then
        `Saturate
          {
            Smart.Rewrite.iter_limit = rw_iters;
            node_limit = rw_nodes;
            top_k = rw_topk;
          }
      else `Off
    in
    let request =
      Smart.Request.make ~kind ~bits ~delay ~metric ~engine
        ~rewrite:rewrite_mode ()
      |> Smart.Request.with_requirements
           (requirements ~bits ~load ~no_onehot ~no_dynamic)
    in
    let result = Smart.run request in
    cleanup ();
    match result with
    | Error e -> report_error ~cmd:"explore" e
    | Ok advice ->
      let ranking = advice.Smart.ranking in
      Printf.printf "%-40s %9s %9s %9s\n" "topology" "delay ps" "width um"
        "power uW";
      List.iter
        (fun (c : Smart.Explore.candidate) ->
          Printf.printf "%-40s %9.1f %9.1f %9.1f\n" c.Smart.Explore.entry_name
            c.Smart.Explore.outcome.Smart.Sizer.achieved_delay
            c.Smart.Explore.outcome.Smart.Sizer.total_width
            c.Smart.Explore.power_report.Smart.Power.total_uw)
        ranking.Smart.Explore.ranked;
      List.iter
        (fun (n, r) -> Printf.printf "%-40s rejected: %s\n" n r)
        ranking.Smart.Explore.rejected;
      (match ranking.Smart.Explore.rewrite with
      | None -> ()
      | Some rw ->
        Printf.printf "\nsaturation (per source):\n";
        Printf.printf "  %-34s %6s %7s %8s %5s  %s\n" "source" "rounds"
          "enodes" "eclasses" "fixed" "rule hits";
        List.iter
          (fun (n, (s : Smart.Rewrite.stats)) ->
            Printf.printf "  %-34s %6d %7d %8d %5s  %s\n" n
              s.Smart.Rewrite.rounds s.Smart.Rewrite.enodes
              s.Smart.Rewrite.eclasses
              (if s.Smart.Rewrite.saturated then "yes" else "no")
              (String.concat ", "
                 (List.map
                    (fun (r, k) -> Printf.sprintf "%s:%d" r k)
                    s.Smart.Rewrite.rule_hits)))
          rw.Smart.Explore.rw_sources;
        List.iter
          (fun (n, reason) -> Printf.printf "  %-34s skipped: %s\n" n reason)
          rw.Smart.Explore.rw_skipped;
        if rw.Smart.Explore.rw_candidates <> [] then begin
          Printf.printf "\nextracted candidates:\n";
          Printf.printf "  %-40s %-26s %s\n" "candidate" "source"
            "pre-size cost";
          List.iter
            (fun (c, src, cost) ->
              Printf.printf "  %-40s %-26s %13.1f\n" c src cost)
            rw.Smart.Explore.rw_candidates
        end;
        List.iter
          (fun (c, rule) ->
            Printf.printf "  %-40s dropped by lint rule %s\n" c rule)
          rw.Smart.Explore.rw_lint_dropped);
      let winner = ranking.Smart.Explore.winner in
      Printf.printf "\nrecommended: %s (metric: %s)\n"
        winner.Smart.Explore.entry_name
        (Smart.Explore.metric_to_string metric);
      0
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Rank every applicable topology, optionally expanding the menu by \
          e-graph rewriting (--rewrite)")
    Term.(const run $ kind_arg $ bits_arg $ load_arg $ delay_arg $ metric_arg
          $ no_onehot_arg $ no_dynamic_arg $ workers_arg $ trace_arg
          $ rewrite_arg $ rw_iters_arg $ rw_nodes_arg $ rw_topk_arg)

(* ---------------- helpers for single-entry commands ---------------- *)

let build_first ~kind ~req =
  let db = Smart.Database.builtins () in
  match Smart.Database.build_all db ~kind req with
  | [] -> Error (Smart.Error.No_applicable_topology { kind })
  | (_, info) :: _ -> Ok info

(* ---------------- size ---------------- *)

let size_cmd =
  let print_widths (o : Smart.Sizer.outcome) =
    Printf.printf
      "  total width %.1f um, clock load %.1f um, %d GP Newton steps\n"
      o.Smart.Sizer.total_width o.Smart.Sizer.clock_load_width
      o.Smart.Sizer.gp_newton_iterations;
    List.iter
      (fun (l, w) -> Printf.printf "  %-10s %6.2f um\n" l w)
      o.Smart.Sizer.sizing
  in
  let print_hier_report (r : Smart.Hier.report) =
    let p = r.Smart.Hier.plan in
    Printf.printf
      "  hierarchical plan: %d gates -> %d components, %d classes (%d deduped \
       covering %d gates), %d residual gates in %d partitions, %d cut nets\n"
      p.Smart.Hier.total_instances p.Smart.Hier.components p.Smart.Hier.classes
      p.Smart.Hier.dedup_classes p.Smart.Hier.deduped_instances
      p.Smart.Hier.residual_instances p.Smart.Hier.partitions
      p.Smart.Hier.cut_nets;
    Printf.printf "  %-24s %9s %9s\n" "class" "members" "gates/rep";
    List.iteri
      (fun i (members, gates) ->
        Printf.printf "  class %-18d %9d %9d\n" i members gates)
      p.Smart.Hier.class_sizes;
    Printf.printf
      "  %d outer iterations, %d solves -> %d distinct tasks (dedup %.1fx), \
       boundary movement %.1f ps\n"
      r.Smart.Hier.outer_iterations r.Smart.Hier.solves
      r.Smart.Hier.distinct_tasks r.Smart.Hier.dedup_ratio
      r.Smart.Hier.boundary_movement
  in
  let run kind bits load delay workers corners hier =
    let corners = parse_corners corners in
    let req = requirements ~bits ~load ~no_onehot:false ~no_dynamic:false in
    match build_first ~kind ~req with
    | Error e -> report_error ~cmd:"size" e
    | Ok info -> (
      let nl = info.Smart.Macro.netlist in
      let spec = Smart.Constraints.spec delay in
      match corners with
      | None when Smart.Hier.engages hier nl -> (
        let engine = Smart.Engine.create ~workers () in
        match Smart.Hier.size ~engine tech nl spec with
        | Error e -> report_error ~cmd:"size" e
        | Ok h ->
          let o = h.Smart.Hier.sizer in
          Printf.printf "%s hierarchically sized to %.1f ps (spec %.1f):\n"
            (Smart.Macro.name info) o.Smart.Sizer.achieved_delay delay;
          print_hier_report h.Smart.Hier.report;
          print_widths o;
          0)
      | None -> (
        match Smart.Sizer.size_typed tech nl spec with
        | Error e -> report_error ~cmd:"size" e
        | Ok o ->
          Printf.printf "%s sized to %.1f ps (spec %.1f):\n"
            (Smart.Macro.name info) o.Smart.Sizer.achieved_delay delay;
          print_widths o;
          0)
      | Some set -> (
        (* The engine fans the per-round per-corner golden verifies across
           its worker pool. *)
        let engine = Smart.Engine.create ~workers () in
        match
          Smart.Engine.size_robust engine ~options:Smart.Sizer.default_options
            set nl spec
        with
        | Error e -> report_error ~cmd:"size" e
        | Ok ro ->
          Printf.printf
            "%s robustly sized over [%s] (spec %.1f ps, binding corner %s):\n"
            (Smart.Macro.name info)
            (Smart.Corners.to_string set)
            delay ro.Smart.Sizer.binding_corner;
          print_corner_reports ~binding:ro.Smart.Sizer.binding_corner
            ro.Smart.Sizer.per_corner;
          print_widths ro.Smart.Sizer.robust;
          0))
  in
  Cmd.v (Cmd.info "size" ~doc:"Size one macro to a delay specification")
    Term.(const run $ kind_arg $ bits_arg $ load_arg $ delay_arg $ workers_arg
          $ corners_arg $ hier_arg)

(* ---------------- paths ---------------- *)

let paths_cmd =
  let run kind bits load =
    let req = requirements ~bits ~load ~no_onehot:false ~no_dynamic:false in
    match build_first ~kind ~req with
    | Error e -> report_error ~cmd:"paths" e
    | Ok info ->
      let nl = info.Smart.Macro.netlist in
      let _, stats = Smart.Paths.extract nl in
      Printf.printf "%s: %d instances, %d transistors\n" (Smart.Macro.name info)
        (Smart.Circuit.instance_count nl)
        (Smart.Circuit.device_count nl);
      Printf.printf "exhaustive paths:  %.0f\n" stats.Smart.Paths.exhaustive_paths;
      Printf.printf "reduced paths:     %d\n" stats.Smart.Paths.reduced_paths;
      Printf.printf "net classes:       %d\n" stats.Smart.Paths.class_count;
      Printf.printf "reduction factor:  %.0fx\n" stats.Smart.Paths.reduction_factor;
      0
  in
  Cmd.v (Cmd.info "paths" ~doc:"Show §5.2 path statistics for a macro")
    Term.(const run $ kind_arg $ bits_arg $ load_arg)

(* ---------------- sweep ---------------- *)

let sweep_cmd =
  let points_arg =
    Arg.(value & opt int 6 & info [ "points" ] ~docv:"N" ~doc:"Sweep points.")
  in
  let run kind bits load points workers trace =
    let req = requirements ~bits ~load ~no_onehot:false ~no_dynamic:false in
    match build_first ~kind ~req with
    | Error e -> report_error ~cmd:"sweep" e
    | Ok info ->
      let engine, cleanup = make_engine ~workers ~trace in
      let sweep =
        Smart.Explore.sweep_area_delay ~engine ~points tech
          info.Smart.Macro.netlist
          (Smart.Constraints.spec 1e6)
      in
      cleanup ();
      (match sweep with
      | Error e -> report_error ~cmd:"sweep" e
      | Ok { Smart.Explore.sweep_curve = []; sweep_skipped; _ } ->
        prerr_endline "sweep: every point infeasible";
        List.iter
          (fun (d, e) ->
            Printf.eprintf "  %.1f ps: %s\n" d (Smart.Error.to_string e))
          sweep_skipped;
        1
      | Ok { Smart.Explore.sweep_curve = (d0, _) :: _ as pts; sweep_skipped; _ }
        ->
        Printf.printf "%12s %12s %12s\n" "target ps" "norm delay" "width um";
        List.iter
          (fun (d, a) -> Printf.printf "%12.1f %12.3f %12.0f\n" d (d /. d0) a)
          pts;
        List.iter
          (fun (d, e) ->
            Printf.printf "%12.1f skipped: %s\n" d (Smart.Error.to_string e))
          sweep_skipped;
        0)
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Area-delay sweep of a macro (Figure 6 style)")
    Term.(const run $ kind_arg $ bits_arg $ load_arg $ points_arg $ workers_arg
          $ trace_arg)

(* ---------------- spice ---------------- *)

let spice_cmd =
  let run kind bits load delay =
    let req = requirements ~bits ~load ~no_onehot:false ~no_dynamic:false in
    match build_first ~kind ~req with
    | Error e -> report_error ~cmd:"spice" e
    | Ok info -> (
      let nl = info.Smart.Macro.netlist in
      match Smart.Sizer.size_typed tech nl (Smart.Constraints.spec delay) with
      | Error e -> report_error ~cmd:"spice" e
      | Ok o ->
        print_string (Smart.Spice.subckt nl ~sizing:o.Smart.Sizer.sizing_fn);
        0)
  in
  Cmd.v
    (Cmd.info "spice" ~doc:"Size a macro and dump the transistor-level SPICE deck")
    Term.(const run $ kind_arg $ bits_arg $ load_arg $ delay_arg)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run kind bits load delay =
    let req = requirements ~bits ~load ~no_onehot:false ~no_dynamic:false in
    match build_first ~kind ~req with
    | Error e -> report_error ~cmd:"analyze" e
    | Ok info ->
      let nl = info.Smart.Macro.netlist in
      let generated =
        Smart.Constraints.generate tech nl (Smart.Constraints.spec delay)
      in
      let problem = generated.Smart.Constraints.problem in
      let s =
        Smart.Absint.summarize
          (Smart.Absint.analyze
             ~options:(Smart.Absint.sizer_options ~robust:false)
             problem)
      in
      (* The delay floor comes from the min-delay formulation: the
         makespan variable's narrowed lower bound is a bound no solver run
         (and no respecification loop) can beat. *)
      let delay_lo_ps =
        let md = Smart.Constraints.min_delay_of generated ~target:delay in
        match
          Smart.Absint.var_interval
            (Smart.Absint.analyze md.Smart.Constraints.problem)
            Smart.Constraints.delay_variable
        with
        | Some iv -> Smart.Interval.lo_linear iv
        | None -> 0.
      in
      Printf.printf
        "%s: %d variables, %d inequalities, %d equalities (%d narrowing \
         sweeps)\n"
        (Smart.Macro.name info) s.Smart.Absint.variables
        s.Smart.Absint.inequalities s.Smart.Absint.equalities
        s.Smart.Absint.sweeps;
      Printf.printf "  proven delay floor  %10.1f ps   (spec %.1f ps)\n"
        delay_lo_ps delay;
      Printf.printf "  area lower bound    %10.1f um   (no sizing can beat it)\n"
        s.Smart.Absint.objective_lo;
      Printf.printf "  never-binding       %10d constraints\n"
        s.Smart.Absint.never_binding;
      Printf.printf
        "  bound tightening    %10d variables narrowed (avg %.1f%% log-width)\n"
        s.Smart.Absint.tightened s.Smart.Absint.tighten_avg_pct;
      (* The verdict is against the spec AS GIVEN (fixed budgets): a
         certificate here means no sizing within device bounds meets it.
         [s.infeasible] is the stronger sizer-classified claim (not even
         the respecification loop could rescue it); prefer it when both
         exist. *)
      (match
         (s.Smart.Absint.infeasible,
          (Smart.Absint.analyze problem).Smart.Absint.certificate)
       with
      | Some c, _ | None, Some c ->
        report_error ~cmd:"analyze"
          (Smart.Absint.err_of_certificate ~target_ps:delay c)
      | None, None ->
        Printf.printf "  verdict             no infeasibility certificate\n";
        0)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Abstract interpretation of a macro's sizing program: proven \
          delay/area lower bounds and never-binding constraints (exit 1 \
          with $(b,infeasible-spec) when the spec is certified \
          unreachable)")
    Term.(const run $ kind_arg $ bits_arg $ load_arg $ delay_arg)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit one JSON document per netlist.")
  in
  let rules_arg =
    Arg.(value & flag
         & info [ "rules" ] ~doc:"List the registered lint rules and exit.")
  in
  let kind_opt_arg =
    let doc = "Lint only entries of this macro kind." in
    Arg.(value & opt (some string) None & info [ "kind"; "k" ] ~docv:"KIND" ~doc)
  in
  let run kind_opt bits load json list_rules =
    if list_rules then begin
      Printf.printf "%-26s %-7s %s\n" "rule" "group" "rationale";
      List.iter
        (fun (r : Smart.Lint_rules.rule) ->
          Printf.printf "%-26s %-7s %s\n" r.Smart.Lint_rules.id
            r.Smart.Lint_rules.group r.Smart.Lint_rules.doc)
        (Smart.Lint.rules ());
      0
    end
    else begin
      let db = Smart.Database.builtins () in
      let entries =
        match kind_opt with
        | None -> Smart.Database.entries db
        | Some k ->
          List.filter
            (fun (e : Smart.Database.entry) -> e.Smart.Database.kind = k)
            (Smart.Database.entries db)
      in
      if entries = [] then begin
        Printf.eprintf "lint: no database entries%s\n"
          (match kind_opt with Some k -> " of kind " ^ k | None -> "");
        2
      end
      else begin
        (* Each entry is probed at the requested width first, then at
           doublings up to 64 — generators constrain their widths (the
           CLA wants multiples of 4, decoders small address widths). *)
        let widths =
          bits
          :: List.filter (fun b -> b <> bits) [ 2; 4; 8; 16; 32; 64 ]
        in
        let ok = ref true in
        let skipped = ref [] in
        List.iter
          (fun (e : Smart.Database.entry) ->
            let rec probe = function
              | [] -> skipped := e.Smart.Database.entry_name :: !skipped
              | b :: rest ->
                let req =
                  requirements ~bits:b ~load ~no_onehot:false ~no_dynamic:false
                in
                if e.Smart.Database.applicable req then begin
                  let info = e.Smart.Database.build req in
                  let rep = Smart.Lint.run info.Smart.Macro.netlist in
                  print_endline
                    (if json then Smart.Lint.to_json rep
                     else Smart.Lint.to_text rep);
                  if not json then print_newline ();
                  if not (Smart.Lint.ok rep) then ok := false
                end
                else probe rest
            in
            probe widths)
          entries;
        List.iter
          (fun n -> Printf.eprintf "lint: skipped %s (no applicable width)\n" n)
          (List.rev !skipped);
        if !ok then 0 else 1
      end
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static electrical-rule and constraint-coverage analyzer \
          over database macros (exit 1 on unwaived Error findings)")
    Term.(const run $ kind_opt_arg $ bits_arg $ load_arg $ json_arg
          $ rules_arg)

(* ---------------- check ---------------- *)

let check_cmd =
  let run seeds gates start_seed adder_bits =
    (* Leg 1: differential timing gauntlet over random netlists. *)
    let rep = Smart.Check.gauntlet ~seeds ~gates ~start_seed tech in
    Printf.printf "check: gauntlet %d/%d netlists agreed (%d event pops)\n"
      rep.Smart.Check.agreed rep.Smart.Check.netlists rep.Smart.Check.events;
    List.iter
      (fun f ->
        Format.printf "%a@." Smart.Check.pp_finding f;
        print_string (Smart.Check.reproducer_spice f))
      rep.Smart.Check.findings;
    List.iter
      (fun (seed, lint) ->
        Printf.printf "check: seed %d lints with unwaived errors:\n%s\n" seed
          (Smart.Lint.to_text lint))
      rep.Smart.Check.lint_dirty;
    List.iter
      (Printf.printf "check: broken variant for rule %s did not fire it\n")
      rep.Smart.Check.rules_unfired;
    let gauntlet_ok =
      rep.Smart.Check.findings = []
      && rep.Smart.Check.lint_dirty = []
      && rep.Smart.Check.rules_unfired = []
    in
    (* Leg 2: GP certificates on every sizer round of a real macro. *)
    let certify_ok =
      if adder_bits <= 0 then begin
        print_endline "check: certification skipped (--adder-bits 0)";
        true
      end
      else begin
        let info = Smart.Cla_adder.generate ~bits:adder_bits () in
        let nl = info.Smart.Macro.netlist in
        match
          Smart.Sizer.minimize_delay_typed tech nl (Smart.Constraints.spec 400.)
        with
        | Error e ->
          Printf.printf "check: certification min-delay failed: %s\n"
            (Smart.Error.to_json e);
          false
        | Ok md -> (
          let target = 1.15 *. md.Smart.Sizer.golden_min in
          let options =
            {
              Smart.Sizer.default_options with
              Smart.Sizer.min_delay_hint = Some md.Smart.Sizer.model_min;
            }
          in
          match
            Smart.Check.certify_sizing ~options tech nl
              (Smart.Constraints.spec target)
          with
          | Error e ->
            Printf.printf "check: certification sizing failed: %s\n"
              (Smart.Error.to_json e);
            false
          | Ok c ->
            Printf.printf
              "check: certified %d/%d sizer rounds on %d-bit adder \
               (%.1f ps achieved / %.1f ps target)\n"
              c.Smart.Check.certified c.Smart.Check.rounds adder_bits
              c.Smart.Check.achieved_delay c.Smart.Check.target_delay;
            c.Smart.Check.rounds > 0
            && c.Smart.Check.certified = c.Smart.Check.rounds)
      end
    in
    (* Leg 3: every injected fault class degrades to a structured error. *)
    let drills = Smart.Check.fault_drill tech in
    List.iter
      (fun (d : Smart.Check.drill_result) ->
        Printf.printf "check: fault %-16s %s (%s)\n" d.Smart.Check.fault_class
          (if d.Smart.Check.passed then "ok" else "FAILED")
          d.Smart.Check.detail)
      drills;
    let drill_ok =
      List.for_all (fun (d : Smart.Check.drill_result) -> d.Smart.Check.passed) drills
    in
    if gauntlet_ok && certify_ok && drill_ok then begin
      print_endline "check: PASS";
      0
    end
    else begin
      print_endline "check: FAIL";
      1
    end
  in
  let seeds_arg =
    let doc = "Number of seeded random netlists for the gauntlet." in
    Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let gates_arg =
    let doc = "Gates per random netlist." in
    Arg.(value & opt int 40 & info [ "gates" ] ~docv:"N" ~doc)
  in
  let start_seed_arg =
    let doc = "First seed of the gauntlet range." in
    Arg.(value & opt int 1 & info [ "start-seed" ] ~docv:"N" ~doc)
  in
  let adder_bits_arg =
    let doc = "CLA adder width for the GP-certification leg (0 skips it)." in
    Arg.(value & opt int 64 & info [ "adder-bits" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential verification gauntlet: STA vs event-sim vs arc-model \
          on random netlists, GP certificates on a real sizing, fault drill")
    Term.(const run $ seeds_arg $ gates_arg $ start_seed_arg $ adder_bits_arg)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let stdio_arg =
    let doc =
      "Serve newline-delimited JSON requests on stdin/stdout (the default \
       when $(b,--socket) is not given)."
    in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Persist solved outcomes under $(docv); identical requests are \
       re-served from disk across daemon restarts."
    in
    Arg.(value
         & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Queue bound; requests beyond it are refused immediately with a \
       structured $(b,overloaded) error."
    in
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let run workers max_queue cache_dir stdio socket trace =
    (* The daemon's engine is single-domain: throughput comes from the
       serve pool running requests concurrently, one solve per worker. *)
    let engine, cleanup = make_engine ~workers:1 ~trace in
    let server =
      Smart_serve.Server.create
        ~workers:(if workers <= 0 then 1 else workers)
        ~max_queue ?cache_dir ~engine ()
    in
    (match socket with
    | Some path -> Smart_serve.Server.serve_socket server path
    | None ->
      ignore stdio;
      Smart_serve.Server.serve_channels server stdin stdout);
    Smart_serve.Server.shutdown server;
    cleanup ();
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the advisor as a long-lived daemon speaking the versioned \
          JSON wire protocol (one request per line), with an optional \
          persistent solve cache")
    Term.(const run $ workers_arg $ max_queue_arg $ cache_dir_arg $ stdio_arg
          $ socket_arg $ trace_arg)

let () =
  let doc = "SMART -- macro-driven circuit design advisor (DAC 2000 reproduction)" in
  let info = Cmd.info "smart_cli" ~version:Smart.version ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ db_cmd; advise_cmd; explore_cmd; size_cmd; paths_cmd; sweep_cmd;
            spice_cmd; analyze_cmd; lint_cmd; check_cmd; serve_cmd ]))
