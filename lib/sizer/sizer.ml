module Err = Smart_util.Err
module Tracepoint = Smart_util.Tracepoint
module Netlist = Smart_circuit.Netlist
module Constraints = Smart_constraints.Constraints
module Corners = Smart_corners.Corners
module Paths = Smart_paths.Paths
module Solver = Smart_gp.Solver
module Problem = Smart_gp.Problem
module Posy = Smart_posy.Posy
module Sta = Smart_sta.Sta

let src = Logs.Src.create "smart.sizer" ~doc:"SMART sizing engine"

module Log = (val Logs.src_log src : Logs.LOG)

type options = {
  max_iterations : int;
  tolerance : float;
  damping : float;
  reductions : Paths.reductions;
  objective : Constraints.objective;
  min_delay_hint : float option;
  gp_warm_start : bool;
  certify : bool;
  absint : bool;
}

let default_options =
  {
    max_iterations = 8;
    tolerance = 0.02;
    damping = 1.0;
    reductions = Paths.all_reductions;
    objective = Constraints.Area;
    min_delay_hint = None;
    gp_warm_start = true;
    certify = false;
    absint = true;
  }

module Absint = Smart_absint.Absint

(* Static gate: one interval analysis of the generated program,
   classified by what this loop can actually do to each budget class.  A
   certificate (a constraint provably violated at every budget the loop
   could grant — slope bounds, precharge beyond any reachable relaxation)
   rejects the specification before anything is compiled or solved. *)
let absint_gate ~robust ~options ~target_ps (problem : Problem.t) =
  if not options.absint then None
  else
    Absint.infeasibility ~options:(Absint.sizer_options ~robust) ~target_ps
      problem

type outcome = {
  sizing : (string * float) list;
  sizing_fn : string -> float;
  achieved_delay : float;
  achieved_precharge : float;
  target_delay : float;
  total_width : float;
  clock_load_width : float;
  iterations : int;
  gp_newton_iterations : int;
  gp_warm_rounds : int;
  gp_newton_per_round : int list;
  certified_rounds : int;
  sta_verifies : int;
  converged : bool;
  constraint_stats : Constraints.result;
  sta : Sta.t;
}

(* Extract the width assignment from a GP solution (slope and auxiliary
   variables are filtered by label membership). *)
let sizing_of_solution netlist (sol : Solver.solution) =
  let labels = Netlist.labels netlist in
  List.map (fun l -> (l, Solver.lookup sol l)) labels

let fn_of_sizing sizing =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (l, w) -> Hashtbl.replace tbl l w) sizing;
  fun l ->
    match Hashtbl.find_opt tbl l with
    | Some w -> w
    | None -> Smart_util.Err.fail "Sizer: no width for label %s" l

type mapper = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let sequential_mapper = { map = (fun f xs -> List.map f xs) }

type corner_report = {
  corner_name : string;
  corner_delay : float;
  corner_precharge : float;
  corner_slack : float;
}

type robust_outcome = {
  robust : outcome;
  per_corner : corner_report list;
  binding_corner : string;
}

(* The Fig. 4 loop over a corner set.  A one-corner set compiles exactly
   the single-technology program (untagged constraint names); a larger
   set compiles the merged program, every corner's constraints tagged and
   budgeted separately.  Two steps only pay on merged programs and run
   only there: calibrating each corner's budget from the pre-solve
   sizing, and gating a corner's relaxation on its model constraints
   being near-active. *)
let size_set ?(options = default_options) ?(mapper = sequential_mapper)
    corners netlist spec =
  let corner_list = Corners.to_list corners in
  let indexed = List.mapi (fun i c -> (i, c)) corner_list in
  let n = List.length corner_list in
  let multi = n > 1 in
  (* One generation per corner, through the mapper: an engine-supplied
     mapper runs the corners' independent generations on its worker
     pool. *)
  let merged =
    Corners.merge_generated
      (mapper.map
         (fun (c : Corners.corner) ->
           ( c,
             Constraints.generate ~reductions:options.reductions
               ~objective:options.objective c.Corners.tech netlist spec ))
         corner_list)
  in
  let generated = merged.Corners.generated in
  (* Reject provably-infeasible specifications (at any corner) before
     the program is compiled or any GP solve runs (no gp.solve span is
     emitted on the fast-fail path). *)
  match
    absint_gate ~robust:multi ~options
      ~target_ps:spec.Constraints.target_delay generated.Constraints.problem
  with
  | Some e -> Error e
  | None ->
  let target = spec.Constraints.target_delay in
  let precharge_budget =
    match spec.Constraints.precharge_budget with Some b -> b | None -> target
  in
  let tol = options.tolerance in
  let has_pre = generated.Constraints.precharge_constraints > 0 in
  (* Outer respecification loop.  Each corner's model-space budgets
     (timing, precharge) are internal knobs, retargeted every round by
     that corner's golden-vs-spec mismatch in both directions — tightened
     when the golden timer misses, relaxed when the model proves
     pessimistic (including the case where the model cannot certify the
     spec at all: infeasibility just means "relax the knob and let the
     golden check decide").  Acceptance and convergence key on the worst
     golden-verified corner; the cheapest sizing that passes every
     corner's golden check wins. *)
  let timing = Array.make n 1.0 in
  let pre_f = Array.make n 1.0 in
  let factors () = Corners.rescale_factors ~timing ~precharge:pre_f in
  (* Each corner's budget-scaled constraint posynomials, for calibration
     and the tightness test of merged programs. *)
  let timing_posys = Array.make n [] in
  let pre_posys = Array.make n [] in
  if multi then
    List.iter
      (fun (name, p) ->
        match Problem.split_scenario name with
        | Some (tag, rest) -> (
          match Corners.index_of_tag tag with
          | Some i when i >= 0 && i < n -> (
            match Constraints.budget_class rest with
            | Constraints.Timing -> timing_posys.(i) <- p :: timing_posys.(i)
            | Constraints.Precharge -> pre_posys.(i) <- p :: pre_posys.(i)
            | Constraints.Fixed -> ())
          | _ -> ())
        | None -> ())
      generated.Constraints.problem.Problem.inequalities;
  let best = ref None in
  let total_newton = ref 0 in
  let sta_runs = ref 0 in
  let iterations = ref 0 in
  let result = ref None in
  (* Compile the program once; every respecification round only patches
     the compiled budget coefficients and re-solves, warm-started. *)
  let prepared = Solver.prepare generated.Constraints.problem in
  let warm = ref None in
  (* Warm-start policy: hold one anchor snapshot while it keeps working,
     re-anchor only after a round that fell back to phase I.  Under the
     relaxing drift the respecification loop usually follows (optimistic
     models vs the golden STA), the anchor — taken at the tightest
     budgets seen — only gains constraint margin, and re-centering from
     it stays cheap.  Chaining to every round's fresh snapshot instead
     lets the start drift with the relaxed central paths, which can
     strand a round near a constraint-activity crossover where
     re-centering crawls; on the 64-bit CLA adder that one pathology
     costs more than every other round combined.  When the budgets
     tighten past the anchor the solver degrades to an anchor-seeded
     phase I and reports the round as not warm-started, which is the cue
     to adopt that round's snapshot as the new anchor. *)
  let anchored = ref false in
  let warm_rounds = ref 0 in
  let newton_per_round = ref [] in
  let certified = ref 0 in
  let remember sol =
    total_newton := !total_newton + sol.Solver.newton_iterations;
    newton_per_round := sol.Solver.newton_iterations :: !newton_per_round;
    if sol.Solver.warm_started then incr warm_rounds;
    if options.gp_warm_start && ((not !anchored) || not sol.Solver.warm_started)
    then
      match Solver.warm_handle sol with
      | Some _ as w ->
        warm := w;
        anchored := true
      | None -> ()
  in
  (* Golden verification, evaluate then precharge, at every corner; the
     engine supplies a mapper that fans the corners across its pool. *)
  let verify sizing_fn =
    sta_runs := !sta_runs + (2 * n);
    mapper.map
      (fun (i, (c : Corners.corner)) ->
        let analyze mode =
          Sta.analyze ~mode ?input_slope:spec.Constraints.input_slope
            c.Corners.tech netlist ~sizing:sizing_fn
        in
        let eval = analyze Sta.Evaluate in
        let pre = analyze Sta.Precharge in
        (* A precharge STA that reached no output folds its max from 0,
           which would trivially "meet" any budget.  When the program
           carries precharge constraints, report the distinction as an
           unmeetable (infinite) precharge delay instead of a met one. *)
        let achieved_pre =
          if has_pre && pre.Sta.reachable_outputs = 0 then infinity
          else pre.Sta.max_delay
        in
        (i, c, eval, achieved_pre))
      indexed
  in
  (* Pre-solve: one min-delay solve on the structurally worst corner
     (largest RC product), over that corner's program with its evaluate
     budget made a variable ([Constraints.min_delay_of]), reveals how
     fast the model thinks the topology can go.  If that is
     slower than the target, the loop would burn rounds discovering the
     same thing through infeasibility; start with the implied relaxation
     instead.  Its solution also seeds the first round's warm start (the
     variable sets overlap exactly).  Callers sweeping many targets
     supply the hint to skip the pre-solve. *)
  let relax_to d_model =
    if d_model > target then Array.fill timing 0 n (1.1 *. d_model /. target)
  in
  (match options.min_delay_hint with
  | Some d_model -> relax_to d_model
  | None -> (
    let worst =
      List.fold_left
        (fun ((bc : Corners.corner), _ as b) ((cc : Corners.corner), _ as c) ->
          if cc.Corners.rc_scale > bc.Corners.rc_scale then c else b)
        (List.hd merged.Corners.per_corner) (List.tl merged.Corners.per_corner)
    in
    let min_delay = Constraints.min_delay_of (snd worst) ~target in
    match Solver.solve min_delay.Constraints.problem with
    | Error _ -> ()
    | Ok sol -> (
      total_newton := sol.Solver.newton_iterations;
      match sol.Solver.status with
      | Solver.Infeasible | Solver.Iteration_limit -> ()
      | Solver.Optimal ->
        relax_to (Solver.lookup sol Constraints.delay_variable);
        if options.gp_warm_start then
          warm := Solver.warm_of_values prepared sol.Solver.values;
        (* Calibrate each corner's budget to its model-vs-golden gap at
           the pre-solve sizing (one STA sweep).  The first verified
           round would discover the same factors and retarget — but one
           round late: the budgets then shift under the round-1 warm
           anchor, whose margin a few-percent tightening on the binding
           corner already exceeds, and round 2 falls back to a phase-I
           re-centering that costs more Newton steps than the rest of
           the loop combined.  On one corner the calibrated start lands
           the accepted sizings on a wider optimum instead. *)
        if multi then begin
          let presizing_fn = fn_of_sizing (sizing_of_solution netlist sol) in
          let max_eval posys =
            List.fold_left
              (fun acc p -> Float.max acc (Posy.eval presizing_fn p))
              0. posys
          in
          let clamp c = Float.max 0.5 (Float.min 2.0 c) in
          List.iter
            (fun (i, _, (e : Sta.t), pre) ->
              let model_t = target *. max_eval timing_posys.(i) in
              if e.Sta.max_delay > 0. && model_t > 0. then
                timing.(i) <- timing.(i) *. clamp (model_t /. e.Sta.max_delay);
              if has_pre && pre > 0. && pre < infinity then begin
                let model_p = precharge_budget *. max_eval pre_posys.(i) in
                if model_p > 0. then
                  pre_f.(i) <- pre_f.(i) *. clamp (model_p /. pre)
              end)
            (verify presizing_fn)
        end)));
  (try
     for iter = 1 to options.max_iterations do
       iterations := iter;
       Solver.rescale_compiled prepared (factors ());
       let resolved =
         (* Fault site: lets tests force a GP failure (or a worker-domain
            exception) out of an otherwise healthy solve. *)
         match Smart_util.Fault.fire "sizer.gp" with
         | Some (Smart_util.Fault.Error_result msg) -> Error msg
         | Some (Smart_util.Fault.Raise msg) -> raise (Err.Smart_error msg)
         | Some (Smart_util.Fault.Scale _) | None ->
           Solver.resolve ?warm:!warm prepared
       in
       match resolved with
       | Error e ->
         result := Some (Error (Err.Gp_failure e));
         raise Exit
       | Ok sol -> (
         remember sol;
         (if options.certify && sol.Solver.status = Solver.Optimal then
            (* Certify against the problem-space rescale of the unreduced
               program — an independent reconstruction of what
               [rescale_compiled] patched into the compiled one, checked
               without trusting solver state. *)
            let scaled = Constraints.rescale_by (factors ()) generated in
            let report =
              Smart_gp.Certify.check scaled.Constraints.problem sol
            in
            if report.Smart_gp.Certify.ok then incr certified
            else begin
              result :=
                Some
                  (Error
                     (Err.Gp_failure
                        (Format.asprintf "round %d %a" iter
                           Smart_gp.Certify.pp_report report)));
              raise Exit
            end);
         match sol.Solver.status with
         | Solver.Infeasible ->
           (* Model-space infeasible — and a merged model cannot say which
              corner binds: relax every corner's budgets and let the
              golden checks re-tighten the slack ones.  Give up only when
              even wide-open models at every corner stay infeasible. *)
           Array.iteri (fun i f -> timing.(i) <- f *. 1.35) timing;
           Array.iteri (fun i f -> pre_f.(i) <- f *. 1.15) pre_f;
           if Array.for_all (fun f -> f > 24.) timing then begin
             let detail =
               if multi then
                 Printf.sprintf "within device bounds at all corners (%s)"
                   (Corners.to_string corners)
               else "within device bounds"
             in
             result :=
               Some (Error (Err.Infeasible_spec { target_ps = target; detail }));
             raise Exit
           end
         | Solver.Optimal | Solver.Iteration_limit ->
           let sizing = sizing_of_solution netlist sol in
           let sizing_fn = fn_of_sizing sizing in
           let verified = verify sizing_fn in
           (* The binding corner: worst golden evaluate miss. *)
           let _, bind_c, bind_eval, bind_pre =
             List.fold_left
               (fun (_, _, (be : Sta.t), _ as bacc) (_, _, (e : Sta.t), _ as cacc) ->
                 if e.Sta.max_delay > be.Sta.max_delay then cacc else bacc)
               (List.hd verified) (List.tl verified)
           in
           let worst_pre =
             List.fold_left (fun acc (_, _, _, p) -> Float.max acc p) 0. verified
           in
           let meets =
             List.for_all
               (fun (_, _, (e : Sta.t), p) ->
                 e.Sta.max_delay <= target *. (1. +. tol)
                 && ((not has_pre) || p <= precharge_budget *. (1. +. tol)))
               verified
           in
           let outcome =
             {
               sizing;
               sizing_fn;
               achieved_delay = bind_eval.Sta.max_delay;
               achieved_precharge = (if has_pre then worst_pre else bind_pre);
               target_delay = target;
               total_width = Netlist.total_width netlist sizing_fn;
               clock_load_width = Netlist.clock_load_width netlist sizing_fn;
               iterations = iter;
               gp_newton_iterations = !total_newton;
               gp_warm_rounds = !warm_rounds;
               gp_newton_per_round = List.rev !newton_per_round;
               certified_rounds = !certified;
               sta_verifies = !sta_runs;
               converged = true;
               constraint_stats = generated;
               sta = bind_eval;
             }
           in
           let improved =
             match !best with
             | Some b -> outcome.total_width < b.robust.total_width *. 0.997
             | None -> true
           in
           if meets && improved then
             best :=
               Some
                 {
                   robust = outcome;
                   per_corner =
                     List.map
                       (fun (_, (c : Corners.corner), (e : Sta.t), p) ->
                         {
                           corner_name = c.Corners.corner_name;
                           corner_delay = e.Sta.max_delay;
                           corner_precharge = p;
                           corner_slack = target -. e.Sta.max_delay;
                         })
                       verified;
                   binding_corner = bind_c.Corners.corner_name;
                 };
           let miss_t = bind_eval.Sta.max_delay /. target in
           let miss_p =
             if has_pre then
               if worst_pre = infinity then 1. else worst_pre /. precharge_budget
             else 1.
           in
           Log.debug (fun m ->
               m "iteration %d: binding %s %.1f/%.1f ps, precharge %.1f" iter
                 bind_c.Corners.corner_name bind_eval.Sta.max_delay target
                 worst_pre);
           (* Converged: golden sits at the spec and the best width has
              stopped improving. *)
           if
             miss_t >= 1. -. tol && miss_t <= 1. +. tol && miss_p <= 1. +. tol
             && (miss_p >= 1. -. (3. *. tol) || not has_pre)
             && not (meets && improved)
           then raise Exit;
           (* Create the new delay specification: retarget every corner by
              its own golden miss.  On a merged program a corner is only
              {e relaxed} when its model constraints bind at the solution:
              a corner slack in both model and golden needs no budget
              change, and inflating it round after round (the clamp
              allows 2x per round) keeps deforming the merged GP for
              nothing — the warm restart then pays a near-cold
              re-centering every round. *)
           let retarget factor miss =
             let adj = (1. /. miss) ** options.damping in
             (* Bound each move to avoid oscillation. *)
             factor *. Float.max 0.5 (Float.min 2.0 adj)
           in
           let env =
             lazy
               (let tbl = Hashtbl.create 256 in
                List.iter
                  (fun (v, x) -> Hashtbl.replace tbl v x)
                  sol.Solver.values;
                fun v ->
                  match Hashtbl.find_opt tbl v with Some x -> x | None -> 1.)
           in
           let may_relax posys factor =
             (not multi)
             || List.exists
                  (fun p -> Posy.eval (Lazy.force env) p >= 0.98 *. factor)
                  posys
           in
           let moved = ref false in
           let set (arr : float array) i f =
             if arr.(i) <> f then begin
               arr.(i) <- f;
               moved := true
             end
           in
           List.iter
             (fun (i, _, (e : Sta.t), p) ->
               let m_t = e.Sta.max_delay /. target in
               if
                 m_t > 1. +. tol
                 || (m_t < 1. -. tol && may_relax timing_posys.(i) timing.(i))
               then set timing i (retarget timing.(i) m_t);
               if has_pre && p < infinity then begin
                 let m_p = p /. precharge_budget in
                 if
                   m_p > 1. +. tol
                   || (m_p < 1. -. tol && may_relax pre_posys.(i) pre_f.(i))
                 then set pre_f i (retarget pre_f.(i) m_p)
               end)
             verified;
           (* Fixed point: no budget changed, so the next round would
              re-solve the identical GP from the same anchor to the same
              solution and verify.  Whatever [best] holds now is the
              loop's answer. *)
           if not !moved then raise Exit)
     done
   with Exit -> ());
  match !result with
  | Some r -> r
  | None -> (
    match !best with
    | Some r ->
      Ok
        {
          r with
          robust =
            {
              r.robust with
              iterations = !iterations;
              gp_newton_iterations = !total_newton;
              gp_warm_rounds = !warm_rounds;
              gp_newton_per_round = List.rev !newton_per_round;
              certified_rounds = !certified;
              sta_verifies = !sta_runs;
            };
        }
    | None ->
      Error
        (Err.Sta_disagreement { target_ps = target; iterations = !iterations }))

(* The sizer's span: the request, then the outcome's loop counters. *)
let timed span ~attrs ~outcome netlist spec f =
  Tracepoint.timed span
    ~attrs:(fun r ->
      ("netlist", Tracepoint.Str netlist.Netlist.name)
      :: ("target_ps", Tracepoint.Float spec.Constraints.target_delay)
      :: attrs
      @
      match r with
      | Ok x ->
        let o = outcome x in
        [
          ("ok", Tracepoint.Bool true);
          ("iterations", Tracepoint.Int o.iterations);
          ("gp_newton", Tracepoint.Int o.gp_newton_iterations);
          ("gp_warm_rounds", Tracepoint.Int o.gp_warm_rounds);
          ( "gp_newton_per_round",
            Tracepoint.Str
              (String.concat "," (List.map string_of_int o.gp_newton_per_round)) );
          ("sta_verifies", Tracepoint.Int o.sta_verifies);
          ("achieved_ps", Tracepoint.Float o.achieved_delay);
        ]
      | Error e ->
        [
          ("ok", Tracepoint.Bool false);
          ("error", Tracepoint.Str (Err.to_string e));
        ])
    f

let size_typed ?options tech netlist spec =
  timed "sizer.size" ~attrs:[] ~outcome:Fun.id netlist spec (fun () ->
      Result.map
        (fun r -> r.robust)
        (size_set ?options (Corners.of_tech tech) netlist spec))

let size_robust_typed ?options ?mapper corners netlist spec =
  timed "sizer.size_robust"
    ~attrs:[ ("corners", Tracepoint.Str (Corners.to_string corners)) ]
    ~outcome:(fun r -> r.robust)
    netlist spec
    (fun () -> size_set ?options ?mapper corners netlist spec)

type min_delay = { golden_min : float; model_min : float }

let minimize_delay_typed ?(options = default_options) tech netlist spec =
  let generated =
    Constraints.generate_min_delay ~reductions:options.reductions tech netlist spec
  in
  (* The makespan budgets are the delay variable itself (never certified
     against), but fixed budget classes — slope above all — can still
     prove the program infeasible before the solve. *)
  match
    absint_gate ~robust:false ~options
      ~target_ps:spec.Constraints.target_delay generated.Constraints.problem
  with
  | Some e -> Error e
  | None ->
  match Solver.solve generated.Constraints.problem with
  | Error e -> Error (Err.Gp_failure e)
  | Ok sol -> (
    match sol.Solver.status with
    | Solver.Infeasible ->
      Error
        (Err.Infeasible_spec
           {
             target_ps = spec.Constraints.target_delay;
             detail = "min-delay problem has no feasible point";
           })
    | Solver.Optimal | Solver.Iteration_limit ->
      let sizing_fn = fn_of_sizing (sizing_of_solution netlist sol) in
      let sta =
        Sta.analyze ~mode:Sta.Evaluate
          ?input_slope:spec.Constraints.input_slope tech netlist
          ~sizing:sizing_fn
      in
      Ok
        {
          golden_min = sta.Sta.max_delay;
          model_min = Solver.lookup sol Constraints.delay_variable;
        })
