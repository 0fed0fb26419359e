module Err = Smart_util.Err
module Tracepoint = Smart_util.Tracepoint
module Posy = Smart_posy.Posy
module Monomial = Smart_posy.Monomial
module Logspace = Smart_posy.Logspace
module Vec = Smart_linalg.Vec
module Mat = Smart_linalg.Mat

let src = Logs.Src.create "smart.gp" ~doc:"SMART geometric program solver"

module Log = (val Logs.src_log src : Logs.LOG)

(* Barrier method constants: the duality-gap bound [m/t] the loop drives
   below [gap_eps], the barrier growth factor [mu] per centering, the
   initial barrier parameter [t_init], the Newton decrement^2/2
   tolerance, and the inner (per centering) and outer iteration caps. *)
let gap_eps = 1e-7
let mu = 20.
let t_init = 1.
let newton_tol = 1e-8
let max_newton = 250
let max_centering = 60

type status = Optimal | Infeasible | Iteration_limit

type warm_start = { w_y : Vec.t; w_t : float }

type solution = {
  status : status;
  values : (string * float) list;
  objective_value : float;
  duals : (string * float) list;
  newton_iterations : int;
  centering_steps : int;
  warm_started : bool;
  restart : warm_start option;
}

(* ------------------------------------------------------------------ *)
(* Compiled convex form                                               *)
(* ------------------------------------------------------------------ *)

type compiled = {
  idx : Logspace.index;
  prog : Logspace.program;  (* objective, inequalities, bounds *)
  names : string array;  (* constraint [k]'s name *)
  scales : float array;  (* constraint [k]'s current budget factor *)
}

(* Per-program reusable buffers: the Newton inner loop runs entirely in
   these, so repeated [resolve] calls on one prepared problem perform no
   heap allocation per iteration. *)
type workspace = {
  kern : Logspace.kernel;  (* the program's evaluation state *)
  m : int;  (* constraints of the program *)
  h : Mat.t;  (* Hessian of the barrier, lower triangle only *)
  g : Vec.t;  (* gradient *)
  d : Vec.t;  (* Newton direction *)
  trial : Vec.t;  (* line-search trial point *)
  chol : Mat.t;  (* in-place Cholesky factor / ridge copy *)
  tmp : Vec.t;  (* substitution intermediate *)
  ybuf : Vec.t;  (* the barrier iterate *)
  ridge : float ref;  (* last successful regularisation shift *)
}

type structure_stats = {
  families : int;
  bundled_constraints : int;
  scenarios : int;
  rows : int;
  terms : int;
}

type prepared = {
  problem : Problem.t;  (* as given: objective evaluation *)
  reduced : Problem.t;  (* after equality elimination + default bounds *)
  eliminated : (string * Monomial.t) list;
  c : compiled option;  (* None: fully determined by equalities *)
  ws : workspace option;
  stats : structure_stats;
}

let bounds_to_inequalities bounds =
  List.concat_map
    (fun (v, lo, hi) ->
      let lo_c =
        if lo > 0. then
          [ ("lo:" ^ v, Posy.of_monomial (Monomial.make lo [ (v, -1.) ])) ]
        else []
      in
      let hi_c =
        [ ("hi:" ^ v, Posy.of_monomial (Monomial.make (1. /. hi) [ (v, 1.) ])) ]
      in
      lo_c @ hi_c)
    bounds

let inequalities (problem : Problem.t) =
  problem.inequalities @ bounds_to_inequalities problem.bounds

let compile (problem : Problem.t) =
  let ineqs = Array.of_list (inequalities problem) in
  let idx = Logspace.index_of_vars (Problem.variables problem) in
  {
    idx;
    prog = Logspace.program idx ~objective:problem.objective (Array.map snd ineqs);
    names = Array.map fst ineqs;
    scales = Array.make (Array.length ineqs) 1.;
  }

let make_workspace prog =
  let n = Logspace.dim prog in
  {
    kern = Logspace.kernel prog;
    m = Logspace.constraints prog;
    h = Mat.create n n;
    g = Vec.create n;
    d = Vec.create n;
    trial = Vec.create n;
    chol = Mat.create n n;
    tmp = Vec.create n;
    ybuf = Vec.create n;
    ridge = ref 0.;
  }

(* Scenario copies [<tag>@<name>] of one constraint that reference the
   same basis rows form a family: a corner merge only rescales
   coefficients, so every copy shares its rows by construction. *)
let structure_of c =
  let groups = Hashtbl.create 64 and tags = Hashtbl.create 8 in
  Array.iteri
    (fun k name ->
      match Problem.split_scenario name with
      | None -> ()
      | Some (tag, base) ->
        Hashtbl.replace tags tag ();
        let ks = Option.value ~default:[] (Hashtbl.find_opt groups base) in
        Hashtbl.replace groups base (k :: ks))
    c.names;
  let families, bundled =
    Hashtbl.fold
      (fun _ ks (f, b) ->
        match ks with
        | k0 :: (_ :: _ as rest) when List.for_all (Logspace.same_rows c.prog k0) rest ->
          (f + 1, b + List.length ks)
        | _ -> (f, b))
      groups (0, 0)
  in
  {
    families;
    bundled_constraints = bundled;
    scenarios = Hashtbl.length tags;
    rows = Logspace.rows c.prog;
    terms = Logspace.terms c.prog;
  }

let prepare problem =
  let reduced, eliminated = Problem.eliminate_equalities problem in
  let reduced = Problem.default_bounds ~lo:1e-9 ~hi:1e9 reduced in
  match Problem.variables reduced with
  | [] ->
    let stats =
      { families = 0; bundled_constraints = 0; scenarios = 0; rows = 0; terms = 0 }
    in
    { problem; reduced; eliminated; c = None; ws = None; stats }
  | _ ->
    let c = compile reduced in
    {
      problem;
      reduced;
      eliminated;
      c = Some c;
      ws = Some (make_workspace c.prog);
      stats = structure_of c;
    }

let structure_stats p = p.stats

let rescale_compiled p scale =
  match p.c with
  | None -> ()
  | Some c ->
    (* Absolute factors: every constraint is re-patched each call, so a
       factor reverting to 1.0 restores the as-compiled coefficients. *)
    Array.iteri
      (fun k name ->
        c.scales.(k) <- scale name;
        Logspace.rescale c.prog k c.scales.(k))
      c.names

(* ------------------------------------------------------------------ *)
(* Barrier method                                                      *)
(* ------------------------------------------------------------------ *)

(* Warm-start acceptance needs real margin, not mere sign: a point with a
   constraint slack of 1e-14 makes the first barrier Hessian ~1e28 and no
   amount of regularisation recovers the Newton direction.  Marginal
   points go through phase I instead, which re-opens the slack. *)
let warm_margin = 1e-9

(* One centering: damped Newton on phi_t starting from the strictly
   feasible iterate in [y], which is advanced in place.  Returns
   (inner iterations used, converged).  Allocation-free: every vector and
   matrix lives in the workspace. *)
(* A centering can stall: near-singular Hessians at large t force
   accepted steps with alpha ~ 2^-30 whose phi decrease is far below
   anything that changes the outcome, yet the Newton decrement stays
   above tolerance — without a guard such centerings burn the full
   [max_newton] budget crawling.  Exiting after several consecutive
   negligible decreases is safe: the next centering re-approaches the
   central path at the larger t from a barely different point. *)
let stall_limit = 8

let newton_center ws t y =
  let n = Vec.dim ws.g in
  let iters = ref 0 in
  let converged = ref false in
  let alpha_first = ref 1. in
  let stalled = ref 0 in
  (* The kernel keeps the evaluation of the last point it saw, so each
     assembly below runs at the line search's accepted trial without
     evaluating it again. *)
  let phi0 = ref (Logspace.barrier ws.kern ~t y) in
  if not (!phi0 < infinity) then Err.fail "Gp.Solver: lost feasibility during Newton";
  (try
     for _ = 1 to max_newton do
       incr iters;
       Mat.fill ws.h 0.;
       Array.fill ws.g 0 n 0.;
       Logspace.assemble ws.kern ~t ws.h ws.g;
       Mat.solve_spd_ridge_into ~hint:ws.ridge ~work:ws.chol ~tmp:ws.tmp ws.h
         ws.g ws.d;
       let lambda2 = Vec.dot ws.g ws.d in
       if lambda2 /. 2. < newton_tol then begin
         converged := true;
         raise Exit
       end;
       (* Backtracking line search along -d with Armijo condition.  The
          start step is warm-started from the previous acceptance, grown
          4x and capped at the full step: when a near-singular Hessian
          forces the iterate to crawl with alpha ~ 2^-30, restarting
          each search from 1 would re-pay the ~30 rejected barrier
          evaluations on every Newton step — and those evaluations, not
          the factorisation, dominate such centerings.  Staying near the
          viable step also keeps the crawl making progress instead of
          thrashing between overshoot and rejection (faster growth
          factors measurably reintroduce both costs). *)
       let alpha = ref (Float.min 1. (!alpha_first *. 4.)) in
       let accepted = ref false in
       let backtracks = ref 0 in
       let decrease = ref 0. in
       while (not !accepted) && !backtracks < 60 do
         Array.blit y 0 ws.trial 0 n;
         Vec.axpy (-. !alpha) ws.d ws.trial;
         let phi = Logspace.barrier ws.kern ~t ws.trial in
         if phi <= !phi0 -. (0.25 *. !alpha *. lambda2) then begin
           Array.blit ws.trial 0 y 0 n;
           accepted := true;
           alpha_first := !alpha;
           decrease := !phi0 -. phi;
           phi0 := phi
         end
         else begin
           alpha := !alpha /. 2.;
           incr backtracks
         end
       done;
       if not !accepted then begin
         (* Step direction yields no progress: accept current point. *)
         converged := true;
         raise Exit
       end;
       if !decrease < newton_tol then begin
         incr stalled;
         if !stalled >= stall_limit then begin
           converged := true;
           raise Exit
         end
       end
       else stalled := 0
     done
   with Exit -> ());
  (!iters, !converged)

(* Full barrier loop over the iterate in [y] (advanced in place).
   [stop_when y] allows early exit (used by phase I once the original
   constraints are strictly satisfied).  At least one centering runs even
   when [t0] already meets the gap bound — a warm start must re-center
   after the problem was rescaled under it.

   Besides the final iterate the loop records a restart snapshot: the
   last central-path point whose gap [m/t] is still >= 1e-2.  The final
   iterate hugs the active constraints (slack ~ gap_eps), which makes it
   useless as a warm start — its first barrier Hessian is beyond any
   regularisation — whereas the mid-path point keeps real margin
   (active slacks ~ gap/m) and survives the budget relaxations between
   respecification rounds.  Snapshotting deeper (1e-3) backfires: after
   a rescale the point is off the new central path, and re-centering at
   the implied larger t crawls along the boundary. *)
let snap_gap = 1e-2

let barrier ws ~t0 y ?(stop_when = fun _ -> false) () =
  let m = ws.m in
  let n = Vec.dim ws.g in
  let t = ref t0 in
  let t_last = ref t0 in
  let total = ref 0 in
  let centerings = ref 0 in
  let limit = ref false in
  let snap_y = Vec.create n in
  let snap_t = ref t0 in
  let have_snap = ref false in
  (try
     while float_of_int m /. !t >= gap_eps || !centerings = 0 do
       let iters, _ = newton_center ws !t y in
       t_last := !t;
       total := !total + iters;
       incr centerings;
       if (not !have_snap) || float_of_int m /. !t >= snap_gap then begin
         Array.blit y 0 snap_y 0 n;
         snap_t := !t;
         have_snap := true
       end;
       if stop_when y then raise Exit;
       if !centerings >= max_centering then begin
         limit := true;
         raise Exit
       end;
       t := !t *. mu
     done
   with Exit -> ());
  (!t_last, !total, !centerings, !limit, { w_y = snap_y; w_t = !snap_t })

(* ------------------------------------------------------------------ *)
(* Phase I                                                             *)
(* ------------------------------------------------------------------ *)

(* Find a strictly feasible y for [c] by solving min S s.t. f_k(x)/S <= 1,
   starting from [y_init] with S just above the worst violation.  The
   relaxed program is [Logspace.relax]: the slack is appended as the last
   column, so every original row keeps its place and the current
   (rescaled) coefficients carry over.  Fails (None) when the optimum S
   cannot be driven below 1. *)
let phase1 ws c y_init =
  let worst = Logspace.evaluate ws.kern y_init in
  if worst < 0. then Some (Vec.copy y_init, 0, 0)
  else begin
    let n = Logspace.index_size c.idx in
    let ws1 = make_workspace (Logspace.relax c.prog ~lo:1e-9 ~hi:1e12) in
    let y1 = ws1.ybuf in
    Array.blit y_init 0 y1 0 n;
    (* Start the slack just above the worst violation: a warm-but-
       infeasible seed (budgets tightened a few percent under the old
       point) violates by ~log of the budget shift, and an e^1 slack
       would throw that proximity away. *)
    y1.(n) <- Float.max worst 0. +. 0.05;
    (* The original constraints read only positions < n, so they evaluate
       directly on the extended iterate — no projection needed.  The exit
       margin must clear the regularisation floor (the point feeds the
       main barrier, where a hair-thin slack makes the first Hessian
       nasty) but no more: a warm-but-infeasible seed keeps its active
       constraints near 1e-4, and demanding a fatter margin would force
       phase I to re-centre the whole problem instead of just repairing
       the violated few. *)
    let stop_when y1 = Logspace.evaluate ws.kern y1 < -1e-6 in
    let _, total, centerings, _, _ =
      barrier ws1 ~t0:t_init y1 ~stop_when ()
    in
    let y = Vec.init n (fun i -> y1.(i)) in
    if Logspace.evaluate ws.kern y < 0. then Some (y, total, centerings) else None
  end

(* ------------------------------------------------------------------ *)
(* Top-level solve                                                     *)
(* ------------------------------------------------------------------ *)

let initial_point (problem : Problem.t) idx =
  let bounds = Hashtbl.create 64 in
  List.iter
    (fun (v, lo, hi) -> Hashtbl.replace bounds v (lo, hi))
    problem.Problem.bounds;
  Vec.init (Logspace.index_size idx) (fun i ->
      match Hashtbl.find_opt bounds (Logspace.index_name idx i) with
      | Some (lo, hi) -> log (sqrt (lo *. hi))
      | None -> 0.)

let status_name = function
  | Optimal -> "optimal"
  | Infeasible -> "infeasible"
  | Iteration_limit -> "iteration-limit"

let determined_solution p =
  (* Fully determined by equalities: evaluate directly. *)
  let env v =
    match List.assoc_opt v p.eliminated with
    | Some m -> Monomial.eval (fun _ -> Err.fail "unbound %s" v) m
    | None -> Err.fail "Gp.Solver: unbound variable %s" v
  in
  {
    status = Optimal;
    values = List.map (fun (v, m) -> (v, Monomial.eval env m)) p.eliminated;
    objective_value = Posy.eval env p.problem.Problem.objective;
    duals = [];
    newton_iterations = 0;
    centering_steps = 0;
    warm_started = false;
    restart = None;
  }

let infeasible_solution ~newton ~centerings ~warm_started =
  {
    status = Infeasible;
    values = [];
    objective_value = nan;
    duals = [];
    newton_iterations = newton;
    centering_steps = centerings;
    warm_started;
    restart = None;
  }

let final_solution p ws c y t_final ~newton ~centerings ~limit ~warm_started
    ~restart =
  let env_reduced v = exp y.(Logspace.index_position c.idx v) in
  let reduced_values =
    List.map (fun v -> (v, env_reduced v)) (Logspace.index_names c.idx)
  in
  let eliminated_values =
    List.map (fun (v, m) -> (v, Monomial.eval env_reduced m)) p.eliminated
  in
  let values = reduced_values @ eliminated_values in
  let env v =
    match List.assoc_opt v values with
    | Some x -> x
    | None -> Err.fail "Gp.Solver: unbound variable %s" v
  in
  let (_ : float) = Logspace.evaluate ws.kern y in
  let duals =
    List.init (Array.length c.names) (fun k ->
        (c.names.(k), 1. /. (t_final *. -.Logspace.constraint_value ws.kern k)))
  in
  Log.debug (fun m ->
      m "solved GP: %d vars, %d constraints, %d newton iterations%s"
        (Logspace.index_size c.idx)
        (Array.length c.names) newton
        (if warm_started then " (warm)" else ""));
  {
    status = (if limit then Iteration_limit else Optimal);
    values;
    objective_value = Posy.eval env p.problem.Problem.objective;
    duals;
    newton_iterations = newton;
    centering_steps = centerings;
    warm_started;
    restart = Some restart;
  }

let resolve_impl ?warm p =
  match (p.c, p.ws) with
  | None, _ | _, None -> determined_solution p
  | Some c, Some ws -> (
    let n = Logspace.index_size c.idx in
    let warm_feasible =
      match warm with
      | Some w when Vec.dim w.w_y = n -> Logspace.evaluate ws.kern w.w_y < -.warm_margin
      | _ -> false
    in
    if warm_feasible then begin
      (* Skip phase I entirely and pick the barrier up at the snapshot's
         own parameter: the mid-path point is feasible for the rescaled
         problem with real margin, and the remaining centerings from
         there to the gap bound are the cheap, well-conditioned ones. *)
      let w = Option.get warm in
      Array.blit w.w_y 0 ws.ybuf 0 n;
      let t0 = Float.max t_init w.w_t in
      let t_final, it, ct, limit, restart =
        barrier ws ~t0 ws.ybuf ()
      in
      final_solution p ws c ws.ybuf t_final ~newton:it ~centerings:ct ~limit
        ~warm_started:true ~restart
    end
    else begin
      (* Cold (or warm-but-infeasible: the budgets tightened past the old
         point).  Phase I still profits from the old point — the needed
         slack is small — so use it as the initial guess when available.
         The main barrier must sweep up from t0 regardless: the phase-I
         point is not centred for a large parameter, and damped Newton at
         high t from an uncentred point crawls along the boundary. *)
      let y_init =
        match warm with
        | Some w when Vec.dim w.w_y = n -> w.w_y
        | _ -> initial_point p.reduced c.idx
      in
      match phase1 ws c y_init with
      | None -> infeasible_solution ~newton:0 ~centerings:0 ~warm_started:false
      | Some (y_feas, it1, ct1) ->
        Array.blit y_feas 0 ws.ybuf 0 n;
        let t_final, it2, ct2, limit, restart =
          barrier ws ~t0:t_init ws.ybuf ()
        in
        final_solution p ws c ws.ybuf t_final ~newton:(it1 + it2)
          ~centerings:(ct1 + ct2) ~limit ~warm_started:false ~restart
    end)

let solve_attrs = function
  | Ok s ->
    [
      ("status", Tracepoint.Str (status_name s.status));
      ("newton", Tracepoint.Int s.newton_iterations);
      ("centering", Tracepoint.Int s.centering_steps);
      ("warm", Tracepoint.Bool s.warm_started);
    ]
  | Error e -> [ ("status", Tracepoint.Str ("error: " ^ e)) ]

let size_attrs st =
  [ ("rows", Tracepoint.Int st.rows); ("terms", Tracepoint.Int st.terms) ]

let resolve ?warm p =
  Tracepoint.timed "gp.solve"
    ~attrs:(fun r -> size_attrs p.stats @ solve_attrs r)
    (fun () -> Ok (resolve_impl ?warm p))

let solve problem =
  Tracepoint.timed "gp.solve"
    ~attrs:(fun (st, r) -> size_attrs st @ solve_attrs r)
    (fun () ->
      let p = prepare problem in
      (p.stats, Ok (resolve_impl p)))
  |> snd

let warm_handle s = s.restart

let warm_of_values p values =
  match p.c with
  | None -> None
  | Some c ->
    let n = Logspace.index_size c.idx in
    let y = Vec.create n in
    let ok = ref true in
    for i = 0 to n - 1 do
      match List.assoc_opt (Logspace.index_name c.idx i) values with
      | Some x when x > 0. -> y.(i) <- log x
      | _ -> ok := false
    done;
    if !ok then Some { w_y = y; w_t = t_init } else None

let lookup sol v =
  match List.assoc_opt v sol.values with
  | Some x -> x
  | None -> Err.fail "Gp.Solver.lookup: no variable %s in solution" v

(* Per-term reference evaluation: independent of the compiled kernel, so
   certification does not trust the code it certifies. *)
let kkt_residual problem sol =
  let reduced, _eliminated = Problem.eliminate_equalities problem in
  let reduced = Problem.default_bounds ~lo:1e-9 ~hi:1e9 reduced in
  let idx = Logspace.index_of_vars (Problem.variables reduced) in
  let y =
    Vec.init (Logspace.index_size idx) (fun i -> log (lookup sol (Logspace.index_name idx i)))
  in
  let r = Vec.create (Vec.dim y) in
  let add lambda p = Vec.axpy lambda (snd (Logspace.value_grad (Logspace.compile idx p) y)) r in
  add 1. reduced.Problem.objective;
  List.iter
    (fun (name, p) -> add (Option.value ~default:0. (List.assoc_opt name sol.duals)) p)
    (inequalities reduced);
  Vec.norm_inf r

(* The reference side: every barrier term -log(-F_k) summed from the
   per-term evaluation, its w^2 g_k g_k^T part over g_k's nonzeros. *)
let kernel_max_rel_diff p values =
  match (p.c, p.ws) with
  | None, _ | _, None -> 0.
  | Some c, Some ws ->
    let n = Logspace.index_size c.idx in
    let y =
      Vec.init n (fun i -> log (List.assoc (Logspace.index_name c.idx i) values))
    in
    let h = Mat.create n n and g = Vec.create n and phi = ref 0. in
    let add ~barrier q =
      let f = Logspace.compile c.idx q in
      let v = Logspace.value f y in
      let w = if barrier then 1. /. -.v else 1. in
      let _, gk = Logspace.add_weighted_hessian f y w h in
      Vec.axpy w gk g;
      if barrier then begin
        phi := !phi -. log (-.v);
        let nz = List.filter (fun j -> gk.(j) <> 0.) (List.init n Fun.id) in
        List.iter
          (fun a ->
            List.iter
              (fun b -> if b <= a then Mat.add_to h a b (w *. w *. gk.(a) *. gk.(b)))
              nz)
          nz
      end
      else phi := !phi +. v
    in
    add ~barrier:false p.reduced.Problem.objective;
    List.iteri
      (fun k (_, q) -> add ~barrier:true (Posy.scale c.scales.(k) q))
      (inequalities p.reduced);
    let phi_k = Logspace.barrier ws.kern ~t:1. y in
    if not (phi_k < infinity) then infinity
    else begin
      Mat.fill ws.h 0.;
      Array.fill ws.g 0 n 0.;
      Logspace.assemble ws.kern ~t:1. ws.h ws.g;
      let rel got want =
        let num = ref 0. and den = ref 1. in
        Array.iteri
          (fun i x ->
            num := Float.max !num (Float.abs (x -. want.(i)));
            den := Float.max !den (Float.abs want.(i)))
          got;
        !num /. !den
      in
      List.fold_left Float.max 0.
        [ rel [| phi_k |] [| !phi |]; rel ws.g g; rel (Mat.data ws.h) (Mat.data h) ]
    end
