module Interval = Interval
module Problem = Smart_gp.Problem
module Posy = Smart_posy.Posy
module Monomial = Smart_posy.Monomial
module Constraints = Smart_constraints.Constraints
module Err = Smart_util.Err
module I = Interval

(* ------------------------------------------------------------------ *)
(* Budget classification                                               *)
(* ------------------------------------------------------------------ *)

type cls = { relax : float; tightest : float }

let fixed_budget _ = { relax = 1.; tightest = 1. }

(* The sizer's respecification loop moves each budget class within known
   mechanics (see Smart_sizer): evaluate/stage timing factors are seeded
   from the model's own min-delay pre-solve and retargeted every round —
   effectively unbounded in both directions, so timing budgets are never
   certified against and never proven slack.  The precharge factor moves
   by the clamped retarget (x2 per round over at most 8 rounds); 2^8
   over-covers every reachable relaxation or tightening, and the robust
   loop's per-corner calibration adds one more factor-2 clamp.  Slope
   and any other constraint are never rescaled at all. *)
let sizer_classes ~robust name =
  let base =
    match Problem.split_scenario name with Some (_, b) -> b | None -> name
  in
  match Constraints.budget_class base with
  | Constraints.Timing -> { relax = infinity; tightest = infinity }
  | Constraints.Precharge ->
    let range = if robust then 512. else 256. in
    { relax = range; tightest = range }
  | Constraints.Fixed -> fixed_budget name

type options = { classify : string -> cls }

let default_options = { classify = fixed_budget }
let sizer_options ~robust = { classify = sizer_classes ~robust }

(* The narrowing fixed-point cap, and the relative slack required before
   a certificate is issued — the roundoff guard that keeps floating-point
   noise from rejecting a feasible specification. *)
let max_sweeps = 8
let margin_log = log1p 1e-6

(* ------------------------------------------------------------------ *)
(* Analysis result types                                               *)
(* ------------------------------------------------------------------ *)

type certificate = {
  constraint_name : string;
  scenario : string option;
  excess : float;
  budget : float;
  detail : string;
}

type constraint_bound = {
  name : string;
  bound : I.t;
  binding_possible : bool;
}

type t = {
  problem : Problem.t;
  vars : string array;
  seed : I.t array;
  box : I.t array;
  constraints : constraint_bound array;
  objective : I.t;
  certificate : certificate option;
  sweeps : int;
}

(* ------------------------------------------------------------------ *)
(* Compiled transfer functions                                         *)
(* ------------------------------------------------------------------ *)

(* One posynomial term as [log c + sum a_i * y_i] over variable indices. *)
type term = { logc : float; exps : (int * float) array }

let default_lo = log 1e-9
let default_hi = log 1e9

let compile_posy index p =
  Posy.monomials p
  |> List.map (fun m ->
         {
           logc = log (Monomial.coeff m);
           exps =
             Monomial.exponents m
             |> List.map (fun (v, a) -> (Hashtbl.find index v, a))
             |> Array.of_list;
         })
  |> Array.of_list

(* Exact interval of one term over the box: the affine image of the
   variable intervals, endpoint picked by exponent sign. *)
let term_lo (box : I.t array) t =
  Array.fold_left
    (fun acc (i, a) ->
      acc +. (a *. if a >= 0. then box.(i).I.lo else box.(i).I.hi))
    t.logc t.exps

let term_hi (box : I.t array) t =
  Array.fold_left
    (fun acc (i, a) ->
      acc +. (a *. if a >= 0. then box.(i).I.hi else box.(i).I.lo))
    t.logc t.exps

let posy_interval box terms =
  {
    I.lo = I.lse (Array.map (term_lo box) terms);
    hi = I.lse (Array.map (term_hi box) terms);
  }

(* ------------------------------------------------------------------ *)
(* Narrowing                                                           *)
(* ------------------------------------------------------------------ *)

type cc = {
  cname : string;
  ccls : cls;
  terms : term array;
  budget_log : float;  (** [log relax]; [infinity] = do not narrow *)
}

exception Infeasible of certificate

let certify ~name ~excess ~budget ~detail =
  let scenario =
    match Problem.split_scenario name with
    | Some (tag, _) -> Some tag
    | None -> None
  in
  raise (Infeasible { constraint_name = name; scenario; excess; budget; detail })

(* Meet an endpoint move into the box, guarding against roundoff: a move
   that would empty the interval by less than the margin is clamped (no
   change); emptying it beyond the margin is a proof of infeasibility. *)
let improve_tol = 1e-9

let tighten_hi box i v ~name ~budget changed =
  let iv = box.(i) in
  if v < iv.I.hi -. improve_tol then
    if v < iv.I.lo then begin
      if iv.I.lo -. v > margin_log then
        certify ~name ~excess:(exp (iv.I.lo -. v)) ~budget
          ~detail:
            (Printf.sprintf
               "constraint %s forces a variable below its proven minimum" name)
    end
    else begin
      box.(i) <- { iv with I.hi = v };
      changed := true
    end

let tighten_lo box i v ~name ~budget changed =
  let iv = box.(i) in
  if v > iv.I.lo +. improve_tol then
    if v > iv.I.hi then begin
      if v -. iv.I.hi > margin_log then
        certify ~name ~excess:(exp (v -. iv.I.hi)) ~budget
          ~detail:
            (Printf.sprintf
               "constraint %s forces a variable above its proven maximum" name)
    end
    else begin
      box.(i) <- { iv with I.lo = v };
      changed := true
    end

(* Backward pass over one inequality [sum_j m_j <= budget]:
   - the whole sum's proven minimum exceeding the budget is a
     certificate;
   - a variable appearing in every term with one common exponent factors
     out of the sum ([f = x^a * g]), giving the tight bound
     [a*y <= B - lo(g)] — this is what recovers exact makespan lower
     bounds on min-delay programs, where every term divides by the
     delay variable;
   - each term can use at most what the other terms' minima leave of the
     budget ([log_sub]), which bounds each variable it mentions through
     the term's affine form. *)
let narrow_inequality box c =
  let changed = ref false in
  let b = c.budget_log in
  if b < infinity then begin
    let n = Array.length c.terms in
    let lows = Array.map (term_lo box) c.terms in
    let total_lo = I.lse lows in
    if total_lo > b +. margin_log then
      certify ~name:c.cname ~excess:(exp (total_lo -. b))
        ~budget:(exp b)
        ~detail:
          (Printf.sprintf
             "constraint %s has proven lower bound %.4gx its most-relaxed \
              budget"
             c.cname (exp (total_lo -. b)));
    (* Common-factor rule. *)
    if n > 1 then begin
      let first = c.terms.(0).exps in
      Array.iter
        (fun (i, a) ->
          let everywhere =
            Array.for_all
              (fun t ->
                Array.exists (fun (j, a') -> j = i && a' = a) t.exps)
              c.terms
          in
          if everywhere then begin
            let iv = box.(i) in
            let contrib = a *. if a >= 0. then iv.I.lo else iv.I.hi in
            (* f = x^a * g: subtracting the x contribution from every
               term's minimum leaves lo(g). *)
            let rest = I.lse (Array.map (fun l -> l -. contrib) lows) in
            let bound = b -. rest in
            if a > 0. then
              tighten_hi box i (bound /. a) ~name:c.cname
                ~budget:(exp b) changed
            else
              tighten_lo box i (bound /. a) ~name:c.cname
                ~budget:(exp b) changed
          end)
        first
    end;
    (* Per-term residual rule. *)
    Array.iteri
      (fun j t ->
        let rest = if n = 1 then neg_infinity else I.log_sub total_lo lows.(j) in
        let ub = I.log_sub b rest in
        if ub = neg_infinity then begin
          (* Even a vanishing term j cannot fit: the other terms alone
             exceed the budget.  Beyond the margin this is a proof. *)
          if rest > b +. margin_log then
            certify ~name:c.cname ~excess:(exp (rest -. b)) ~budget:(exp b)
              ~detail:
                (Printf.sprintf
                   "constraint %s exceeds its most-relaxed budget" c.cname)
        end
        else
          Array.iter
            (fun (i, a) ->
              let iv = box.(i) in
              let contrib = a *. if a >= 0. then iv.I.lo else iv.I.hi in
              let tl = lows.(j) -. contrib in
              let bound = (ub -. tl) /. a in
              if a > 0. then
                tighten_hi box i bound ~name:c.cname
                  ~budget:(exp b) changed
              else
                tighten_lo box i bound ~name:c.cname
                  ~budget:(exp b) changed)
            t.exps)
      c.terms
  end;
  !changed

(* A monomial equality [g = 1] pins [log g = 0]: two-sided narrowing of
   every variable, and a proof when the interval of [log g] excludes 0. *)
let narrow_equality box (name, term) =
  let changed = ref false in
  let lo = term_lo box term and hi = term_hi box term in
  if lo > margin_log then
    certify ~name ~excess:(exp lo) ~budget:1.
      ~detail:(Printf.sprintf "equality %s is provably above 1" name);
  if hi < -.margin_log then
    certify ~name ~excess:(exp (-.hi)) ~budget:1.
      ~detail:(Printf.sprintf "equality %s is provably below 1" name);
  Array.iter
    (fun (i, a) ->
      let iv = box.(i) in
      let c_lo = a *. (if a >= 0. then iv.I.lo else iv.I.hi) in
      let c_hi = a *. (if a >= 0. then iv.I.hi else iv.I.lo) in
      (* rest = log g - a*y_i over the box *)
      let r_lo = lo -. c_lo and r_hi = hi -. c_hi in
      (* a*y_i = -rest  =>  y_i in [-r_hi; -r_lo] / a *)
      let b_lo = -.r_hi /. a and b_hi = -.r_lo /. a in
      let b_lo, b_hi = if a >= 0. then (b_lo, b_hi) else (b_hi, b_lo) in
      tighten_lo box i b_lo ~name ~budget:1. changed;
      tighten_hi box i b_hi ~name ~budget:1. changed)
    term.exps;
  !changed

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                     *)
(* ------------------------------------------------------------------ *)

let analyze ?(options = default_options) (problem : Problem.t) =
  let vars = Array.of_list (Problem.variables problem) in
  let index = Hashtbl.create (Array.length vars * 2) in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vars;
  let seed =
    Array.map (fun _ -> { I.lo = default_lo; hi = default_hi }) vars
  in
  List.iter
    (fun (v, lo, hi) ->
      match Hashtbl.find_opt index v with
      | None -> ()
      | Some i -> (
        match I.meet seed.(i) (I.of_linear lo hi) with
        | Some iv -> seed.(i) <- iv
        | None -> seed.(i) <- I.of_linear lo hi))
    problem.Problem.bounds;
  let box = Array.copy seed in
  let compile_term m =
    {
      logc = log (Monomial.coeff m);
      exps =
        Monomial.exponents m
        |> List.map (fun (v, a) -> (Hashtbl.find index v, a))
        |> Array.of_list;
    }
  in
  let ineqs =
    List.map
      (fun (name, p) ->
        let c = options.classify name in
        {
          cname = name;
          ccls = c;
          terms = compile_posy index p;
          budget_log = log c.relax;
        })
      problem.Problem.inequalities
  in
  let eqs =
    List.map
      (fun (name, m) -> (name, compile_term m))
      problem.Problem.equalities
  in
  let sweeps = ref 0 in
  let certificate = ref None in
  (try
     let continue_ = ref true in
     while !continue_ && !sweeps < max_sweeps do
       incr sweeps;
       let changed = ref false in
       List.iter
         (fun c -> if narrow_inequality box c then changed := true)
         ineqs;
       List.iter
         (fun e -> if narrow_equality box e then changed := true)
         eqs;
       continue_ := !changed
     done
   with Infeasible c -> certificate := Some c);
  let constraints =
    List.map
      (fun c ->
        let bound = posy_interval box c.terms in
        let binding_possible =
          c.ccls.tightest = infinity
          || bound.I.hi >= -.log c.ccls.tightest -. margin_log
        in
        { name = c.cname; bound; binding_possible })
      ineqs
    |> Array.of_list
  in
  {
    problem;
    vars;
    seed;
    box;
    constraints;
    objective = posy_interval box (compile_posy index problem.Problem.objective);
    certificate = !certificate;
    sweeps = !sweeps;
  }

let var_interval t v =
  let n = Array.length t.vars in
  let rec bsearch lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare t.vars.(mid) v in
      if c = 0 then Some t.box.(mid)
      else if c < 0 then bsearch (mid + 1) hi
      else bsearch lo mid
  in
  bsearch 0 n

let err_of_certificate ~target_ps (c : certificate) =
  Err.Infeasible_spec
    {
      target_ps;
      detail =
        Printf.sprintf "%s within device bounds (absint: %s%s)" c.detail
          c.constraint_name
          (match c.scenario with
          | None -> ""
          | Some tag -> Printf.sprintf " at corner %s" tag);
    }

let infeasibility ?options ~target_ps problem =
  match (analyze ?options problem).certificate with
  | Some c -> Some (err_of_certificate ~target_ps c)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  variables : int;
  inequalities : int;
  equalities : int;
  sweeps : int;
  objective_lo : float;
  never_binding : int;
  tightened : int;
  tighten_avg_pct : float;
  infeasible : certificate option;
}

let summarize t =
  let tightened = ref 0 and pct_sum = ref 0. and pct_n = ref 0 in
  Array.iteri
    (fun i iv ->
      let s = t.seed.(i) in
      let ws = I.width s and wn = I.width iv in
      if wn < ws -. improve_tol then incr tightened;
      if ws > improve_tol && Float.is_finite ws then begin
        pct_sum := !pct_sum +. (100. *. (1. -. (wn /. ws)));
        incr pct_n
      end)
    t.box;
  {
    variables = Array.length t.vars;
    inequalities = Array.length t.constraints;
    equalities = List.length t.problem.Problem.equalities;
    sweeps = t.sweeps;
    objective_lo = I.lo_linear t.objective;
    never_binding =
      Array.fold_left
        (fun acc c -> if c.binding_possible then acc else acc + 1)
        0 t.constraints;
    tightened = !tightened;
    tighten_avg_pct = (if !pct_n = 0 then 0. else !pct_sum /. float_of_int !pct_n);
    infeasible = t.certificate;
  }
