module Err = Smart_util.Err
module Posy = Smart_posy.Posy
module Monomial = Smart_posy.Monomial

type t = {
  objective : Posy.t;
  inequalities : (string * Posy.t) list;
  equalities : (string * Monomial.t) list;
  bounds : (string * float * float) list;
}

let make ?(inequalities = []) ?(equalities = []) ?(bounds = []) objective =
  List.iter
    (fun (v, lo, hi) ->
      if not (lo > 0. && hi >= lo) then
        Err.fail "Gp.Problem: bad bounds for %s: [%g, %g]" v lo hi)
    bounds;
  { objective; inequalities; equalities; bounds }

let constraint_le name lhs rhs =
  match Posy.as_monomial rhs with
  | Some m -> Some (name, Posy.div_monomial lhs m)
  | None -> None

let variables t =
  let of_ineqs = List.concat_map (fun (_, p) -> Posy.vars p) t.inequalities in
  let of_eqs = List.concat_map (fun (_, m) -> Monomial.vars m) t.equalities in
  let of_bounds = List.map (fun (v, _, _) -> v) t.bounds in
  List.sort_uniq String.compare
    (Posy.vars t.objective @ of_ineqs @ of_eqs @ of_bounds)

(* Solve a monomial equality [g = 1] for one of its variables:
   g = c * x^e * rest = 1  ==>  x = (c * rest)^(-1/e). *)
let solve_equality g =
  match Monomial.exponents g with
  | [] -> Err.fail "Gp.Problem: constant equality constraint %s = 1" (Monomial.to_string g)
  | (x, e) :: _ ->
    let rest =
      Monomial.make (Monomial.coeff g)
        (List.filter (fun (v, _) -> v <> x) (Monomial.exponents g))
    in
    (x, Monomial.pow rest (-1. /. e))

let eliminate_equalities t =
  let rec go t eliminated =
    match t.equalities with
    | [] -> (t, List.rev eliminated)
    | (_, g) :: rest ->
      let x, m = solve_equality g in
      let subst_posy p = Posy.subst x m p in
      let subst_mono (name, g') = (name, Monomial.subst x m g') in
      (* Any bound on the eliminated variable becomes a monomial inequality. *)
      let bound_ineqs, bounds =
        List.partition (fun (v, _, _) -> v = x) t.bounds
      in
      let extra =
        List.concat_map
          (fun (_, lo, hi) ->
            [
              ("bound-hi:" ^ x, Posy.of_monomial (Monomial.scale (1. /. hi) m));
              ("bound-lo:" ^ x, Posy.of_monomial (Monomial.scale lo (Monomial.inv m)));
            ])
          bound_ineqs
      in
      let t' =
        {
          objective = subst_posy t.objective;
          inequalities =
            List.map (fun (n, p) -> (n, subst_posy p)) t.inequalities @ extra;
          equalities = List.map subst_mono rest;
          bounds;
        }
      in
      (* The reconstruction monomial may mention later-eliminated variables;
         resolve transitively at the end by substituting into earlier
         reconstructions as we accumulate. *)
      let eliminated =
        (x, m) :: List.map (fun (v, mv) -> (v, Monomial.subst x m mv)) eliminated
      in
      go t' eliminated
  in
  go t []

let scenario_sep = '@'

let scenario_name ~tag name = Printf.sprintf "%s%c%s" tag scenario_sep name

let split_scenario name =
  match String.index_opt name scenario_sep with
  | None -> None
  | Some i ->
    Some
      (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))

let merge ~objective tagged =
  if tagged = [] then Err.fail "Gp.Problem.merge: no scenarios";
  List.iter
    (fun (tag, t) ->
      if t.equalities <> [] then
        Err.fail "Gp.Problem.merge: scenario %s carries equalities" tag;
      if String.contains tag scenario_sep then
        Err.fail "Gp.Problem.merge: scenario tag %s contains '%c'" tag
          scenario_sep)
    tagged;
  let inequalities =
    List.concat_map
      (fun (tag, t) ->
        List.map (fun (n, p) -> (scenario_name ~tag n, p)) t.inequalities)
      tagged
  in
  (* Shared variables, per-scenario bounds: keep the intersection.  The
     scenarios of a corner merge bound the same size labels identically,
     but a designer-supplied corner may tighten one — the sizing must
     respect every scenario's box. *)
  let bounds = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (_, t) ->
      List.iter
        (fun (v, lo, hi) ->
          match Hashtbl.find_opt bounds v with
          | None ->
            Hashtbl.replace bounds v (lo, hi);
            order := v :: !order
          | Some (lo', hi') ->
            Hashtbl.replace bounds v (Float.max lo lo', Float.min hi hi'))
        t.bounds)
    tagged;
  let bounds =
    List.rev_map
      (fun v ->
        let lo, hi = Hashtbl.find bounds v in
        (v, lo, hi))
      !order
  in
  make ~inequalities ~bounds objective

let default_bounds ~lo ~hi t =
  let have = List.map (fun (v, _, _) -> v) t.bounds in
  let missing = List.filter (fun v -> not (List.mem v have)) (variables t) in
  { t with bounds = t.bounds @ List.map (fun v -> (v, lo, hi)) missing }

let pp ppf t =
  Format.fprintf ppf "@[<v>minimize %a@," Posy.pp t.objective;
  List.iter
    (fun (n, p) -> Format.fprintf ppf "s.t. [%s] %a <= 1@," n Posy.pp p)
    t.inequalities;
  List.iter
    (fun (n, g) -> Format.fprintf ppf "s.t. [%s] %a = 1@," n Monomial.pp g)
    t.equalities;
  List.iter
    (fun (v, lo, hi) -> Format.fprintf ppf "s.t. %g <= %s <= %g@," lo v hi)
    t.bounds;
  Format.fprintf ppf "@]"
