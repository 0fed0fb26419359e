module Err = Smart_util.Err

type t = { coeff : float; exps : (string * float) list (* sorted, nonzero *) }

let normalise exps =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, e) ->
      let cur = try Hashtbl.find tbl v with Not_found -> 0. in
      Hashtbl.replace tbl v (cur +. e))
    exps;
  Hashtbl.fold (fun v e acc -> if e = 0. then acc else (v, e) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let make c exps =
  if not (c > 0.) || Float.is_nan c then
    Err.fail "Monomial.make: coefficient %g must be positive" c;
  { coeff = c; exps = normalise exps }

let const c = make c []
let var x = make 1. [ (x, 1.) ]
let coeff m = m.coeff
let exponents m = m.exps
let degree_of m x = try List.assoc x m.exps with Not_found -> 0.

let mul a b = make (a.coeff *. b.coeff) (a.exps @ b.exps)
let pow m p = make (m.coeff ** p) (List.map (fun (v, e) -> (v, e *. p)) m.exps)

let inv m = pow m (-1.)
let div a b = mul a (inv b)

let scale a m =
  if not (a > 0.) then Err.fail "Monomial.scale: factor %g must be positive" a;
  { m with coeff = a *. m.coeff }

let is_const m = m.exps = []
let vars m = List.map fst m.exps

let eval env m =
  List.fold_left (fun acc (v, e) -> acc *. (env v ** e)) m.coeff m.exps

let subst x m' m =
  let e = degree_of m x in
  if e = 0. then m
  else
    let rest = List.filter (fun (v, _) -> v <> x) m.exps in
    mul { coeff = m.coeff; exps = rest } (pow m' e)

let compare a b =
  match Float.compare a.coeff b.coeff with
  | 0 -> Stdlib.compare a.exps b.exps
  | c -> c

let equal a b = compare a b = 0

let pp ppf m =
  Format.fprintf ppf "%g" m.coeff;
  List.iter
    (fun (v, e) ->
      if e = 1. then Format.fprintf ppf "*%s" v
      else Format.fprintf ppf "*%s^%g" v e)
    m.exps

let to_string m = Format.asprintf "%a" pp m
