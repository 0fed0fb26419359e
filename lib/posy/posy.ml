module Err = Smart_util.Err

(* Invariant: the term list is non-empty, sorted by [Monomial.compare]
   (coefficient first, then exponent vector), and holds at most one
   monomial per distinct exponent vector. *)
type t = Monomial.t list

let merge terms =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let key = Monomial.exponents m in
      let c = try Hashtbl.find tbl key with Not_found -> 0. in
      Hashtbl.replace tbl key (c +. Monomial.coeff m))
    terms;
  Hashtbl.fold (fun key c acc -> Monomial.make c key :: acc) tbl []
  |> List.sort Monomial.compare

let of_monomial m = [ m ]

let of_monomials = function
  | [] -> Err.fail "Posy.of_monomials: empty"
  | ms -> merge ms

let const c = [ Monomial.const c ]
let var x = [ Monomial.var x ]
let monomials t = t
let add a b = merge (a @ b)

let sum = function
  | [] -> Err.fail "Posy.sum: empty"
  | ps -> merge (List.concat ps)

let mul a b =
  merge (List.concat_map (fun ma -> List.map (Monomial.mul ma) b) a)

let scale s t = List.map (Monomial.scale s) t
let mul_monomial t m = List.map (Monomial.mul m) t
let div_monomial t m = mul_monomial t (Monomial.inv m)

(* Exponentiation by squaring: O(log n) posynomial multiplications instead
   of n-1 (each multiplication is itself quadratic in term count). *)
let pow_int t n =
  if n < 0 then Err.fail "Posy.pow_int: negative power %d" n
  else if n = 0 then const 1.
  else begin
    let rec go acc base n =
      let acc =
        if n land 1 = 1 then
          Some (match acc with None -> base | Some a -> mul a base)
        else acc
      in
      if n <= 1 then (match acc with Some a -> a | None -> const 1.)
      else go acc (mul base base) (n lsr 1)
    in
    go None t n
  end

let as_monomial = function [ m ] -> Some m | _ -> None
let is_const t = List.for_all Monomial.is_const t
let num_terms = List.length

let vars t =
  List.concat_map Monomial.vars t |> List.sort_uniq String.compare

let eval env t = List.fold_left (fun acc m -> acc +. Monomial.eval env m) 0. t
let subst x m' t = merge (List.map (Monomial.subst x m') t)

let subst_posy x p t =
  let subst_one m =
    let e = Monomial.degree_of m x in
    if e = 0. then [ m ]
    else if Float.is_integer e && e > 0. then begin
      let rest =
        Monomial.make (Monomial.coeff m)
          (List.filter (fun (v, _) -> v <> x) (Monomial.exponents m))
      in
      mul_monomial (pow_int p (int_of_float e)) rest
    end
    else
      Err.fail "Posy.subst_posy: variable %s occurs with exponent %g" x e
  in
  merge (List.concat_map subst_one t)

let equal a b = List.equal Monomial.equal a b

let drop_tiny ~rel t =
  let biggest = List.fold_left (fun acc m -> max acc (Monomial.coeff m)) 0. t in
  let kept = List.filter (fun m -> Monomial.coeff m >= rel *. biggest) t in
  match kept with [] -> t | _ -> kept

let dominates p q =
  let tbl = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace tbl (Monomial.exponents m) (Monomial.coeff m)) p;
  List.for_all
    (fun m ->
      match Hashtbl.find_opt tbl (Monomial.exponents m) with
      | Some c -> c >= Monomial.coeff m
      | None -> false)
    q

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
    Monomial.pp ppf t

let to_string t = Format.asprintf "%a" pp t
