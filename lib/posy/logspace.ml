module Err = Smart_util.Err
module Vec = Smart_linalg.Vec
module Mat = Smart_linalg.Mat

type index = { names : string array; positions : (string, int) Hashtbl.t }

let index_of_vars names =
  let positions = Hashtbl.create 64 in
  let count = ref 0 in
  let rev =
    List.fold_left
      (fun acc v ->
        if Hashtbl.mem positions v then acc
        else begin
          Hashtbl.add positions v !count;
          incr count;
          v :: acc
        end)
      [] names
  in
  { names = Array.of_list (List.rev rev); positions }

let index_size idx = Array.length idx.names

let index_position idx v =
  try Hashtbl.find idx.positions v
  with Not_found -> Err.fail "Logspace: unknown variable %s" v

let index_name idx i = idx.names.(i)
let index_names idx = Array.to_list idx.names

(* Compiled form in flat CSR layout: term [i] owns the log-coefficient
   [logc.(i)] and the exponent row [cols/expo.(term_off.(i) ..
   term_off.(i+1) - 1)] (column indices sorted ascending).  Flat float
   arrays keep the hot evaluation loops on unboxed floats — the previous
   [(int * float) array] rows boxed every pair.  [logc] contents are
   mutable so budget rescales patch coefficients in place ({!rescale});
   [base_logc] remembers the as-compiled values the rescale is relative
   to.

   Terms are sorted canonically by exponent row (Posy holds at most one
   monomial per row, so the order is total).  The order depends only on
   the rows, never the coefficients — which is what lets the solver
   recognise that per-scenario copies of one constraint family share
   their row structure exactly and bundle their evaluation. *)
type t = {
  k : int;  (* number of terms *)
  logc : float array;
  base_logc : float array;
  term_off : int array;  (* length k+1 *)
  cols : int array;
  expo : float array;
  support : int array;  (* sorted distinct column indices *)
}

let compile idx p =
  let ms = Array.of_list (Posy.monomials p) in
  let k = Array.length ms in
  let rows =
    Array.map
      (fun m ->
        Monomial.exponents m
        |> List.map (fun (v, e) -> (index_position idx v, e))
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> Array.of_list)
      ms
  in
  let order = Array.init k Fun.id in
  let cmp_row a b =
    let ra = rows.(a) and rb = rows.(b) in
    let la = Array.length ra and lb = Array.length rb in
    let rec go i =
      if i >= la || i >= lb then compare la lb
      else begin
        let ca, ea = ra.(i) and cb, eb = rb.(i) in
        if ca <> cb then compare ca cb
        else if ea <> eb then compare ea eb
        else go (i + 1)
      end
    in
    go 0
  in
  Array.sort (fun a b -> match cmp_row a b with 0 -> compare a b | c -> c) order;
  let nnz = Array.fold_left (fun acc r -> acc + Array.length r) 0 rows in
  let logc = Array.make (max 1 k) 0. in
  let base_logc = Array.make (max 1 k) 0. in
  let term_off = Array.make (k + 1) 0 in
  let cols = Array.make (max 1 nnz) 0 in
  let expo = Array.make (max 1 nnz) 0. in
  let pos = ref 0 in
  Array.iteri
    (fun slot src ->
      let lc = log (Monomial.coeff ms.(src)) in
      logc.(slot) <- lc;
      base_logc.(slot) <- lc;
      Array.iter
        (fun (j, e) ->
          cols.(!pos) <- j;
          expo.(!pos) <- e;
          incr pos)
        rows.(src);
      term_off.(slot + 1) <- !pos)
    order;
  let support =
    Array.sub cols 0 nnz |> Array.to_list |> List.sort_uniq compare
    |> Array.of_list
  in
  { k; logc; base_logc; term_off; cols; expo; support }

let num_terms f = f.k

let rescale f s =
  if not (s > 0.) then Err.fail "Logspace.rescale: non-positive factor %g" s;
  let ls = log s in
  for i = 0 to f.k - 1 do
    f.logc.(i) <- f.base_logc.(i) +. ls
  done

let mul_var f j e =
  (* Insert (j, e) into every row, keeping columns sorted.  Coefficients
     are captured at their current (possibly rescaled) values. *)
  let nnz = f.term_off.(f.k) + f.k in
  let cols = Array.make (max 1 nnz) 0 in
  let expo = Array.make (max 1 nnz) 0. in
  let term_off = Array.make (f.k + 1) 0 in
  let pos = ref 0 in
  for i = 0 to f.k - 1 do
    let placed = ref false in
    for r = f.term_off.(i) to f.term_off.(i + 1) - 1 do
      if (not !placed) && f.cols.(r) > j then begin
        cols.(!pos) <- j;
        expo.(!pos) <- e;
        incr pos;
        placed := true
      end;
      cols.(!pos) <- f.cols.(r);
      expo.(!pos) <- f.expo.(r);
      incr pos
    done;
    if not !placed then begin
      cols.(!pos) <- j;
      expo.(!pos) <- e;
      incr pos
    end;
    term_off.(i + 1) <- !pos
  done;
  let support =
    if Array.exists (fun v -> v = j) f.support then f.support
    else
      Array.append f.support [| j |] |> Array.to_list |> List.sort compare
      |> Array.of_list
  in
  {
    k = f.k;
    logc = Array.copy f.logc;
    base_logc = Array.copy f.logc;
    term_off;
    cols;
    expo;
    support;
  }

let term_value f i y =
  let acc = ref f.logc.(i) in
  for r = f.term_off.(i) to f.term_off.(i + 1) - 1 do
    acc := !acc +. (f.expo.(r) *. y.(f.cols.(r)))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Allocating evaluation (compile-time / diagnostic paths)             *)
(* ------------------------------------------------------------------ *)

(* Stable logsumexp with softmax weights. *)
let softmax f y =
  let vals = Array.init f.k (fun i -> term_value f i y) in
  let m = Array.fold_left max neg_infinity vals in
  let exps = Array.map (fun v -> exp (v -. m)) vals in
  let z = Array.fold_left ( +. ) 0. exps in
  let value = m +. log z in
  let probs = Array.map (fun e -> e /. z) exps in
  (value, probs)

(* Two-pass logsumexp: no intermediate arrays. *)
let value f y =
  if f.k = 1 then term_value f 0 y
  else begin
    let m = ref neg_infinity in
    for i = 0 to f.k - 1 do
      let v = term_value f i y in
      if v > !m then m := v
    done;
    if !m = neg_infinity then neg_infinity
    else begin
      let z = ref 0. in
      for i = 0 to f.k - 1 do
        z := !z +. exp (term_value f i y -. !m)
      done;
      !m +. log !z
    end
  end

let grad_of_probs f y probs =
  let g = Vec.create (Vec.dim y) in
  for i = 0 to f.k - 1 do
    let p = probs.(i) in
    if p > 0. then
      for r = f.term_off.(i) to f.term_off.(i + 1) - 1 do
        let j = f.cols.(r) in
        g.(j) <- g.(j) +. (p *. f.expo.(r))
      done
  done;
  g

let value_grad f y =
  let v, probs = softmax f y in
  (v, grad_of_probs f y probs)

let add_weighted_hessian f y w h =
  let v, probs = softmax f y in
  let g = grad_of_probs f y probs in
  (* hess = sum_i p_i a_i a_i^T - g g^T; accumulate w * hess into h,
     lower triangle only — the Cholesky-based solves never read the
     upper, and writing both halves would double the hot assembly cost.
     Both parts touch only the posynomial's support, so the updates stay
     sparse even when the ambient problem has hundreds of variables. *)
  for i = 0 to f.k - 1 do
    let p = probs.(i) in
    if p > 0. then
      for ra = f.term_off.(i) to f.term_off.(i + 1) - 1 do
        let j = f.cols.(ra) in
        let wj = w *. p *. f.expo.(ra) in
        for rb = f.term_off.(i) to ra do
          Mat.add_to h j f.cols.(rb) (wj *. f.expo.(rb))
        done
      done
  done;
  let s = f.support in
  for a = 0 to Array.length s - 1 do
    let ga = g.(s.(a)) in
    if ga <> 0. then
      for b = 0 to a do
        Mat.add_to h s.(a) s.(b) (-.w *. ga *. g.(s.(b)))
      done
  done;
  (v, g)

(* ------------------------------------------------------------------ *)
(* Workspace evaluation (the solver's per-Newton-iteration hot path)   *)
(* ------------------------------------------------------------------ *)

type scratch = {
  mutable vals : float array;  (* term values -> probabilities / exp offsets *)
  gtmp : Vec.t;
  mutable wtmp : float array;  (* per-member probabilities (families) *)
  mutable wsum : float array;  (* combined Hessian term weights (families) *)
  mutable zbuf : float array;  (* per-member 1/Z (families) *)
  mutable vbuf : float array;  (* per-member values (families) *)
}

let make_scratch ~n ~max_terms =
  let k = max 1 max_terms in
  {
    vals = Array.make k 0.;
    gtmp = Vec.create n;
    wtmp = Array.make k 0.;
    wsum = Array.make k 0.;
    zbuf = Array.make 4 0.;
    vbuf = Array.make 4 0.;
  }

let ensure_terms s k =
  if Array.length s.vals < k then begin
    s.vals <- Array.make k 0.;
    s.wtmp <- Array.make k 0.;
    s.wsum <- Array.make k 0.
  end

let ensure_members s m =
  if Array.length s.zbuf < m then begin
    s.zbuf <- Array.make m 0.;
    s.vbuf <- Array.make m 0.
  end

(* Softmax with probabilities left in [s.vals.(0..k-1)]; returns the value. *)
let softmax_ws s f y =
  let k = f.k in
  ensure_terms s k;
  let vals = s.vals in
  let m = ref neg_infinity in
  for i = 0 to k - 1 do
    let v = term_value f i y in
    vals.(i) <- v;
    if v > !m then m := v
  done;
  let z = ref 0. in
  for i = 0 to k - 1 do
    let e = exp (vals.(i) -. !m) in
    vals.(i) <- e;
    z := !z +. e
  done;
  let inv = 1. /. !z in
  for i = 0 to k - 1 do
    vals.(i) <- vals.(i) *. inv
  done;
  !m +. log !z

(* Gradient over the support into [s.gtmp] from the probabilities computed
   by [softmax_ws] (support entries are zeroed first; exponent rows only
   ever touch support positions). *)
let grad_ws s f =
  let g = s.gtmp in
  let sup = f.support in
  for a = 0 to Array.length sup - 1 do
    g.(sup.(a)) <- 0.
  done;
  let probs = s.vals in
  for i = 0 to f.k - 1 do
    let p = probs.(i) in
    if p > 0. then
      for r = f.term_off.(i) to f.term_off.(i + 1) - 1 do
        let j = f.cols.(r) in
        g.(j) <- g.(j) +. (p *. f.expo.(r))
      done
  done

(* h += sum_i w.(i) a_i a_i^T, lower triangle only (columns are sorted
   within each row, so [cols.(rb) <= cols.(ra)] for [rb <= ra]). *)
let add_term_outer_lower data n f w =
  for i = 0 to f.k - 1 do
    let wi = w.(i) in
    if wi <> 0. then begin
      let r0 = f.term_off.(i) in
      for ra = r0 to f.term_off.(i + 1) - 1 do
        let row = f.cols.(ra) * n in
        let wj = wi *. f.expo.(ra) in
        for rb = r0 to ra do
          data.(row + f.cols.(rb)) <- data.(row + f.cols.(rb)) +. (wj *. f.expo.(rb))
        done
      done
    end
  done

(* h += c2 * g g^T over the (sorted) support, lower triangle only. *)
let add_grad_outer_lower data n sup (g : Vec.t) c2 =
  for a = 0 to Array.length sup - 1 do
    let ja = sup.(a) in
    let ga = g.(ja) in
    if ga <> 0. then begin
      let row = ja * n in
      let w = c2 *. ga in
      for b = 0 to a do
        let jb = sup.(b) in
        data.(row + jb) <- data.(row + jb) +. (w *. g.(jb))
      done
    end
  done

(* Shared Hessian accumulation: h += c1 * sum_i p_i a_i a_i^T
   + c2 * grad grad^T, writing the lower triangle of the matrix storage
   directly (the solve path never reads the upper). *)
let accumulate_ws s f h ~c1 ~c2 =
  let data = Mat.data h in
  let n = Vec.dim s.gtmp in
  let probs = s.vals in
  for i = 0 to f.k - 1 do
    let p = probs.(i) in
    if p > 0. then begin
      let wi = c1 *. p in
      let r0 = f.term_off.(i) in
      for ra = r0 to f.term_off.(i + 1) - 1 do
        let row = f.cols.(ra) * n in
        let wj = wi *. f.expo.(ra) in
        for rb = r0 to ra do
          data.(row + f.cols.(rb)) <- data.(row + f.cols.(rb)) +. (wj *. f.expo.(rb))
        done
      done
    end
  done;
  add_grad_outer_lower data n f.support s.gtmp c2

let add_objective_term s f y ~weight h g =
  let v = softmax_ws s f y in
  grad_ws s f;
  (* weight * hess = weight * (sum p a a^T - grad grad^T) *)
  accumulate_ws s f h ~c1:weight ~c2:(-.weight);
  let gt = s.gtmp in
  let sup = f.support in
  for a = 0 to Array.length sup - 1 do
    let j = sup.(a) in
    g.(j) <- g.(j) +. (weight *. gt.(j))
  done;
  v

let add_barrier_term s f y h g =
  if f.k = 1 then begin
    (* Monomial constraint (every bound, most precharge floors): the
       logsumexp collapses to an affine term, so there is no softmax to
       evaluate — value directly, gradient = w a, and the barrier
       Hessian w a a^T + (w^2 - w) a a^T = w^2 a a^T. *)
    let v = term_value f 0 y in
    if v >= 0. then v
    else begin
      let w = 1. /. -.v in
      let w2 = w *. w in
      let data = Mat.data h in
      let n = Vec.dim s.gtmp in
      for ra = 0 to f.term_off.(1) - 1 do
        let ja = f.cols.(ra) in
        let ea = f.expo.(ra) in
        g.(ja) <- g.(ja) +. (w *. ea);
        let row = ja * n in
        for rb = 0 to ra do
          data.(row + f.cols.(rb)) <- data.(row + f.cols.(rb)) +. (w2 *. ea *. f.expo.(rb))
        done
      done;
      v
    end
  end
  else begin
    let v = softmax_ws s f y in
    if v >= 0. then v
    else begin
      let w = 1. /. -.v in
      grad_ws s f;
      (* Barrier term of -log(-F): gradient w*grad, Hessian
         w*hess F + w^2 grad grad^T = w*sum p a a^T + (w^2 - w) grad grad^T. *)
      accumulate_ws s f h ~c1:w ~c2:((w *. w) -. w);
      let gt = s.gtmp in
      let sup = f.support in
      for a = 0 to Array.length sup - 1 do
        let j = sup.(a) in
        g.(j) <- g.(j) +. (w *. gt.(j))
      done;
      v
    end
  end

let value_ws s f y =
  if f.k = 1 then term_value f 0 y
  else begin
    let k = f.k in
    ensure_terms s k;
    let vals = s.vals in
    let m = ref neg_infinity in
    for i = 0 to k - 1 do
      let v = term_value f i y in
      vals.(i) <- v;
      if v > !m then m := v
    done;
    let z = ref 0. in
    for i = 0 to k - 1 do
      z := !z +. exp (vals.(i) -. !m)
    done;
    !m +. log !z
  end

let add_scaled_grad s f y lambda r =
  let v = softmax_ws s f y in
  grad_ws s f;
  let sup = f.support in
  for a = 0 to Array.length sup - 1 do
    let j = sup.(a) in
    r.(j) <- r.(j) +. (lambda *. s.gtmp.(j))
  done;
  v

(* ------------------------------------------------------------------ *)
(* Constraint families (merged multi-scenario problems)                *)
(* ------------------------------------------------------------------ *)

(* Per-scenario copies of one constraint differ only in coefficients —
   corner merges scale RC products, budget factors scale whole
   constraints — while the exponent rows (and, thanks to the canonical
   compile order, the term order) are shared.  A family evaluates all
   members against one pass of term dot products and one pass of exp():

     member c value  = mbar + log sum_i ratio_c(i) E_i,
     E_i             = exp(member-0 term value - mbar),
     ratio_c(i)      = coef_c(i) / coef_0(i)   (precomputed at rescale),

   so the per-member work is multiply-adds, not transcendentals, and the
   Hessian term part sum_i (sum_c w_c p_ci) a_i a_i^T is accumulated once
   with combined weights.  Only the rank-one gradient outer products stay
   per-member.  This is exact — the same softmax up to roundoff — because
   the shift mbar cancels in every member's normalisation. *)
type family = {
  members : t array;
  ratio : float array array;  (* ratio.(c).(i); ratio.(0) is all ones *)
}

let same_structure a b =
  a.k = b.k && a.term_off = b.term_off && a.cols = b.cols && a.expo = b.expo

let family_refresh fam =
  let f0 = fam.members.(0) in
  Array.iteri
    (fun c fc ->
      let r = fam.ratio.(c) in
      for i = 0 to f0.k - 1 do
        r.(i) <- exp (fc.logc.(i) -. f0.logc.(i))
      done)
    fam.members

let family_of members =
  if Array.length members < 2 then None
  else if Array.for_all (fun f -> same_structure members.(0) f) members then begin
    let fam =
      { members; ratio = Array.map (fun f -> Array.make (max 1 f.k) 1.) members }
    in
    family_refresh fam;
    Some fam
  end
  else None

(* Term dot products -> E_i in [s.vals], per-member 1/Z in [s.zbuf] and
   values in [s.vbuf]; returns the worst (largest) member value. *)
let family_values s fam y =
  let f0 = fam.members.(0) in
  let k = f0.k in
  let nm = Array.length fam.members in
  ensure_terms s k;
  ensure_members s nm;
  let vals = s.vals in
  let m = ref neg_infinity in
  for i = 0 to k - 1 do
    let v = term_value f0 i y in
    vals.(i) <- v;
    if v > !m then m := v
  done;
  let mbar = !m in
  for i = 0 to k - 1 do
    vals.(i) <- exp (vals.(i) -. mbar)
  done;
  let worst = ref neg_infinity in
  for c = 0 to nm - 1 do
    let z = ref 0. in
    if c = 0 then
      for i = 0 to k - 1 do
        z := !z +. vals.(i)
      done
    else begin
      let r = fam.ratio.(c) in
      for i = 0 to k - 1 do
        z := !z +. (r.(i) *. vals.(i))
      done
    end;
    s.zbuf.(c) <- 1. /. !z;
    let v = mbar +. log !z in
    s.vbuf.(c) <- v;
    if v > !worst then worst := v
  done;
  !worst

let family_value_ws s fam y ~phi =
  let worst = family_values s fam y in
  if worst < 0. then begin
    let acc = ref 0. in
    for c = 0 to Array.length fam.members - 1 do
      acc := !acc -. log (-.s.vbuf.(c))
    done;
    phi := !phi +. !acc
  end;
  worst

let add_barrier_family s fam y h g ~phi =
  let worst = family_values s fam y in
  if worst >= 0. then worst
  else begin
    let f0 = fam.members.(0) in
    let k = f0.k in
    let nm = Array.length fam.members in
    let n = Vec.dim s.gtmp in
    let data = Mat.data h in
    let sup = f0.support in
    let wsum = s.wsum in
    for i = 0 to k - 1 do
      wsum.(i) <- 0.
    done;
    let acc_phi = ref 0. in
    for c = 0 to nm - 1 do
      let vc = s.vbuf.(c) in
      acc_phi := !acc_phi -. log (-.vc);
      let w = 1. /. -.vc in
      let invz = s.zbuf.(c) in
      let p = s.wtmp in
      if c = 0 then
        for i = 0 to k - 1 do
          p.(i) <- s.vals.(i) *. invz
        done
      else begin
        let r = fam.ratio.(c) in
        for i = 0 to k - 1 do
          p.(i) <- r.(i) *. s.vals.(i) *. invz
        done
      end;
      for i = 0 to k - 1 do
        wsum.(i) <- wsum.(i) +. (w *. p.(i))
      done;
      (* Member gradient over the shared support, then its barrier
         gradient and rank-one Hessian contributions. *)
      let gt = s.gtmp in
      for a = 0 to Array.length sup - 1 do
        gt.(sup.(a)) <- 0.
      done;
      for i = 0 to k - 1 do
        let pi = p.(i) in
        if pi > 0. then
          for r = f0.term_off.(i) to f0.term_off.(i + 1) - 1 do
            let j = f0.cols.(r) in
            gt.(j) <- gt.(j) +. (pi *. f0.expo.(r))
          done
      done;
      for a = 0 to Array.length sup - 1 do
        let j = sup.(a) in
        g.(j) <- g.(j) +. (w *. gt.(j))
      done;
      add_grad_outer_lower data n sup gt ((w *. w) -. w)
    done;
    (* Shared term-part Hessian with the combined weights, once for the
       whole family. *)
    add_term_outer_lower data n f0 wsum;
    phi := !phi +. !acc_phi;
    worst
  end
