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

(* Exponent row of a monomial against the index: (column, exponent)
   pairs sorted by column, so the lower-triangle writes over a row's
   pairs ([rb <= ra]) always land at or below the diagonal. *)
let row_of idx m =
  Monomial.exponents m
  |> List.map (fun (v, e) -> (index_position idx v, e))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> Array.of_list

(* Per-term compiled form in flat CSR layout: term [i] owns the
   log-coefficient [logc.(i)] and the exponent row
   [cols/expo.(term_off.(i) .. term_off.(i+1) - 1)].  The allocating
   reference evaluation; the solver runs on {!program}. *)
type t = {
  k : int;  (* number of terms *)
  logc : float array;
  term_off : int array;  (* length k+1 *)
  cols : int array;
  expo : float array;
  support : int array;  (* sorted distinct column indices *)
}

let compile idx p =
  let ms = Array.of_list (Posy.monomials p) in
  let rows = Array.map (row_of idx) ms in
  let term_off = Array.make (Array.length ms + 1) 0 in
  Array.iteri (fun i r -> term_off.(i + 1) <- term_off.(i) + Array.length r) rows;
  let flat = Array.concat (Array.to_list rows) in
  let cols = Array.map fst flat in
  {
    k = Array.length ms;
    logc = Array.map (fun m -> log (Monomial.coeff m)) ms;
    term_off;
    cols;
    expo = Array.map snd flat;
    support = Array.to_list cols |> List.sort_uniq compare |> Array.of_list;
  }

let term_value f i y =
  let acc = ref f.logc.(i) in
  for r = f.term_off.(i) to f.term_off.(i + 1) - 1 do
    acc := !acc +. (f.expo.(r) *. y.(f.cols.(r)))
  done;
  !acc

(* Stable logsumexp with softmax weights. *)
let softmax f y =
  let vals = Array.init f.k (fun i -> term_value f i y) in
  let m = Array.fold_left max neg_infinity vals in
  let exps = Array.map (fun v -> exp (v -. m)) vals in
  let z = Array.fold_left ( +. ) 0. exps in
  let value = m +. log z in
  let probs = Array.map (fun e -> e /. z) exps in
  (value, probs)

let value f y = fst (softmax f y)

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
     upper.  Both parts touch only the posynomial's support. *)
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
(* Programs over a monomial basis (the solver's hot path)              *)
(* ------------------------------------------------------------------ *)

(* F_k(y) = log (C_k . exp (A y)) + log_scale_k.  A holds each distinct
   exponent row once, in CSR over [row_off]/[row_col]/[row_exp].  Slot
   [k] of C owns the entries [con_off.(k) .. con_off.(k+1) - 1], each a
   basis row with its coefficient, sorted by row.  Slot 0 is the
   objective and slot [k + 1] constraint [k].  A generated program
   repeats one stage's delay in every path through that stage, so the
   basis is far smaller than the term count, and the scenario copies of
   a constraint reference the same rows.

   The multi-term slots are grouped by support: class [c] owns the slots
   [cls_slot.(cls_off.(c) .. cls_off.(c+1) - 1)] and the sorted columns
   [cls_sup.(sup_off.(c) .. sup_off.(c+1) - 1)] they all touch, so the
   rank-one Hessian updates of one class (the corner copies of a
   constraint, at the least) share one sweep over its lower triangle. *)
type program = {
  n : int;
  row_off : int array;
  row_col : int array;
  row_exp : float array;
  con_off : int array;
  ent_row : int array;
  ent_coef : float array;
  ent_logc : float array;  (* log ent_coef, for the per-slot fallback *)
  cls_off : int array;
  cls_slot : int array;
  sup_off : int array;
  cls_sup : int array;
  log_scale : float array;  (* per slot; slot 0 is never rescaled *)
}

let flatten parts =
  let off = Array.make (Array.length parts + 1) 0 in
  Array.iteri (fun i r -> off.(i + 1) <- off.(i) + Array.length r) parts;
  (off, Array.concat (Array.to_list parts))

let csr parts =
  let off, flat = flatten parts in
  (off, Array.map fst flat, Array.map snd flat)

module Supports = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 64
end)

let program idx ~objective cons =
  let n = index_size idx in
  let basis = Hashtbl.create 256 and rows = ref [] in
  let intern m =
    let key = Monomial.exponents m in
    match Hashtbl.find_opt basis key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length basis in
      Hashtbl.add basis key id;
      rows := row_of idx m :: !rows;
      id
  in
  let slots =
    Array.map
      (fun p ->
        List.map (fun m -> (intern m, Monomial.coeff m)) (Posy.monomials p)
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> Array.of_list)
      (Array.append [| objective |] cons)
  in
  let row_off, row_col, row_exp = csr (Array.of_list (List.rev !rows)) in
  let con_off, ent_row, ent_coef = csr slots in
  (* Support classes of the multi-term slots, in first-appearance order. *)
  let stamp = Array.make (max 1 n) (-1) in
  let ids = Supports.create 256 and sups = ref [] and members = ref [] in
  Array.iteri
    (fun k ents ->
      if Array.length ents > 1 then begin
        let cols = ref [] in
        Array.iter
          (fun (r, _) ->
            for x = row_off.(r) to row_off.(r + 1) - 1 do
              let j = row_col.(x) in
              if stamp.(j) <> k then begin
                stamp.(j) <- k;
                cols := j :: !cols
              end
            done)
          ents;
        let sup = Array.of_list (List.sort Int.compare !cols) in
        let c =
          match Supports.find_opt ids sup with
          | Some c -> c
          | None ->
            let c = Supports.length ids in
            Supports.add ids sup c;
            sups := sup :: !sups;
            c
        in
        members := (c, k) :: !members
      end)
    slots;
  let by_class = Array.make (Supports.length ids) [] in
  List.iter (fun (c, k) -> by_class.(c) <- k :: by_class.(c)) !members;
  let cls_off, cls_slot = flatten (Array.map Array.of_list by_class) in
  let sup_off, cls_sup = flatten (Array.of_list (List.rev !sups)) in
  {
    n;
    row_off;
    row_col;
    row_exp;
    con_off;
    ent_row;
    ent_coef;
    ent_logc = Array.map log ent_coef;
    cls_off;
    cls_slot;
    sup_off;
    cls_sup;
    log_scale = Array.make (Array.length slots) 0.;
  }

let dim p = p.n
let rows p = Array.length p.row_off - 1
let terms p = Array.length p.ent_row
let constraints p = Array.length p.con_off - 2

let rescale p k s =
  if not (s > 0.) then Err.fail "Logspace.rescale: non-positive factor %g" s;
  p.log_scale.(k + 1) <- log s

let slot_rows p k = Array.sub p.ent_row p.con_off.(k + 1) (p.con_off.(k + 2) - p.con_off.(k + 1))
let same_rows p j k = slot_rows p j = slot_rows p k

let relax p ~lo ~hi =
  let n = p.n and nr = rows p and m = constraints p in
  (* Row [r] gains the slack column [n], which sorts last, with exponent
     -1; row [nr] is the slack itself (objective, upper bound), row
     [nr + 1] its inverse (lower bound). *)
  let nnz = Array.length p.row_col in
  let row_off =
    Array.init (nr + 3) (fun r -> if r <= nr then p.row_off.(r) + r else nnz + r)
  in
  let row_col = Array.make (nnz + nr + 2) n and row_exp = Array.make (nnz + nr + 2) (-1.) in
  for r = 0 to nr - 1 do
    let len = p.row_off.(r + 1) - p.row_off.(r) in
    Array.blit p.row_col p.row_off.(r) row_col row_off.(r) len;
    Array.blit p.row_exp p.row_off.(r) row_exp row_off.(r) len
  done;
  row_exp.(row_off.(nr)) <- 1.;
  (* The objective becomes the slack; the constraints keep their entries
     and scales; the slack bounds follow as slots [m + 1], [m + 2]. *)
  let e0 = p.con_off.(1) and ne = terms p in
  let ents a first last = Array.concat [ [| first |]; Array.sub a e0 (ne - e0); last ] in
  let con_off =
    Array.init (m + 4) (fun k ->
        if k = 0 then 0 else if k <= m + 1 then p.con_off.(k) - e0 + 1 else ne - e0 + k - m)
  in
  (* Classes lose the old objective; supports gain the slack column. *)
  let classes =
    List.filter_map
      (fun c ->
        let ks =
          Array.to_list (Array.sub p.cls_slot p.cls_off.(c) (p.cls_off.(c + 1) - p.cls_off.(c)))
          |> List.filter (fun k -> k > 0)
        in
        let sup = Array.sub p.cls_sup p.sup_off.(c) (p.sup_off.(c + 1) - p.sup_off.(c)) in
        if ks = [] then None else Some (Array.of_list ks, Array.append sup [| n |]))
      (List.init (Array.length p.cls_off - 1) Fun.id)
    |> Array.of_list
  in
  let cls_off, cls_slot = flatten (Array.map fst classes) in
  let sup_off, cls_sup = flatten (Array.map snd classes) in
  {
    n = n + 1;
    row_off;
    row_col;
    row_exp;
    con_off;
    ent_row = ents p.ent_row nr [| nr + 1; nr |];
    ent_coef = ents p.ent_coef 1. [| lo; 1. /. hi |];
    ent_logc = ents p.ent_logc 0. [| log lo; log (1. /. hi) |];
    cls_off;
    cls_slot;
    sup_off;
    cls_sup;
    log_scale = Array.concat [ [| 0. |]; Array.sub p.log_scale 1 m; [| 0.; 0. |] ];
  }

(* Evaluation state.  [eval_rows] fills u = A y and one shared
   e_r = exp (u_r - shift) per row; [eval_slot] turns them into F_k.  A
   slot whose sum leaves the safe range (every term underflowed, or an
   overflow) is summed again from [u] under its own max shift, and
   [own] records that shift ([nan] while the shared exponentials are in
   use).  [f], [zinv] and [own] describe the last point evaluated; the
   assembly reads them, so the solver assembles at the point its line
   search last accepted without evaluating it again. *)
type kernel = {
  p : program;
  u : float array;  (* rows *)
  e : float array;  (* rows *)
  wsum : float array;  (* rows: multi-term weight, in gradient and Hessian *)
  wg : float array;  (* rows: single-term gradient weight *)
  wh : float array;  (* rows: single-term Hessian weight *)
  f : float array;  (* slots *)
  zinv : float array;  (* slots: 1 / sum of the slot's scaled terms *)
  own : float array;  (* slots: fallback shift, or nan *)
  gbuf : float array;  (* n: one slot's gradient, scattered *)
  gs : float array;  (* a class's gradients over its support, interleaved *)
  coef : float array;  (* a class's rank-one coefficients *)
  ca : float array;  (* coef times one support column's gradients *)
  shift : float array;  (* [| the shared exponentials' shift |] *)
}

let kernel p =
  let nr = rows p and ns = Array.length p.con_off - 1 in
  let widest = ref 1 and members = ref 1 in
  for c = 0 to Array.length p.cls_off - 2 do
    let nj = p.cls_off.(c + 1) - p.cls_off.(c) in
    members := max !members nj;
    widest := max !widest (nj * (p.sup_off.(c + 1) - p.sup_off.(c)))
  done;
  {
    p;
    u = Array.make nr 0.;
    e = Array.make nr 0.;
    wsum = Array.make nr 0.;
    wg = Array.make nr 0.;
    wh = Array.make nr 0.;
    f = Array.make ns 0.;
    zinv = Array.make ns 0.;
    own = Array.make ns nan;
    gbuf = Array.make (max 1 p.n) 0.;
    gs = Array.make !widest 0.;
    coef = Array.make !members 0.;
    ca = Array.make !members 0.;
    shift = [| 0. |];
  }

(* Row values above this shift the shared exponentials down (no
   overflow); below it they are taken unshifted, which keeps a slot's
   log-sum free of cancellation against the shift. *)
let shift_above = 600.

(* Sums outside [tiny, infinity) go to the per-slot fallback: a sum this
   small may have lost terms to underflow. *)
let tiny = 1e-100

let eval_rows kn y =
  let p = kn.p and u = kn.u and e = kn.e in
  let umax = ref neg_infinity in
  for r = 0 to Array.length u - 1 do
    let acc = ref 0. in
    for q = p.row_off.(r) to p.row_off.(r + 1) - 1 do
      acc := !acc +. (p.row_exp.(q) *. y.(p.row_col.(q)))
    done;
    u.(r) <- !acc;
    if !acc > !umax then umax := !acc
  done;
  let s = if !umax > shift_above then !umax else 0. in
  kn.shift.(0) <- s;
  for r = 0 to Array.length u - 1 do
    e.(r) <- exp (u.(r) -. s)
  done

(* F_k into [kn.f.(k)]: a single-term slot is affine in y and needs no
   exponential at all. *)
let eval_slot kn k =
  let p = kn.p in
  let t0 = p.con_off.(k) and t1 = p.con_off.(k + 1) in
  if t1 - t0 = 1 then
    kn.f.(k) <- p.ent_logc.(t0) +. kn.u.(p.ent_row.(t0)) +. p.log_scale.(k)
  else begin
    let z = ref 0. in
    for q = t0 to t1 - 1 do
      z := !z +. (p.ent_coef.(q) *. kn.e.(p.ent_row.(q)))
    done;
    if !z >= tiny && !z < infinity then begin
      kn.own.(k) <- nan;
      kn.zinv.(k) <- 1. /. !z;
      kn.f.(k) <- kn.shift.(0) +. log !z +. p.log_scale.(k)
    end
    else begin
      let m = ref neg_infinity in
      for q = t0 to t1 - 1 do
        let v = p.ent_logc.(q) +. kn.u.(p.ent_row.(q)) in
        if v > !m then m := v
      done;
      let z = ref 0. in
      for q = t0 to t1 - 1 do
        z := !z +. exp (p.ent_logc.(q) +. kn.u.(p.ent_row.(q)) -. !m)
      done;
      kn.own.(k) <- !m;
      kn.zinv.(k) <- 1. /. !z;
      kn.f.(k) <- !m +. log !z +. p.log_scale.(k)
    end
  end

let evaluate kn y =
  eval_rows kn y;
  let worst = ref neg_infinity in
  for k = 1 to Array.length kn.f - 1 do
    eval_slot kn k;
    let v = if Float.is_nan kn.f.(k) then infinity else kn.f.(k) in
    if v > !worst then worst := v
  done;
  !worst

let constraint_value kn k = kn.f.(k + 1)

let barrier kn ~t y =
  eval_rows kn y;
  eval_slot kn 0;
  let phi = ref (t *. kn.f.(0)) in
  let k = ref 1 and ns = Array.length kn.f in
  while !k < ns do
    eval_slot kn !k;
    let v = kn.f.(!k) in
    if v < 0. then begin
      phi := !phi -. log (-.v);
      incr k
    end
    else begin
      phi := infinity;
      k := ns
    end
  done;
  !phi

(* The objective enters as t F_0; a barrier term -log(-F_k) has
   gradient w g_k and Hessian w hess F_k + w^2 g_k g_k^T with
   w = 1/(-F_k), where hess F_k = sum_q p_q a_q a_q^T - g_k g_k^T.  A
   single-term F_k is affine: g_k = a_r and hess F_k = 0. *)
let assemble kn ~t h g =
  let p = kn.p in
  let n = p.n and data = Mat.data h in
  let wsum = kn.wsum and wg = kn.wg and wh = kn.wh in
  let gbuf = kn.gbuf and gs = kn.gs and coef = kn.coef and ca = kn.ca in
  let sup = p.cls_sup in
  Array.fill wsum 0 (Array.length wsum) 0.;
  Array.fill wg 0 (Array.length wg) 0.;
  Array.fill wh 0 (Array.length wh) 0.;
  for k = 0 to Array.length kn.f - 1 do
    let t0 = p.con_off.(k) in
    if p.con_off.(k + 1) - t0 = 1 then begin
      let r = p.ent_row.(t0) in
      if k = 0 then wg.(r) <- wg.(r) +. t
      else begin
        let w = 1. /. -.kn.f.(k) in
        wg.(r) <- wg.(r) +. w;
        wh.(r) <- wh.(r) +. (w *. w)
      end
    end
  done;
  for c = 0 to Array.length p.cls_off - 2 do
    let s0 = p.sup_off.(c) and ns = p.sup_off.(c + 1) - p.sup_off.(c) in
    let k0 = p.cls_off.(c) and nj = p.cls_off.(c + 1) - p.cls_off.(c) in
    (* Each member's softmax weights go to the rows; its gradient g_k is
       scattered into [gbuf], then gathered as column [j] of [gs]. *)
    for j = 0 to nj - 1 do
      let k = p.cls_slot.(k0 + j) in
      let w = if k = 0 then t else 1. /. -.kn.f.(k) in
      coef.(j) <- (if k = 0 then -.t else (w *. w) -. w);
      for a = s0 to s0 + ns - 1 do
        gbuf.(sup.(a)) <- 0.
      done;
      let zinv = kn.zinv.(k) and own = kn.own.(k) in
      for q = p.con_off.(k) to p.con_off.(k + 1) - 1 do
        let r = p.ent_row.(q) in
        let pr =
          if Float.is_nan own then p.ent_coef.(q) *. kn.e.(r) *. zinv
          else exp (p.ent_logc.(q) +. kn.u.(r) -. own) *. zinv
        in
        wsum.(r) <- wsum.(r) +. (w *. pr);
        for x = p.row_off.(r) to p.row_off.(r + 1) - 1 do
          let col = p.row_col.(x) in
          gbuf.(col) <- gbuf.(col) +. (pr *. p.row_exp.(x))
        done
      done;
      for a = 0 to ns - 1 do
        gs.((a * nj) + j) <- gbuf.(sup.(s0 + a))
      done
    done;
    (* sum_j coef_j g_j g_j^T, one sweep over the class's lower triangle. *)
    for a = 0 to ns - 1 do
      for j = 0 to nj - 1 do
        ca.(j) <- coef.(j) *. gs.((a * nj) + j)
      done;
      let row = sup.(s0 + a) * n in
      for b = 0 to a do
        let acc = ref 0. and base = b * nj in
        for j = 0 to nj - 1 do
          acc := !acc +. (ca.(j) *. gs.(base + j))
        done;
        let i = row + sup.(s0 + b) in
        data.(i) <- data.(i) +. !acc
      done
    done
  done;
  (* Gradient and term-part Hessian, once per basis row. *)
  for r = 0 to Array.length wsum - 1 do
    let c0 = p.row_off.(r) and c1 = p.row_off.(r + 1) - 1 in
    let wgr = wsum.(r) +. wg.(r) and whr = wsum.(r) +. wh.(r) in
    for a = c0 to c1 do
      let ja = p.row_col.(a) and ea = p.row_exp.(a) in
      g.(ja) <- g.(ja) +. (wgr *. ea);
      if whr <> 0. then begin
        let row = ja * n and wa = whr *. ea in
        for b = c0 to a do
          let i = row + p.row_col.(b) in
          data.(i) <- data.(i) +. (wa *. p.row_exp.(b))
        done
      end
    done
  done
