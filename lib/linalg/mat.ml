module Err = Smart_util.Err

(* Row-major contiguous storage: element (i,j) at [data.(i*cols + j)]. *)
type t = { rows : int; cols : int; data : float array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0. }

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let identity n = init n n (fun i j -> if i = j then 1. else 0.)
let dims m = (m.rows, m.cols)
let get m i j = m.data.((i * m.cols) + j)
let set m i j x = m.data.((i * m.cols) + j) <- x
let add_to m i j x = m.data.((i * m.cols) + j) <- m.data.((i * m.cols) + j) +. x
let copy m = { m with data = Array.copy m.data }
let data m = m.data
let fill m x = Array.fill m.data 0 (Array.length m.data) x

let blit src dst =
  if src.rows <> dst.rows || src.cols <> dst.cols then
    Err.fail "Mat.blit: dimension mismatch";
  Array.blit src.data 0 dst.data 0 (Array.length src.data)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let matvec_into m v out =
  if Vec.dim v <> m.cols || Vec.dim out <> m.rows then
    Err.fail "Mat.matvec_into: %dx%d matrix, %d-vector in, %d-vector out" m.rows
      m.cols (Vec.dim v) (Vec.dim out);
  let d = m.data in
  for i = 0 to m.rows - 1 do
    let row = i * m.cols in
    let acc = ref 0. in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (d.(row + j) *. v.(j))
    done;
    out.(i) <- !acc
  done

let matvec m v =
  let out = Vec.create m.rows in
  matvec_into m v out;
  out

(* Symmetric matvec reading only the lower triangle: each subdiagonal
   element a(i,j) contributes to both y(i) and y(j), so matrices whose
   upper triangle is stale (the solver's Hessians, Cholesky workspaces)
   multiply correctly. *)
let symv_lower_into m x y =
  if m.rows <> m.cols || Vec.dim x <> m.cols || Vec.dim y <> m.rows then
    Err.fail "Mat.symv_lower_into: dimension mismatch";
  let n = m.rows in
  let d = m.data in
  Array.fill y 0 n 0.;
  for i = 0 to n - 1 do
    let row = i * n in
    let xi = x.(i) in
    let acc = ref (d.(row + i) *. xi) in
    for j = 0 to i - 1 do
      let a = d.(row + j) in
      acc := !acc +. (a *. x.(j));
      y.(j) <- y.(j) +. (a *. xi)
    done;
    y.(i) <- y.(i) +. !acc
  done

let matmul a b =
  if a.cols <> b.rows then
    Err.fail "Mat.matmul: %dx%d times %dx%d" a.rows a.cols b.rows b.cols;
  init a.rows b.cols (fun i j ->
      let acc = ref 0. in
      for k = 0 to a.cols - 1 do
        acc := !acc +. (get a i k *. get b k j)
      done;
      !acc)

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then Err.fail "Mat.add: dimension mismatch";
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

let rank1_update m a v =
  if m.rows <> m.cols || m.rows <> Vec.dim v then
    Err.fail "Mat.rank1_update: dimension mismatch";
  for i = 0 to m.rows - 1 do
    let avi = a *. v.(i) in
    if avi <> 0. then
      for j = 0 to m.cols - 1 do
        m.data.((i * m.cols) + j) <- m.data.((i * m.cols) + j) +. (avi *. v.(j))
      done
  done

(* In-place lower Cholesky: overwrites the lower triangle of [m] with L,
   reading each a(i,j) before it is overwritten.  The (stale) upper triangle
   is left untouched — the substitution routines only read the lower part.
   Returns false when the matrix is not numerically SPD. *)
let cholesky_inplace m =
  if m.rows <> m.cols then Err.fail "Mat.cholesky_inplace: non-square";
  let n = m.rows in
  let d = m.data in
  let ok = ref true in
  (try
     for i = 0 to n - 1 do
       for j = 0 to i do
         let sum = ref d.((i * n) + j) in
         for k = 0 to j - 1 do
           sum := !sum -. (d.((i * n) + k) *. d.((j * n) + k))
         done;
         if i = j then begin
           if !sum <= 0. || Float.is_nan !sum then begin
             ok := false;
             raise Exit
           end;
           d.((i * n) + j) <- sqrt !sum
         end
         else d.((i * n) + j) <- !sum /. d.((j * n) + j)
       done
     done
   with Exit -> ());
  !ok

let cholesky m =
  if m.rows <> m.cols then Err.fail "Mat.cholesky: non-square";
  let l = copy m in
  if not (cholesky_inplace l) then None
  else begin
    (* Public factor keeps the conventional zero upper triangle. *)
    for i = 0 to l.rows - 1 do
      for j = i + 1 to l.cols - 1 do
        set l i j 0.
      done
    done;
    Some l
  end

(* The substitutions index [l.data] directly, as [cholesky_inplace]
   does: a float returned through [get] is boxed, which on the Newton hot
   path would allocate ~2n^2 words per solve. *)
let forward_subst_into l b y =
  let n = Vec.dim b in
  let d = l.data and c = l.cols in
  for i = 0 to n - 1 do
    let row = i * c in
    let sum = ref b.(i) in
    for k = 0 to i - 1 do
      sum := !sum -. (d.(row + k) *. y.(k))
    done;
    y.(i) <- !sum /. d.(row + i)
  done

let forward_subst l b =
  let y = Vec.create (Vec.dim b) in
  forward_subst_into l b y;
  y

let backward_subst_t_into l y x =
  (* Solves L^T x = y given lower-triangular L. *)
  let n = Vec.dim y in
  let d = l.data and c = l.cols in
  for i = n - 1 downto 0 do
    let sum = ref y.(i) in
    for k = i + 1 to n - 1 do
      sum := !sum -. (d.((k * c) + i) *. x.(k))
    done;
    x.(i) <- !sum /. d.((i * c) + i)
  done

let backward_subst_t l y =
  let x = Vec.create (Vec.dim y) in
  backward_subst_t_into l y x;
  x

let cholesky_solve a b =
  match cholesky a with
  | None -> None
  | Some l -> Some (backward_subst_t l (forward_subst l b))

(* Allocation-free ridge solve: [work] holds the factor (destroyed), [tmp]
   the forward-substitution intermediate, [x] the result.  On factorisation
   failure the original [a] is re-copied into [work] with a larger ridge, so
   [a] itself is never modified. *)
let solve_spd_ridge_into ?hint ~work ~tmp a b x =
  if a.rows <> a.cols then Err.fail "Mat.solve_spd_ridge_into: non-square";
  if work.rows <> a.rows || work.cols <> a.cols then
    Err.fail "Mat.solve_spd_ridge_into: workspace dimension mismatch";
  let n = a.rows in
  (* Ridge escalation must be relative to the matrix scale: barrier
     Hessians near a constraint boundary carry entries ~1/slack^2 (1e20
     and beyond), where any absolute ridge is noise.  A shift of
     n x (max diagonal) makes the matrix diagonally dominant, hence SPD,
     so the relative cap always terminates on finite input. *)
  let scale = ref 0. in
  for i = 0 to n - 1 do
    let d = abs_float a.data.((i * n) + i) in
    if d > !scale then scale := d
  done;
  let scale = Float.max !scale 1. in
  let rec attempt ridge =
    Array.blit a.data 0 work.data 0 (Array.length a.data);
    if ridge > 0. then
      for i = 0 to n - 1 do
        add_to work i i ridge
      done;
    if cholesky_inplace work then begin
      (match hint with Some h -> h := ridge | None -> ());
      forward_subst_into work b tmp;
      backward_subst_t_into work tmp x
    end
    else if ridge > 10. *. float_of_int n *. scale then
      Err.fail "Mat.solve_spd_ridge: cannot regularise"
    else if ridge = 0. then attempt (1e-12 *. scale)
    else attempt (ridge *. 100.)
  in
  (* Near-degenerate barrier Hessians fail at small ridges on every
     Newton step; re-discovering the workable shift from zero costs a
     full wasted factorisation per rung.  The hint carries the previous
     step's successful ridge, and restarting one rung below it keeps the
     regularisation as light as the matrix allows while paying for at
     most two factorisations in the steady state. *)
  match hint with
  | Some h when !h > 0. -> attempt (Float.max (!h /. 100.) (1e-12 *. scale))
  | _ -> attempt 0.

let solve_spd_ridge a b =
  let work = create a.rows a.cols in
  let tmp = Vec.create a.rows in
  let x = Vec.create a.rows in
  solve_spd_ridge_into ~work ~tmp a b x;
  x

let lu_solve a b =
  if a.rows <> a.cols || a.rows <> Vec.dim b then
    Err.fail "Mat.lu_solve: dimension mismatch";
  let n = a.rows in
  let m = copy a in
  let x = Vec.copy b in
  let singular = ref false in
  (try
     for col = 0 to n - 1 do
       (* Partial pivoting. *)
       let piv = ref col in
       for i = col + 1 to n - 1 do
         if abs_float (get m i col) > abs_float (get m !piv col) then piv := i
       done;
       if abs_float (get m !piv col) < 1e-300 then begin
         singular := true;
         raise Exit
       end;
       if !piv <> col then begin
         for j = 0 to n - 1 do
           let tmp = get m col j in
           set m col j (get m !piv j);
           set m !piv j tmp
         done;
         let tmp = x.(col) in
         x.(col) <- x.(!piv);
         x.(!piv) <- tmp
       end;
       for i = col + 1 to n - 1 do
         let f = get m i col /. get m col col in
         if f <> 0. then begin
           for j = col to n - 1 do
             set m i j (get m i j -. (f *. get m col j))
           done;
           x.(i) <- x.(i) -. (f *. x.(col))
         end
       done
     done;
     for i = n - 1 downto 0 do
       let sum = ref x.(i) in
       for j = i + 1 to n - 1 do
         sum := !sum -. (get m i j *. x.(j))
       done;
       x.(i) <- !sum /. get m i i
     done
   with Exit -> ());
  if !singular then None else Some x

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      Format.fprintf ppf "%8.4g%s" (get m i j) (if j < m.cols - 1 then " " else "")
    done;
    Format.fprintf ppf "]@,"
  done;
  Format.fprintf ppf "@]"
