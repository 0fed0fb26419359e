(* Unit + property tests: Smart_posy (monomials, posynomials, log-space). *)

module M = Smart_posy.Monomial
module P = Smart_posy.Posy
module L = Smart_posy.Logspace
module Vec = Smart_linalg.Vec
module Mat = Smart_linalg.Mat
module Err = Smart_util.Err
module Rng = Smart_util.Rng

let checkf msg = Alcotest.(check (float 1e-9)) msg
let checkb msg = Alcotest.(check bool) msg

let env_of l v = try List.assoc v l with Not_found -> Alcotest.fail ("unbound " ^ v)

(* ---------------- monomials ---------------- *)

let test_monomial_construction () =
  let m = M.make 2. [ ("x", 1.); ("y", -2.); ("x", 1.) ] in
  checkf "coeff" 2. (M.coeff m);
  checkf "x exponent merged" 2. (M.degree_of m "x");
  checkf "y exponent" (-2.) (M.degree_of m "y");
  checkf "absent" 0. (M.degree_of m "z")

let test_monomial_rejects_nonpositive () =
  Alcotest.check_raises "zero coeff"
    (Err.Smart_error "Monomial.make: coefficient 0 must be positive") (fun () ->
      ignore (M.make 0. []))

let test_monomial_zero_exponent_dropped () =
  let m = M.make 1. [ ("x", 1.); ("x", -1.) ] in
  checkb "const" true (M.is_const m)

let test_monomial_algebra () =
  let x = M.var "x" and y = M.var "y" in
  let m = M.mul (M.scale 3. x) (M.pow y 2.) in
  let env = env_of [ ("x", 2.); ("y", 3.) ] in
  checkf "3*x*y^2 at (2,3)" 54. (M.eval env m);
  checkf "inverse" (1. /. 54.) (M.eval env (M.inv m));
  checkf "division" 1. (M.eval env (M.div m m))

let test_monomial_subst () =
  (* substitute x := 2*y into x^2 -> 4 y^2 *)
  let m = M.pow (M.var "x") 2. in
  let m' = M.subst "x" (M.make 2. [ ("y", 1.) ]) m in
  checkf "subst" 36. (M.eval (env_of [ ("y", 3.) ]) m')

(* ---------------- posynomials ---------------- *)

let test_posy_merge_like_terms () =
  let p = P.of_monomials [ M.var "x"; M.var "x"; M.const 1. ] in
  Alcotest.(check int) "2 terms after merge" 2 (P.num_terms p);
  checkf "eval" 7. (P.eval (env_of [ ("x", 3.) ]) p)

let test_posy_add_mul () =
  let p = P.add (P.var "x") (P.const 1.) in
  let q = P.mul p p in
  (* (x+1)^2 = x^2 + 2x + 1 *)
  Alcotest.(check int) "3 terms" 3 (P.num_terms q);
  checkf "at x=2" 9. (P.eval (env_of [ ("x", 2.) ]) q)

let test_posy_pow_int () =
  let p = P.add (P.var "x") (P.var "y") in
  checkf "cube" 125. (P.eval (env_of [ ("x", 2.); ("y", 3.) ]) (P.pow_int p 3))

let test_posy_div_monomial () =
  let p = P.add (P.var "x") (P.const 2.) in
  let q = P.div_monomial p (M.var "x") in
  checkf "(x+2)/x at 2" 2. (P.eval (env_of [ ("x", 2.) ]) q)

let test_posy_as_monomial () =
  checkb "single" true (P.as_monomial (P.var "x") <> None);
  checkb "sum is not" true (P.as_monomial (P.add (P.var "x") (P.const 1.)) = None)

let test_posy_subst () =
  let p = P.add (P.var "x") (P.var "y") in
  let p' = P.subst "x" (M.make 2. [ ("y", 1.) ]) p in
  checkf "3y at y=4" 12. (P.eval (env_of [ ("y", 4.) ]) p')

let test_posy_subst_posy () =
  (* x + x^2 with x := (y + 1) -> y+1 + (y+1)^2 *)
  let p = P.add (P.var "x") (P.pow_int (P.var "x") 2) in
  let p' = P.subst_posy "x" (P.add (P.var "y") (P.const 1.)) p in
  checkf "at y=2" 12. (P.eval (env_of [ ("y", 2.) ]) p')

let test_posy_dominates () =
  let big = P.of_monomials [ M.make 3. [ ("x", 1.) ]; M.const 2. ] in
  let small = P.of_monomials [ M.make 1. [ ("x", 1.) ]; M.const 2. ] in
  checkb "big dominates small" true (P.dominates big small);
  checkb "small does not dominate big" false (P.dominates small big);
  checkb "missing term blocks domination" false
    (P.dominates big (P.var "zz"))

let test_posy_drop_tiny () =
  let p = P.of_monomials [ M.const 1.; M.make 1e-9 [ ("x", 1.) ] ] in
  Alcotest.(check int) "tiny dropped" 1 (P.num_terms (P.drop_tiny ~rel:1e-6 p));
  Alcotest.(check int) "kept when significant" 2
    (P.num_terms (P.drop_tiny ~rel:1e-12 p))

let test_posy_vars () =
  let p = P.of_monomials [ M.make 1. [ ("b", 1.); ("a", 2.) ]; M.var "c" ] in
  Alcotest.(check (list string)) "sorted vars" [ "a"; "b"; "c" ] (P.vars p)

(* ---------------- properties ---------------- *)

let random_posy rng nvars =
  let nterms = 1 + Rng.int rng 4 in
  P.of_monomials
    (List.init nterms (fun _ ->
         let c = Rng.uniform rng 0.1 5. in
         let exps =
           List.init (Rng.int rng nvars) (fun _ ->
               ( Printf.sprintf "v%d" (Rng.int rng nvars),
                 Rng.uniform rng (-2.) 2. ))
         in
         M.make c exps))

let random_env rng nvars =
  let vals = Array.init nvars (fun _ -> Rng.uniform rng 0.2 4.) in
  fun v -> vals.(int_of_string (String.sub v 1 (String.length v - 1)))

let prop_eval_add_homomorphism =
  QCheck.Test.make ~name:"eval (p+q) = eval p + eval q" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = random_posy rng 3 and q = random_posy rng 3 in
      let env = random_env rng 3 in
      abs_float (P.eval env (P.add p q) -. (P.eval env p +. P.eval env q)) < 1e-6)

let prop_eval_mul_homomorphism =
  QCheck.Test.make ~name:"eval (p*q) = eval p * eval q" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = random_posy rng 3 and q = random_posy rng 3 in
      let env = random_env rng 3 in
      let lhs = P.eval env (P.mul p q) and rhs = P.eval env p *. P.eval env q in
      abs_float (lhs -. rhs) /. (abs_float rhs +. 1e-9) < 1e-9)

let prop_dominates_pointwise =
  QCheck.Test.make ~name:"dominates implies pointwise >=" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = random_posy rng 3 in
      (* q = p with some coefficients shrunk: p must dominate q. *)
      let q =
        P.of_monomials
          (List.map
             (fun m ->
               M.make (M.coeff m *. Rng.uniform rng 0.2 1.0) (M.exponents m))
             (P.monomials p))
      in
      P.dominates p q
      &&
      let env = random_env rng 3 in
      P.eval env p >= P.eval env q -. 1e-9)

let prop_logspace_value =
  QCheck.Test.make ~name:"logspace value = log (eval)" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = random_posy rng 3 in
      let env = random_env rng 3 in
      let idx = L.index_of_vars [ "v0"; "v1"; "v2" ] in
      let f = L.compile idx p in
      let y = Vec.init 3 (fun i -> log (env (Printf.sprintf "v%d" i))) in
      abs_float (L.value f y -. log (P.eval env p)) < 1e-9)

let prop_logspace_gradient_fd =
  QCheck.Test.make ~name:"logspace gradient matches finite differences"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = random_posy rng 3 in
      let idx = L.index_of_vars [ "v0"; "v1"; "v2" ] in
      let f = L.compile idx p in
      let y = Vec.init 3 (fun _ -> Rng.uniform rng (-1.) 1.) in
      let _, g = L.value_grad f y in
      let h = 1e-6 in
      List.for_all
        (fun i ->
          let yp = Vec.copy y and ym = Vec.copy y in
          yp.(i) <- yp.(i) +. h;
          ym.(i) <- ym.(i) -. h;
          let fd = (L.value f yp -. L.value f ym) /. (2. *. h) in
          abs_float (fd -. g.(i)) < 1e-4)
        [ 0; 1; 2 ])

(* add_weighted_hessian writes the lower triangle only; the upper must
   stay untouched, and the symmetrized matrix must be PSD (logsumexp is
   convex).  Seeding the upper with garbage catches any accidental
   full-matrix write. *)
let prop_logspace_hessian_psd_lower =
  QCheck.Test.make ~name:"logsumexp Hessian is PSD, lower triangle only"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let p = random_posy rng 3 in
      let idx = L.index_of_vars [ "v0"; "v1"; "v2" ] in
      let f = L.compile idx p in
      let y = Vec.init 3 (fun _ -> Rng.uniform rng (-1.) 1.) in
      let h = Mat.create 3 3 in
      for i = 0 to 2 do
        for j = i + 1 to 2 do
          Mat.set h i j 999.
        done
      done;
      let _ = L.add_weighted_hessian f y 1. h in
      let upper_untouched = ref true in
      for i = 0 to 2 do
        for j = i + 1 to 2 do
          if Mat.get h i j <> 999. then upper_untouched := false
        done
      done;
      let d = Vec.init 3 (fun _ -> Rng.uniform rng (-1.) 1.) in
      let quad = ref 0. in
      for i = 0 to 2 do
        for j = 0 to 2 do
          let hij = if j <= i then Mat.get h i j else Mat.get h j i in
          quad := !quad +. (d.(i) *. hij *. d.(j))
        done
      done;
      !upper_untouched
      && !quad >= -1e-9
      && List.for_all (fun i -> Mat.get h i i >= -1e-9) [ 0; 1; 2 ])

(* ---------------- the compiled kernel vs the per-term reference ---------------- *)

(* A random program over four variables whose terms draw on a pool of six
   exponent rows, so constraints share rows; some constraints are
   "corner copies" of another (same rows, scaled coefficients).  Rows 0
   and 1 rise in [v0] with exponent at least 1 and the first constraint
   uses only them; [v3] appears only in the objective.  Exponents stay
   below 2 in magnitude. *)
let random_program rng =
  let exponent () = float_of_int (Rng.int rng 4 - 2) +. Rng.uniform rng 0.1 0.9 in
  let pool =
    Array.init 6 (fun r ->
        List.filter_map
          (fun v ->
            if v = "v0" && r < 2 then Some (v, Rng.uniform rng 1. 1.9)
            else if Rng.bool rng then Some (v, exponent ())
            else None)
          [ "v0"; "v1"; "v2" ])
  in
  let posy rows =
    P.of_monomials (List.map (fun r -> M.make (Rng.uniform rng 0.1 5.) pool.(r)) rows)
  in
  let pick () = List.sort_uniq compare (List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng 6)) in
  let objective =
    P.add (P.of_monomial (M.make (Rng.uniform rng 0.5 2.) [ ("v3", 1.) ])) (posy (pick ()))
  in
  let base = posy [ 0; 1 ] :: List.init (1 + Rng.int rng 4) (fun _ -> posy (pick ())) in
  let copies =
    List.concat_map
      (fun p -> if Rng.bool rng then [ P.scale (Rng.uniform rng 0.3 3.) p ] else [])
      base
  in
  (objective, Array.of_list (base @ copies))

(* Barrier value, gradient and lower-triangle Hessian summed term by term
   from [value_grad] / [add_weighted_hessian]; [None] when a constraint
   is violated. *)
let reference idx ~t objective cons y =
  let n = L.index_size idx in
  let h = Mat.create n n and g = Vec.create n in
  let f0 = L.compile idx objective in
  let v0, g0 = L.add_weighted_hessian f0 y t h in
  Vec.axpy t g0 g;
  let phi = ref (t *. v0) and feasible = ref true in
  Array.iter
    (fun p ->
      let f = L.compile idx p in
      let v = L.value f y in
      if v >= 0. then feasible := false
      else begin
        let w = 1. /. -.v in
        let _, gk = L.add_weighted_hessian f y w h in
        Vec.axpy w gk g;
        phi := !phi -. log (-.v);
        for a = 0 to n - 1 do
          for b = 0 to a do
            Mat.add_to h a b (w *. w *. gk.(a) *. gk.(b))
          done
        done
      end)
    cons;
  if !feasible then Some (!phi, g, h) else None

(* Largest difference relative to the reference's largest magnitude (at
   least 1). *)
let rel_diff got want =
  let num = ref 0. and den = ref 1. in
  Array.iteri
    (fun i x ->
      num := Float.max !num (Float.abs (x -. want.(i)));
      den := Float.max !den (Float.abs want.(i)))
    got;
  !num /. !den

(* The kernel on [prog] at [y] against the reference on the posynomials
   it compiles: infeasible on both sides, or equal within 1e-10. *)
let kernel_matches idx prog ~t objective cons y =
  let kn = L.kernel prog in
  let phi = L.barrier kn ~t y in
  match reference idx ~t objective cons y with
  | None -> phi = infinity
  | Some (phi_ref, g_ref, h_ref) ->
    let n = L.index_size idx in
    let h = Mat.create n n and g = Vec.create n in
    L.assemble kn ~t h g;
    let worst = Array.fold_left (fun acc p -> Float.max acc (L.value (L.compile idx p) y)) neg_infinity cons in
    rel_diff [| phi |] [| phi_ref |] <= 1e-10
    && rel_diff g g_ref <= 1e-10
    && rel_diff (Mat.data h) (Mat.data h_ref) <= 1e-10
    && Float.abs (L.evaluate kn y -. worst) <= 1e-10 *. Float.max 1. (Float.abs worst)

(* Points of three kinds: ordinary; [v3] at ~700, whose objective row
   forces the overflow shift and sends every constraint sum below the
   safe range (the per-constraint fallback); and [v0] at -250, which
   underflows rows 0 and 1, and so the first constraint's sum, without
   any shift.  Budgets are
   rescaled so each constraint sits at a random margin below its limit —
   one above it for an infeasible case.  The relaxed phase-I program is
   checked at the same point with a slack above (or below) the worst
   constraint. *)
let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"kernel = per-term reference (plain, phase I)" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let objective, cons = random_program rng in
      let names = [ "v0"; "v1"; "v2"; "v3" ] in
      let idx = L.index_of_vars names in
      let y = Vec.init 4 (fun _ -> Rng.uniform rng (-1.) 1.) in
      (match Rng.int rng 3 with
      | 0 -> y.(3) <- Rng.uniform rng 650. 750.
      | 1 -> y.(0) <- Rng.uniform rng (-260.) (-240.)
      | _ -> ());
      let infeasible = Rng.int rng 5 = 0 in
      let bad = Rng.int rng (Array.length cons) in
      let scales =
        Array.mapi
          (fun k p ->
            let margin =
              if infeasible && k = bad then -.Rng.uniform rng 0.01 1.
              else Rng.uniform rng 0.05 3.
            in
            exp (-.(L.value (L.compile idx p) y +. margin)))
          cons
      in
      let scaled = Array.mapi (fun k p -> P.scale scales.(k) p) cons in
      let prog = L.program idx ~objective cons in
      (* A first random rescale, then the absolute one the check uses. *)
      Array.iteri (fun k _ -> L.rescale prog k (Rng.uniform rng 0.5 2.)) cons;
      Array.iteri (fun k s -> L.rescale prog k s) scales;
      let t = Rng.uniform rng 0.1 100. in
      let plain = kernel_matches idx prog ~t objective scaled y in
      (* Phase I: f_k / s <= 1 for a slack s, objective s, 1e-9 <= s <= 1e12. *)
      let lo = 1e-9 and hi = 1e12 in
      let idx1 = L.index_of_vars (names @ [ "s" ]) in
      let inv_s = M.make 1. [ ("s", -1.) ] in
      let cons1 =
        Array.append
          (Array.map (fun p -> P.mul_monomial p inv_s) scaled)
          [| P.of_monomial (M.make lo [ ("s", -1.) ]); P.of_monomial (M.make (1. /. hi) [ ("s", 1.) ]) |]
      in
      let worst = Array.fold_left (fun acc p -> Float.max acc (L.value (L.compile idx p) y)) neg_infinity scaled in
      let y1 = Vec.init 5 (fun i -> if i < 4 then y.(i) else 0.) in
      y1.(4) <- (worst +. if Rng.int rng 5 = 0 then -.Rng.uniform rng 0.01 1. else Rng.uniform rng 0.05 2.);
      let relaxed = kernel_matches idx1 (L.relax prog ~lo ~hi) ~t (P.var "s") cons1 y1 in
      plain && relaxed)

let () =
  Alcotest.run "smart_posy"
    [
      ( "monomial",
        [
          Alcotest.test_case "construction" `Quick test_monomial_construction;
          Alcotest.test_case "positivity" `Quick test_monomial_rejects_nonpositive;
          Alcotest.test_case "zero exponents" `Quick test_monomial_zero_exponent_dropped;
          Alcotest.test_case "algebra" `Quick test_monomial_algebra;
          Alcotest.test_case "substitution" `Quick test_monomial_subst;
        ] );
      ( "posynomial",
        [
          Alcotest.test_case "like terms merge" `Quick test_posy_merge_like_terms;
          Alcotest.test_case "add/mul" `Quick test_posy_add_mul;
          Alcotest.test_case "integer power" `Quick test_posy_pow_int;
          Alcotest.test_case "monomial division" `Quick test_posy_div_monomial;
          Alcotest.test_case "as_monomial" `Quick test_posy_as_monomial;
          Alcotest.test_case "monomial subst" `Quick test_posy_subst;
          Alcotest.test_case "posynomial subst" `Quick test_posy_subst_posy;
          Alcotest.test_case "dominance" `Quick test_posy_dominates;
          Alcotest.test_case "drop_tiny" `Quick test_posy_drop_tiny;
          Alcotest.test_case "vars" `Quick test_posy_vars;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_eval_add_homomorphism;
            prop_eval_mul_homomorphism;
            prop_dominates_pointwise;
            prop_logspace_value;
            prop_logspace_gradient_fd;
            prop_logspace_hessian_psd_lower;
            prop_kernel_matches_reference;
          ] );
    ]
