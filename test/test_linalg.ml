(* Unit + property tests: Smart_linalg (vectors, matrices, solves). *)

module Vec = Smart_linalg.Vec
module Mat = Smart_linalg.Mat
module Err = Smart_util.Err

let checkf msg = Alcotest.(check (float 1e-9)) msg
let checkb msg = Alcotest.(check bool) msg

let test_vec_basic () =
  let a = Vec.of_list [ 1.; 2.; 3. ] and b = Vec.of_list [ 4.; 5.; 6. ] in
  checkf "dot" 32. (Vec.dot a b);
  checkf "norm2" (sqrt 14.) (Vec.norm2 a);
  checkf "norm_inf" 3. (Vec.norm_inf a);
  Alcotest.(check (list (float 1e-9))) "add" [ 5.; 7.; 9. ] (Vec.to_list (Vec.add a b));
  Alcotest.(check (list (float 1e-9))) "sub" [ -3.; -3.; -3. ] (Vec.to_list (Vec.sub a b));
  Alcotest.(check (list (float 1e-9))) "scale" [ 2.; 4.; 6. ] (Vec.to_list (Vec.scale 2. a))

let test_vec_axpy () =
  let x = Vec.of_list [ 1.; 1. ] and y = Vec.of_list [ 2.; 3. ] in
  Vec.axpy 2. x y;
  Alcotest.(check (list (float 1e-9))) "axpy" [ 4.; 5. ] (Vec.to_list y)

let test_vec_dim_mismatch () =
  Alcotest.check_raises "mismatch"
    (Err.Smart_error "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot (Vec.create 2) (Vec.create 3)))

let test_mat_identity_matvec () =
  let i3 = Mat.identity 3 in
  let v = Vec.of_list [ 1.; 2.; 3. ] in
  Alcotest.(check (list (float 1e-9))) "Iv = v" [ 1.; 2.; 3. ]
    (Vec.to_list (Mat.matvec i3 v))

let test_mat_matmul () =
  let a = Mat.init 2 2 (fun i j -> float_of_int ((2 * i) + j + 1)) in
  (* a = [1 2; 3 4]; a*a = [7 10; 15 22] *)
  let aa = Mat.matmul a a in
  checkf "(0,0)" 7. (Mat.get aa 0 0);
  checkf "(0,1)" 10. (Mat.get aa 0 1);
  checkf "(1,0)" 15. (Mat.get aa 1 0);
  checkf "(1,1)" 22. (Mat.get aa 1 1)

let test_mat_transpose () =
  let a = Mat.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
  let t = Mat.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Mat.dims t);
  checkf "(2,1)" 12. (Mat.get t 2 1)

let test_cholesky_known () =
  (* [[4,2],[2,3]] = L L^T with L = [[2,0],[1,sqrt 2]] *)
  let a = Mat.init 2 2 (fun i j -> [| [| 4.; 2. |]; [| 2.; 3. |] |].(i).(j)) in
  match Mat.cholesky a with
  | None -> Alcotest.fail "SPD matrix rejected"
  | Some l ->
    checkf "l00" 2. (Mat.get l 0 0);
    checkf "l10" 1. (Mat.get l 1 0);
    checkf "l11" (sqrt 2.) (Mat.get l 1 1)

let test_cholesky_rejects_indefinite () =
  let a = Mat.init 2 2 (fun i j -> if i = j then -1. else 0.) in
  checkb "not SPD" true (Mat.cholesky a = None)

let test_cholesky_solve () =
  let a = Mat.init 2 2 (fun i j -> [| [| 4.; 2. |]; [| 2.; 3. |] |].(i).(j)) in
  let b = Vec.of_list [ 10.; 9. ] in
  match Mat.cholesky_solve a b with
  | None -> Alcotest.fail "solve failed"
  | Some x ->
    let r = Vec.sub (Mat.matvec a x) b in
    checkb "residual tiny" true (Vec.norm_inf r < 1e-9)

let test_ridge_always_returns () =
  (* Singular matrix: ridge regularisation must still produce an answer. *)
  let a = Mat.create 2 2 in
  let x = Mat.solve_spd_ridge a (Vec.of_list [ 1.; 1. ]) in
  checkb "finite" true (Float.is_finite x.(0) && Float.is_finite x.(1))

let test_lu_solve () =
  let a = Mat.init 2 2 (fun i j -> [| [| 0.; 2. |]; [| 3.; 1. |] |].(i).(j)) in
  (* Needs pivoting (a00 = 0). *)
  match Mat.lu_solve a (Vec.of_list [ 4.; 5. ]) with
  | None -> Alcotest.fail "lu failed"
  | Some x ->
    checkf "x0" 1. x.(0);
    checkf "x1" 2. x.(1)

let test_lu_singular () =
  let a = Mat.init 2 2 (fun _ _ -> 1.) in
  checkb "singular detected" true (Mat.lu_solve a (Vec.of_list [ 1.; 1. ]) = None)

let test_rank1_update () =
  let m = Mat.create 2 2 in
  Mat.rank1_update m 2. (Vec.of_list [ 1.; 3. ]);
  checkf "(0,0)" 2. (Mat.get m 0 0);
  checkf "(0,1)" 6. (Mat.get m 0 1);
  checkf "(1,1)" 18. (Mat.get m 1 1)

let test_matvec_into_matches_matvec () =
  let a = Mat.init 3 4 (fun i j -> float_of_int ((3 * i) - j + 1)) in
  let v = Vec.of_list [ 1.; -2.; 0.5; 3. ] in
  let out = Vec.create 3 in
  Mat.matvec_into a v out;
  Alcotest.(check (list (float 1e-12)))
    "matvec_into = matvec"
    (Vec.to_list (Mat.matvec a v))
    (Vec.to_list out)

let test_symv_lower_ignores_upper () =
  (* Symmetric [[2,1],[1,3]] stored with garbage in the upper triangle. *)
  let m = Mat.create 2 2 in
  Mat.set m 0 0 2.;
  Mat.set m 1 0 1.;
  Mat.set m 1 1 3.;
  Mat.set m 0 1 999.;
  let y = Vec.create 2 in
  Mat.symv_lower_into m (Vec.of_list [ 1.; 2. ]) y;
  Alcotest.(check (list (float 1e-12))) "y = Ax" [ 4.; 7. ] (Vec.to_list y)

(* The dense ridge solve is the Newton hot path: with caller-owned
   workspaces it must allocate O(1) words per call, not O(n^2) — a boxed
   float per substitution step would cost ~52k words at n = 161. *)
let test_ridge_solve_into_allocation () =
  List.iter
    (fun n ->
      let rng = Smart_util.Rng.create n in
      let g = Mat.init n n (fun _ _ -> Smart_util.Rng.uniform rng (-1.) 1.) in
      let a = Mat.add (Mat.matmul g (Mat.transpose g)) (Mat.identity n) in
      let b = Vec.init n (fun _ -> Smart_util.Rng.uniform rng (-1.) 1.) in
      let work = Mat.create n n and tmp = Vec.create n and x = Vec.create n in
      let hint = ref 0. in
      let solve () = Mat.solve_spd_ridge_into ~hint ~work ~tmp a b x in
      solve ();
      let calls = 10 in
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        solve ()
      done;
      let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
      checkb
        (Printf.sprintf "n = %d: residual tiny" n)
        true
        (Vec.norm_inf (Vec.sub (Mat.matvec a x) b) < 1e-9);
      if per_call >= 1000. then
        Alcotest.failf "n = %d: %.0f minor words per solve" n per_call)
    [ 81; 161 ]

(* The hint ladder of the dense ridge solve: a singular system records
   the ridge that worked, a later well-conditioned system restarts from
   that hint with the same workspaces and still solves accurately, and
   neither call writes through [a] or [b]. *)
let test_ridge_hint_ladder () =
  let n = 3 in
  let work = Mat.create n n and tmp = Vec.create n and x = Vec.create n in
  let hint = ref 0. in
  let singular = Mat.create n n and ones = Vec.of_list [ 1.; 1.; 1. ] in
  Mat.solve_spd_ridge_into ~hint ~work ~tmp singular ones x;
  checkb "singular: finite" true (Array.for_all Float.is_finite x);
  checkb "singular: ridge recorded" true (!hint > 0.);
  checkb "singular: a untouched" true
    (Array.for_all (fun v -> v = 0.) (Mat.data singular));
  let rows = [| [| 4.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 2. |] |] in
  let a = Mat.init n n (fun i j -> rows.(i).(j)) in
  let a0 = Mat.copy a and b = Vec.of_list [ 1.; -2.; 3. ] in
  Mat.solve_spd_ridge_into ~hint ~work ~tmp a b x;
  checkb "spd: residual tiny" true (Vec.norm_inf (Vec.sub (Mat.matvec a x) b) < 1e-9);
  (* One rung below the 1e-12 hint is floored at 1e-12 x max diagonal. *)
  checkb "spd: hint stays small" true (!hint <= 1e-12 *. 4.);
  checkb "spd: a untouched" true (Mat.data a = Mat.data a0);
  Alcotest.(check (list (float 0.))) "spd: b untouched" [ 1.; -2.; 3. ] (Vec.to_list b)

(* Property: random SPD systems solve with small residuals. *)
let prop_spd_solve =
  QCheck.Test.make ~name:"cholesky solves random SPD systems" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Smart_util.Rng.create seed in
      let g = Mat.init n n (fun _ _ -> Smart_util.Rng.uniform rng (-1.) 1.) in
      (* a = g g^T + n*I is SPD. *)
      let a = Mat.matmul g (Mat.transpose g) in
      let a = Mat.add a (Mat.scale (float_of_int n) (Mat.identity n)) in
      let b = Vec.init n (fun _ -> Smart_util.Rng.uniform rng (-5.) 5.) in
      match Mat.cholesky_solve a b with
      | None -> false
      | Some x -> Vec.norm_inf (Vec.sub (Mat.matvec a x) b) < 1e-6)

(* Property: the substitutions read only the lower triangle, as the
   factor left by [cholesky_inplace] keeps the stale matrix above the
   diagonal, and the backward pass may solve in place.  Garbage in the
   upper triangle exposes any transposed index. *)
let prop_substitutions_lower_only =
  QCheck.Test.make ~name:"substitutions ignore the upper triangle" ~count:100
    QCheck.(pair (int_range 1 12) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Smart_util.Rng.create seed in
      let u () = Smart_util.Rng.uniform rng (-1.) 1. in
      let l =
        Mat.init n n (fun i j ->
            if i = j then 1. +. abs_float (u ())
            else if j < i then u ()
            else 1e6 *. u ())
      in
      let lower = Mat.init n n (fun i j -> if j <= i then Mat.get l i j else 0.) in
      let b = Vec.init n (fun _ -> Smart_util.Rng.uniform rng (-5.) 5.) in
      let y = Vec.create n in
      Mat.forward_subst_into l b y;
      let x = Vec.copy y in
      Mat.backward_subst_t_into l x x;
      Vec.norm_inf (Vec.sub (Mat.matvec lower y) b) < 1e-9
      && Vec.norm_inf (Vec.sub (Mat.matvec (Mat.transpose lower) x) y) < 1e-9)

let prop_lu_matches_cholesky =
  QCheck.Test.make ~name:"lu and cholesky agree on SPD systems" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Smart_util.Rng.create seed in
      let n = 4 in
      let g = Mat.init n n (fun _ _ -> Smart_util.Rng.uniform rng (-1.) 1.) in
      let a = Mat.add (Mat.matmul g (Mat.transpose g)) (Mat.identity n) in
      let b = Vec.init n (fun _ -> Smart_util.Rng.uniform rng (-2.) 2.) in
      match (Mat.cholesky_solve a b, Mat.lu_solve a b) with
      | Some x, Some y -> Vec.norm_inf (Vec.sub x y) < 1e-6
      | _ -> false)

let () =
  Alcotest.run "smart_linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basic;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "dimension check" `Quick test_vec_dim_mismatch;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity matvec" `Quick test_mat_identity_matvec;
          Alcotest.test_case "matvec_into" `Quick test_matvec_into_matches_matvec;
          Alcotest.test_case "symv lower-only" `Quick test_symv_lower_ignores_upper;
          Alcotest.test_case "matmul" `Quick test_mat_matmul;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "rank1 update" `Quick test_rank1_update;
        ] );
      ( "solves",
        [
          Alcotest.test_case "cholesky factor" `Quick test_cholesky_known;
          Alcotest.test_case "cholesky rejects indefinite" `Quick
            test_cholesky_rejects_indefinite;
          Alcotest.test_case "cholesky solve" `Quick test_cholesky_solve;
          Alcotest.test_case "ridge fallback" `Quick test_ridge_always_returns;
          Alcotest.test_case "ridge solve_into allocation" `Quick
            test_ridge_solve_into_allocation;
          Alcotest.test_case "ridge hint ladder" `Quick test_ridge_hint_ladder;
          Alcotest.test_case "lu with pivoting" `Quick test_lu_solve;
          Alcotest.test_case "lu singular" `Quick test_lu_singular;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_spd_solve; prop_lu_matches_cholesky; prop_substitutions_lower_only ] );
    ]
