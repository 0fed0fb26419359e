(* Robustness at process corners: the whole flow (baseline, sizer, STA,
   power) must behave sanely when the technology's RC products are scaled
   up or down 40% (slow / fast corners), and Smart_corners must produce
   one joint sizing the golden timer confirms at every corner. *)

module Smart = Smart_core.Smart
module Tech = Smart.Tech
module Sizer = Smart.Sizer
module Corners = Smart.Corners
module Engine = Smart.Engine
module C = Smart.Constraints

let checkb msg = Alcotest.(check bool) msg

let corners =
  [ ("fast", Tech.scaled ~rc_scale:0.6 ~name:"fast" Tech.default);
    ("typ", Tech.default);
    ("slow", Tech.scaled ~rc_scale:1.4 ~name:"slow" Tech.default) ]

let test_fo4_ordering () =
  match List.map (fun (_, t) -> Tech.fo4_delay t) corners with
  | [ fast; typ; slow ] ->
    checkb "fast < typ < slow" true (fast < typ && typ < slow)
  | _ -> assert false

let test_sizer_all_corners () =
  let info = Smart.Mux.generate Smart.Mux.Strongly_mutexed ~n:4 in
  let nl = info.Smart.Macro.netlist in
  List.iter
    (fun (name, tech) ->
      match Sizer.minimize_delay_typed tech nl (C.spec 1e6) with
      | Error e -> Alcotest.fail (name ^ ": " ^ Smart.Error.to_string e)
      | Ok md -> (
        let target = 1.25 *. md.Sizer.golden_min in
        match Sizer.size_typed tech nl (C.spec target) with
        | Error e -> Alcotest.fail (name ^ ": " ^ Smart.Error.to_string e)
        | Ok o ->
          checkb (name ^ " meets spec") true
            (o.Sizer.achieved_delay <= target *. 1.03)))
    corners

let test_min_delay_tracks_corner () =
  let info = Smart.Zero_detect.generate ~bits:8 () in
  let nl = info.Smart.Macro.netlist in
  let mins =
    List.map
      (fun (name, tech) ->
        match Sizer.minimize_delay_typed tech nl (C.spec 1e6) with
        | Ok md -> md.Sizer.golden_min
        | Error e -> Alcotest.fail (name ^ ": " ^ Smart.Error.to_string e))
      corners
  in
  match mins with
  | [ fast; typ; slow ] ->
    checkb "corner ordering" true (fast < typ && typ < slow);
    (* RC scaling is roughly linear in delay. *)
    checkb "scaling magnitude sane" true (slow /. fast > 1.5 && slow /. fast < 4.)
  | _ -> assert false

let test_domino_corners () =
  let info = Smart.Mux.generate Smart.Mux.Domino_unsplit ~n:4 in
  let nl = info.Smart.Macro.netlist in
  List.iter
    (fun (name, tech) ->
      match Sizer.minimize_delay_typed tech nl (C.spec 1e6) with
      | Error e -> Alcotest.fail (name ^ ": " ^ Smart.Error.to_string e)
      | Ok md -> (
        let target = 1.3 *. md.Sizer.golden_min in
        match Sizer.size_typed tech nl (C.spec target) with
        | Error e -> Alcotest.fail (name ^ ": " ^ Smart.Error.to_string e)
        | Ok o ->
          checkb (name ^ " precharge ok") true
            (o.Sizer.achieved_precharge <= target *. 1.03)))
    corners

(* ---- Smart_corners: the corner-set abstraction ---- *)

let test_set_construction () =
  let set = Corners.default_set () in
  Alcotest.(check (list string)) "canonical names" [ "fast"; "typ"; "slow" ]
    (Corners.names set);
  checkb "scales ordered" true
    (match Corners.to_list set with
    | [ f; t; s ] ->
      f.Corners.rc_scale < t.Corners.rc_scale
      && t.Corners.rc_scale < s.Corners.rc_scale
    | _ -> false);
  checkb "nominal is typ" true
    ((Corners.nominal set).Corners.corner_name = "typ");
  (match Corners.of_string "fast,typ,slow" with
  | Ok s -> checkb "of_string round-trips" true (Corners.to_string s = "fast,typ,slow")
  | Error e -> Alcotest.fail e);
  (match Corners.of_string "typ,hot:1.6" with
  | Ok s ->
    checkb "custom scale parsed" true
      (List.exists
         (fun (c : Corners.corner) ->
           c.Corners.corner_name = "hot" && c.Corners.rc_scale = 1.6)
         (Corners.to_list s))
  | Error e -> Alcotest.fail e);
  checkb "bad name rejected" true
    (Result.is_error (Corners.of_string "typ,typ"));
  checkb "bad scale rejected" true
    (Result.is_error (Corners.of_string "cold:-1"))

(* One joint sizing must meet the spec at *every* corner of the default
   set (2% acceptance band + verification headroom), with the slow corner
   binding for these RC-dominated macros, and cost at least the width of
   a typical-only sizing. *)
let test_robust_meets_every_corner () =
  let info = Smart.Mux.generate Smart.Mux.Strongly_mutexed ~n:4 in
  let nl = info.Smart.Macro.netlist in
  let set = Corners.default_set () in
  let slow_tech =
    (List.nth (Corners.to_list set) 2).Corners.tech
  in
  match Sizer.minimize_delay_typed slow_tech nl (C.spec 1e6) with
  | Error e -> Alcotest.fail ("slow min-delay: " ^ Smart.Error.to_string e)
  | Ok md -> (
    let target = 1.25 *. md.Sizer.golden_min in
    match Sizer.size_robust_typed set nl (C.spec target) with
    | Error e -> Alcotest.fail ("robust: " ^ Smart.Error.to_string e)
    | Ok ro ->
      Alcotest.(check int) "one report per corner" 3
        (List.length ro.Sizer.per_corner);
      List.iter
        (fun (r : Sizer.corner_report) ->
          checkb (r.Sizer.corner_name ^ " meets spec") true
            (r.Sizer.corner_delay <= target *. 1.03))
        ro.Sizer.per_corner;
      Alcotest.(check string) "slow corner binds" "slow"
        ro.Sizer.binding_corner;
      checkb "outcome reports the binding corner" true
        (ro.Sizer.robust.Sizer.achieved_delay
        = (List.nth ro.Sizer.per_corner 2).Sizer.corner_delay);
      (* Robustness costs width relative to a typical-only sizing. *)
      (match Sizer.size_typed (Corners.nominal set).Corners.tech nl (C.spec target) with
      | Error e -> Alcotest.fail ("typ-only: " ^ Smart.Error.to_string e)
      | Ok typ_only ->
        checkb "robust width >= typ-only width" true
          (ro.Sizer.robust.Sizer.total_width
          >= typ_only.Sizer.total_width *. 0.999));
      (* Independent differential re-timing of the sizer's claims. *)
      let v = Smart.Check.verify_robust set nl (C.spec target) ro in
      checkb "independent re-timing agrees" true v.Smart.Check.reports_agree;
      checkb "binding corner confirmed" true v.Smart.Check.binding_agrees;
      checkb "independently meets spec everywhere" true
        v.Smart.Check.all_meet_spec)

(* Domino macros carry per-corner precharge constraints through the merge;
   the joint sizing must satisfy them at every corner too. *)
let test_robust_domino_precharge () =
  let info = Smart.Mux.generate Smart.Mux.Domino_unsplit ~n:4 in
  let nl = info.Smart.Macro.netlist in
  let set = Corners.default_set () in
  let slow_tech = (List.nth (Corners.to_list set) 2).Corners.tech in
  match Sizer.minimize_delay_typed slow_tech nl (C.spec 1e6) with
  | Error e -> Alcotest.fail ("slow min-delay: " ^ Smart.Error.to_string e)
  | Ok md -> (
    let target = 1.3 *. md.Sizer.golden_min in
    match Sizer.size_robust_typed set nl (C.spec target) with
    | Error e -> Alcotest.fail ("robust: " ^ Smart.Error.to_string e)
    | Ok ro ->
      List.iter
        (fun (r : Sizer.corner_report) ->
          checkb (r.Sizer.corner_name ^ " evaluate ok") true
            (r.Sizer.corner_delay <= target *. 1.03);
          checkb (r.Sizer.corner_name ^ " precharge ok") true
            (r.Sizer.corner_precharge <= target *. 1.03))
        ro.Sizer.per_corner)

(* The engine cache digests the corner set: a typ-only robust entry, a
   3-corner robust entry and a plain single-tech entry for the same
   netlist/spec are three distinct keys, and only an exact repeat hits. *)
let test_engine_cache_corner_sets_distinct () =
  let e = Engine.create ~workers:1 ~cache_capacity:16 () in
  let nl = (Smart.Mux.generate Smart.Mux.Strongly_mutexed ~n:4).Smart.Macro.netlist in
  let spec = C.spec 150. in
  let options = Sizer.default_options in
  ignore (Engine.size e ~options Tech.default nl spec);
  ignore (Engine.size_robust e ~options (Corners.typ_only ()) nl spec);
  ignore (Engine.size_robust e ~options (Corners.default_set ()) nl spec);
  let s = Engine.cache_stats e in
  Alcotest.(check int) "three distinct misses" 3 s.Engine.misses;
  Alcotest.(check int) "no cross-set hits" 0 s.Engine.hits;
  match
    ( Engine.size_robust e ~options (Corners.default_set ()) nl spec,
      Engine.cache_stats e )
  with
  | Ok ro, s2 ->
    Alcotest.(check int) "exact repeat hits" 1 s2.Engine.hits;
    checkb "hit still carries all corners" true
      (List.length ro.Sizer.per_corner = 3)
  | Error e, _ -> Alcotest.fail (Smart.Error.to_string e)

(* The engine's pooled mapper runs a corner set's generations and each
   round's verifies on its worker pool; the answer must not depend on it.
   A 2-worker engine and a one-worker engine size the 8-bit adder over
   fast/typ/slow to the bit. *)
let test_pooled_robust_matches_sequential () =
  let nl = (Smart.Cla_adder.generate ~bits:8 ()).Smart.Macro.netlist in
  let size workers =
    let e = Engine.create ~workers ~cache_capacity:0 () in
    match
      Engine.size_robust e ~options:Sizer.default_options (Corners.default_set ()) nl
        (C.spec 400.)
    with
    | Ok ro -> ro
    | Error err -> Alcotest.fail (Smart.Error.to_string err)
  in
  let pooled = size 2 and sequential = size 1 in
  let bits = Int64.bits_of_float in
  let widths (ro : Sizer.robust_outcome) =
    List.map (fun (l, w) -> (l, bits w)) ro.Sizer.robust.Sizer.sizing
  in
  let reports (ro : Sizer.robust_outcome) =
    List.map
      (fun (r : Sizer.corner_report) ->
        ( r.Sizer.corner_name,
          List.map bits
            [ r.Sizer.corner_delay; r.Sizer.corner_precharge; r.Sizer.corner_slack ] ))
      ro.Sizer.per_corner
  in
  Alcotest.(check (list (pair string int64)))
    "widths" (widths sequential) (widths pooled);
  Alcotest.(check (list (pair string (list int64))))
    "per-corner reports" (reports sequential) (reports pooled);
  Alcotest.(check string) "binding corner" sequential.Sizer.binding_corner
    pooled.Sizer.binding_corner

(* Loop accounting: the counters a sizing reports must match the spans
   its loop emitted, for a single-technology sizing and a 3-corner one. *)

let mux4 () = (Smart.Mux.generate Smart.Mux.Strongly_mutexed ~n:4).Smart.Macro.netlist

(* [k] times the golden minimum delay of [nl] at [tech]. *)
let target_at ?(k = 1.25) tech nl =
  match Sizer.minimize_delay_typed tech nl (C.spec 1e6) with
  | Ok md -> k *. md.Sizer.golden_min
  | Error e -> Alcotest.fail ("min-delay: " ^ Smart.Error.to_string e)

let slow_tech set = (List.nth (Corners.to_list set) 2).Corners.tech

let ok = function
  | Ok o -> o
  | Error e -> Alcotest.fail (Smart.Error.to_string e)

(* Run [f] with the global tracepoint stream bridged into [sink]. *)
let traced sink f =
  Engine.Trace.install_global sink;
  Fun.protect ~finally:Engine.Trace.uninstall_global f

let test_newton_total_matches_spans () =
  let set = Corners.default_set () in
  let check name run =
    let sink, drain = Engine.Trace.memory () in
    let o : Sizer.outcome = traced sink run in
    let spans =
      List.fold_left
        (fun acc -> function Engine.Trace.Gp_solve g -> acc + g.newton | _ -> acc)
        0 (drain ())
    in
    Alcotest.(check int) (name ^ ": gp.solve newton sum") spans o.Sizer.gp_newton_iterations
  in
  let adder = (Smart.Cla_adder.generate ~bits:16 ()).Smart.Macro.netlist in
  let spec = C.spec (target_at Tech.default adder) in
  check "adder16 tech" (fun () -> ok (Sizer.size_typed Tech.default adder spec));
  let nl = mux4 () in
  let spec = C.spec (target_at (slow_tech set) nl) in
  check "mux4 3-corner" (fun () -> (ok (Sizer.size_robust_typed set nl spec)).Sizer.robust)

let test_sta_verifies_match_spans () =
  let set = Corners.default_set () in
  let nl = mux4 () in
  let sink, drain = Engine.Trace.memory () in
  let e = Engine.create ~workers:1 ~sink () in
  let options = Sizer.default_options in
  let typ_spec = C.spec (target_at Tech.default nl) in
  let slow_spec = C.spec (target_at (slow_tech set) nl) in
  traced sink (fun () ->
      ignore (ok (Engine.size e ~options Tech.default nl typ_spec));
      ignore (ok (Engine.size_robust e ~options set nl slow_spec)));
  let sizings =
    List.fold_left
      (fun (runs, acc) -> function
        | Engine.Trace.Sta_verify _ -> (runs + 1, acc)
        | Engine.Trace.Sizing s -> (0, (s.label, s.sta_verifies, runs) :: acc)
        | _ -> (runs, acc))
      (0, []) (drain ())
    |> snd
  in
  Alcotest.(check int) "two sizings" 2 (List.length sizings);
  List.iter
    (fun (label, reported, runs) ->
      Alcotest.(check int) (label ^ ": sta_verifies = sta.analyze spans") runs reported)
    sizings

(* A one-corner set is the single-technology flow: the same untagged
   program and the same widths as [size_typed] on the corner's tech. *)
let test_one_corner_set_is_single_tech () =
  let set = Corners.typ_only () in
  let tech = (Corners.nominal set).Corners.tech in
  let nl = (Smart.Cla_adder.generate ~bits:8 ()).Smart.Macro.netlist in
  let spec = C.spec (target_at tech nl) in
  let single = ok (Sizer.size_typed tech nl spec) in
  let ro = ok (Sizer.size_robust_typed set nl spec) in
  let names (o : Sizer.outcome) =
    List.map fst o.Sizer.constraint_stats.C.problem.Smart.Gp_problem.inequalities
  in
  Alcotest.(check (list string)) "untagged single-tech program" (names single)
    (names ro.Sizer.robust);
  checkb "same widths" true (single.Sizer.sizing = ro.Sizer.robust.Sizer.sizing);
  Alcotest.(check string) "binding corner" "typ" ro.Sizer.binding_corner

(* The certificate check covers merged programs too. *)
let test_certify_corner_set () =
  let set = Corners.default_set () in
  let nl = mux4 () in
  let options = { Sizer.default_options with Sizer.certify = true } in
  match Sizer.size_robust_typed ~options set nl (C.spec (target_at (slow_tech set) nl)) with
  | Error e -> Alcotest.fail (Smart.Error.to_string e)
  | Ok ro ->
    checkb "certified rounds" true (ro.Sizer.robust.Sizer.certified_rounds >= 1)

(* The merged fast/typ/slow program of the 8-bit CLA adder compiles onto
   the typ-only program's basis: corner copies of a constraint differ only
   in coefficients, so both programs have the same distinct exponent rows
   and the copies form families.  At the merged optimum, with budgets
   doubled first so every barrier weight stays O(1) (the active slacks are
   ~1e-10 there, and 1/F_k would magnify roundoff), the compiled kernel
   matches the per-term reference. *)
let test_merged_program_shares_basis () =
  let module Solver = Smart.Gp in
  let set = Corners.default_set () in
  let nl = (Smart.Cla_adder.generate ~bits:8 ()).Smart.Macro.netlist in
  let spec = C.spec (target_at (slow_tech set) nl) in
  let merged = Corners.generate_robust set nl spec in
  let typ =
    C.generate (Corners.nominal set).Corners.tech nl spec
  in
  let single = Solver.structure_stats (Solver.prepare typ.C.problem) in
  let prepared = Solver.prepare merged.Corners.generated.C.problem in
  let st = Solver.structure_stats prepared in
  Alcotest.(check int) "same rows as the typ-only program" single.Solver.rows
    st.Solver.rows;
  checkb "corner copies form families" true (st.Solver.families > 0);
  match Solver.resolve prepared with
  | Error e -> Alcotest.fail e
  | Ok sol ->
    checkb "merged program optimal" true (sol.Solver.status = Solver.Optimal);
    Solver.rescale_compiled prepared (fun _ -> 0.5);
    let diff = Solver.kernel_max_rel_diff prepared sol.Solver.values in
    checkb (Printf.sprintf "kernel = per-term reference (%.2e <= 1e-10)" diff)
      true (diff <= 1e-10)

let () =
  Alcotest.run "smart_corners"
    [
      ( "corners",
        [
          Alcotest.test_case "FO4 ordering" `Quick test_fo4_ordering;
          Alcotest.test_case "sizer at all corners" `Slow test_sizer_all_corners;
          Alcotest.test_case "min delay tracks corner" `Slow test_min_delay_tracks_corner;
          Alcotest.test_case "domino at corners" `Slow test_domino_corners;
        ] );
      ( "robust",
        [
          Alcotest.test_case "set construction" `Quick test_set_construction;
          Alcotest.test_case "merged program shares the typ basis" `Quick
            test_merged_program_shares_basis;
          Alcotest.test_case "meets every corner" `Slow
            test_robust_meets_every_corner;
          Alcotest.test_case "domino precharge at corners" `Slow
            test_robust_domino_precharge;
          Alcotest.test_case "engine cache keeps sets apart" `Slow
            test_engine_cache_corner_sets_distinct;
          Alcotest.test_case "pooled = sequential" `Slow
            test_pooled_robust_matches_sequential;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "newton total = gp.solve spans" `Slow
            test_newton_total_matches_spans;
          Alcotest.test_case "sta_verifies = sta.analyze spans" `Slow
            test_sta_verifies_match_spans;
          Alcotest.test_case "certify corner sets" `Slow test_certify_corner_set;
          Alcotest.test_case "one-corner set = single tech" `Slow
            test_one_corner_set_is_single_tech;
        ] );
    ]
