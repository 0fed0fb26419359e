(* Unit tests: Smart_explore (topology comparison, Fig. 1 / §6.3 flow). *)

module Explore = Smart_explore.Explore
module Db = Smart_database.Database
module C = Smart_constraints.Constraints
module Sizer = Smart_sizer.Sizer
module Macro = Smart_macros.Macro
module Mux = Smart_macros.Mux
module Tech = Smart_tech.Tech

let tech = Tech.default
let checkb msg = Alcotest.(check bool) msg

(* The advise menu: every applicable database topology, named as
   [Smart.run] names it. *)
let menu ~kind req =
  List.map
    (fun ((e : Db.entry), info) -> (e.Db.entry_name, info))
    (Db.build_all (Db.builtins ()) ~kind req)

let test_explore_ranks_by_metric () =
  let req = Db.requirements ~ext_load:25. 4 in
  match
    Explore.tune_typed ~metric:Explore.Area ~variants:(menu ~kind:"mux" req)
      tech (C.spec 150.)
  with
  | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  | Ok r ->
    checkb "has candidates" true (List.length r.Explore.ranked >= 2);
    let scores = List.map (fun c -> c.Explore.score) r.Explore.ranked in
    checkb "sorted ascending" true
      (List.sort compare scores = scores);
    checkb "winner is head" true
      ((List.hd r.Explore.ranked).Explore.entry_name = r.Explore.winner.Explore.entry_name);
    (* every winner met the spec *)
    List.iter
      (fun c ->
        checkb "meets spec" true
          (c.Explore.outcome.Sizer.achieved_delay <= 150. *. 1.03))
      r.Explore.ranked

let test_explore_reports_rejections () =
  let req = Db.requirements ~ext_load:25. 4 in
  (* A hard target: some topologies cannot make it and must be listed. *)
  match
    Explore.tune_typed ~variants:(menu ~kind:"mux" req) tech (C.spec 40.)
  with
  | Error _ -> () (* all rejected: acceptable at this target *)
  | Ok r ->
    checkb "ranked + rejected = candidates" true
      (List.length r.Explore.ranked + List.length r.Explore.rejected >= 4)

let test_explore_unknown_kind () =
  checkb "no candidates error" true
    (match
       Smart_core.Smart.run
         (Smart_core.Smart.Request.make ~spec:(C.spec 100.) ~kind:"fifo" ~bits:4
            ())
     with
    | Error (Smart_util.Err.No_applicable_topology _) -> true
    | Error _ | Ok _ -> false)

(* [Smart.run] sizes the menu these tests build by hand: from the same
   requirements it ranks the same names in the same order, with
   bit-identical scores. *)
let test_menu_matches_run () =
  let req = Db.requirements ~ext_load:25. 4 in
  let spec = C.spec 150. in
  let fingerprint (r : Explore.ranking) =
    List.map
      (fun (c : Explore.candidate) ->
        (c.Explore.entry_name, Int64.bits_of_float c.Explore.score))
      r.Explore.ranked
  in
  match
    ( Explore.tune_typed ~hier:`Auto ~variants:(menu ~kind:"mux" req) tech spec,
      Smart_core.Smart.run
        (Smart_core.Smart.Request.make ~ext_load:25. ~spec ~lint:`Off
           ~kind:"mux" ~bits:4 ()) )
  with
  | Ok r, Ok advice ->
    checkb "menu sized" true (r.Explore.ranked <> []);
    checkb "same ranking as Smart.run" true
      (fingerprint r = fingerprint advice.Smart_core.Smart.ranking)
  | Error e, _ | _, Error e -> Alcotest.fail (Smart_util.Err.to_string e)

let test_metric_changes_winner_score () =
  let variants = menu ~kind:"mux" (Db.requirements ~ext_load:25. 8) in
  let spec = C.spec 160. in
  let area = Explore.tune_typed ~metric:Explore.Area ~variants tech spec in
  let power = Explore.tune_typed ~metric:Explore.Power ~variants tech spec in
  match (area, power) with
  | Ok a, Ok p ->
    checkb "scores measured in different units" true
      (a.Explore.winner.Explore.score <> p.Explore.winner.Explore.score)
  | _ -> Alcotest.fail "explore failed"

let test_tune_variants () =
  let v1 = Smart_macros.Comparator.generate ~bits:8 ~xor_group:2 ~or_radix:4 () in
  let v2 = Smart_macros.Comparator.generate ~bits:8 ~xor_group:1 ~or_radix:8 () in
  match
    Explore.tune_typed ~variants:[ ("x2r4", v1); ("x1r8", v2) ] tech (C.spec 140.)
  with
  | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  | Ok r -> checkb "both sized" true (List.length r.Explore.ranked = 2)

let test_sweep_monotone () =
  let info = Mux.generate Mux.Strongly_mutexed ~n:4 in
  match
    Explore.sweep_area_delay ~points:4 tech info.Macro.netlist (C.spec 1e6)
  with
  | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  | Ok s ->
    let pts = s.Explore.sweep_curve in
    checkb "has points" true (List.length pts >= 3);
    checkb "skipped + curve = points" true
      (List.length pts + List.length s.Explore.sweep_skipped = 4);
    let rec decreasing = function
      | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-6 && decreasing rest
      | _ -> true
    in
    checkb "area decreases as delay relaxes" true (decreasing pts);
    let rec increasing = function
      | (d, _) :: ((d', _) :: _ as rest) -> d < d' && increasing rest
      | _ -> true
    in
    checkb "delay targets increase" true (increasing pts)

(* Regression: points = 1 used to compute targets as golden_min * (relax
   + span * 0/0) — a NaN target the sizer then rejected, silently
   returning an empty sweep.  One point must mean one finite target. *)
let test_sweep_single_point () =
  let info = Mux.generate Mux.Strongly_mutexed ~n:4 in
  match
    Explore.sweep_area_delay ~points:1 tech info.Macro.netlist (C.spec 1e6)
  with
  | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  | Ok s ->
    checkb "exactly one point" true (List.length s.Explore.sweep_curve = 1);
    checkb "nothing skipped" true (s.Explore.sweep_skipped = []);
    let d, a = List.hd s.Explore.sweep_curve in
    checkb "target is finite" true (Float.is_finite d && Float.is_finite a);
    let gm = s.Explore.sweep_min_delay.Sizer.golden_min in
    checkb "target inside the relax range" true
      (d >= gm *. (1.0 -. 1e-9) && d <= gm *. 1.35)

let test_sweep_invalid_points () =
  let info = Mux.generate Mux.Strongly_mutexed ~n:4 in
  match
    Explore.sweep_area_delay ~points:0 tech info.Macro.netlist (C.spec 1e6)
  with
  | Error (Smart_util.Err.Invalid_request _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Smart_util.Err.to_string e)
  | Ok _ -> Alcotest.fail "points = 0 must be rejected"

(* The ranking must not depend on how the menu was ordered or how many
   workers sized it — even when hierarchical sizing engages for a subset
   of the candidates (the larger ones cross the lowered threshold, the
   smaller ones stay monolithic). *)
let test_ranking_invariance () =
  let variants =
    [
      ("mux2", Mux.generate Mux.Strongly_mutexed ~n:2);
      ("mux4", Mux.generate Mux.Strongly_mutexed ~n:4);
      ("mux8", Mux.generate Mux.Strongly_mutexed ~n:8);
      ("mux4u", Mux.generate Mux.Domino_unsplit ~n:4);
    ]
  in
  let hier_options =
    (* Engage hier only for the two larger muxes. *)
    let threshold =
      let count (_, (i : Macro.info)) =
        Smart_circuit.Netlist.instance_count i.Macro.netlist
      in
      let sizes = List.sort compare (List.map count variants) in
      List.nth sizes 2
    in
    { Smart_hier.Hier.default_options with auto_threshold = threshold }
  in
  let engaged =
    List.filter
      (fun (_, (i : Macro.info)) ->
        Smart_hier.Hier.engages ~options:hier_options `Auto i.Macro.netlist)
      variants
  in
  checkb "hier engages for a strict subset" true
    (List.length engaged >= 1 && List.length engaged < List.length variants);
  let spec = C.spec 200. in
  let names r = List.map (fun c -> c.Explore.entry_name) r.Explore.ranked in
  let scores r = List.map (fun c -> c.Explore.score) r.Explore.ranked in
  let run ~order ~workers =
    let engine = Smart_engine.Engine.create ~workers () in
    match
      Explore.tune_typed ~engine ~hier:`Auto ~hier_options ~variants:order tech
        spec
    with
    | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
    | Ok r -> r
  in
  let reference = run ~order:variants ~workers:1 in
  let prop (perm_seed, workers) =
    let order =
      let arr = Array.of_list variants in
      Smart_util.Rng.shuffle (Smart_util.Rng.create perm_seed) arr;
      Array.to_list arr
    in
    let r = run ~order ~workers in
    names r = names reference && scores r = scores reference
  in
  let arb =
    QCheck.make
      ~print:(fun (s, w) -> Printf.sprintf "seed=%d workers=%d" s w)
      QCheck.Gen.(pair (int_bound 1000) (int_range 1 4))
  in
  let cell = QCheck.Test.make ~count:6 ~name:"ranking order/worker invariant" arb prop in
  QCheck.Test.check_exn cell

let () =
  Alcotest.run "smart_explore"
    [
      ( "explore",
        [
          Alcotest.test_case "ranking" `Quick test_explore_ranks_by_metric;
          Alcotest.test_case "rejections" `Quick test_explore_reports_rejections;
          Alcotest.test_case "unknown kind" `Quick test_explore_unknown_kind;
          Alcotest.test_case "menu matches Smart.run" `Quick test_menu_matches_run;
          Alcotest.test_case "metric switch" `Quick test_metric_changes_winner_score;
        ] );
      ( "tools",
        [
          Alcotest.test_case "tune" `Quick test_tune_variants;
          Alcotest.test_case "area-delay sweep" `Quick test_sweep_monotone;
          Alcotest.test_case "single-point sweep" `Quick test_sweep_single_point;
          Alcotest.test_case "invalid points" `Quick test_sweep_invalid_points;
          Alcotest.test_case "ranking invariance" `Slow test_ranking_invariance;
        ] );
    ]
