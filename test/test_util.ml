(* Unit tests: Smart_util (rng, stats, tables, errors, JSON text). *)

module Rng = Smart_util.Rng
module Stats = Smart_util.Stats
module Tab = Smart_util.Tab
module Err = Smart_util.Err

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    check "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 7 in
  Alcotest.check_raises "bound 0"
    (Err.Smart_error "Rng.int: bound 0 must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.float r 3.5 in
    check "in range" true (x >= 0. && x < 3.5)
  done

let test_rng_uniform () =
  let r = Rng.create 5 in
  for _ = 1 to 200 do
    let x = Rng.uniform r 2. 5. in
    check "in [2,5)" true (x >= 2. && x < 5.)
  done

let test_rng_split_independent () =
  let parent = Rng.create 3 in
  let child = Rng.split parent in
  let a = Rng.int64 parent and b = Rng.int64 child in
  check "split streams differ" true (a <> b)

let test_rng_copy () =
  let a = Rng.create 11 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_choose () =
  let r = Rng.create 13 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    check "chosen from array" true (Array.mem (Rng.choose r arr) arr)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 17 in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

let test_stats_mean () =
  checkf "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  checkf "empty mean" 0. (Stats.mean [])

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  Alcotest.(check (float 1e-9)) "geomean of equal" 3. (Stats.geomean [ 3.; 3.; 3. ])

let test_stats_stddev () =
  checkf "stddev of constants" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  checkf "stddev of 1,3 pairs" 1. (Stats.stddev [ 1.; 3.; 1.; 3.; 1.; 3.; 1.; 3. ])

let test_stats_minmax () =
  checkf "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  checkf "max" 3. (Stats.maximum [ 3.; 1.; 2. ]);
  Alcotest.check_raises "empty min"
    (Err.Smart_error "Stats.minimum: empty list") (fun () ->
      ignore (Stats.minimum []))

let test_stats_savings () =
  checkf "percent saving" 25. (Stats.percent_saving ~original:100. ~improved:75.);
  checkf "ratio" 0.75 (Stats.ratio ~original:100. ~improved:75.)

let test_tab_render () =
  let t = Tab.create [ "a"; "bb" ] in
  Tab.row t [ "1"; "2" ];
  Tab.rowf t "%d|%s" 10 "xy";
  let s = Tab.to_string t in
  check "contains header" true (String.length s > 0);
  check "row count" true (List.length (String.split_on_char '\n' s) = 4)

let test_tab_arity_checked () =
  let t = Tab.create [ "a"; "b" ] in
  Alcotest.check_raises "bad arity"
    (Err.Smart_error "Tab.row: 1 cells for 2 headers") (fun () ->
      Tab.row t [ "only" ])

let test_err_fail () =
  Alcotest.check_raises "formatted" (Err.Smart_error "x=3") (fun () ->
      Err.fail "x=%d" 3)

let test_err_conditional () =
  Err.invalid_arg_if false "never";
  Alcotest.check_raises "fires" (Err.Smart_error "yes") (fun () ->
      Err.invalid_arg_if true "yes")

(* The JSON renderings of typed errors, lint reports and trace events
   share one string escaper and one number printer.  These documents pin
   their layouts byte for byte: quotes, backslashes, tabs, newlines,
   carriage returns and other control characters, and floats that need
   all 16 digits to round-trip. *)
let test_err_json_layout () =
  let cases =
    [
      ( Err.No_applicable_topology { kind = "fifo" },
        {|{"code":"no-applicable-topology","message":"no applicable fifo topology in database","data":{"kind":"fifo"}}|}
      );
      ( Err.Infeasible_spec { target_ps = 5.; detail = "path \"a\\b\" needs 12.3 ps" },
        {|{"code":"infeasible-spec","message":"specification 5.0 ps infeasible (path \"a\\b\" needs 12.3 ps)","data":{"target_ps":5,"detail":"path \"a\\b\" needs 12.3 ps"}}|}
      );
      ( Err.Gp_failure "phase I\tstalled\nat t=1e3",
        {|{"code":"gp-failure","message":"GP failure: phase I\tstalled\nat t=1e3","data":{"detail":"phase I\tstalled\nat t=1e3"}}|}
      );
      ( Err.Sta_disagreement { target_ps = 1. /. 3.; iterations = 8 },
        {|{"code":"sta-disagreement","message":"no golden-feasible sizing found for 0.3 ps in 8 iterations","data":{"target_ps":0.3333333333333333,"iterations":8}}|}
      );
      ( Err.Invalid_request "bits \001 out of range",
        {|{"code":"invalid-request","message":"invalid request: bits \u0001 out of range","data":{"detail":"bits \u0001 out of range"}}|}
      );
      ( Err.Worker_crash { item = 3; detail = "Stack_overflow\r" },
        {|{"code":"worker-crash","message":"worker crashed on item 3: Stack_overflow\r","data":{"item":3,"detail":"Stack_overflow\r"}}|}
      );
      ( Err.Lint_failed
          {
            netlist = "mux4";
            diagnostics = [ ("family/domino-monotone", "net n\"1", "rises") ];
          },
        {|{"code":"lint-failed","message":"lint failed on mux4: [family/domino-monotone] net n\"1: rises","data":{"netlist":"mux4","diagnostics":[{"rule":"family/domino-monotone","loc":"net n\"1","message":"rises"}]}}|}
      );
      ( Err.Bad_request { field = Some "delay"; detail = "not a number" },
        {|{"code":"bad-request","message":"bad request: field delay: not a number","data":{"field":"delay","detail":"not a number"}}|}
      );
      ( Err.Bad_request { field = None; detail = "empty line" },
        {|{"code":"bad-request","message":"bad request: empty line","data":{"detail":"empty line"}}|}
      );
      ( Err.Overloaded { queued = 64; limit = 64 },
        {|{"code":"overloaded","message":"server overloaded: 64 requests queued (limit 64)","data":{"queued":64,"limit":64}}|}
      );
    ]
  in
  List.iter
    (fun (e, json) -> Alcotest.(check string) (Err.code e) json (Err.to_json e))
    cases

let test_lint_json_layout () =
  let module Report = Smart_lint.Report in
  let report =
    {
      Smart_lint.Lint.netlist = "mux\"4";
      diags =
        [
          Report.diag ~hint:"widen \\ keeper" ~rule:"family/keeper"
            ~severity:Report.Warn ~loc:(Report.Inst "k\\0") "weak\tkeeper";
          Report.diag ~rule:"elec/floating" ~severity:Report.Error
            ~loc:(Report.Net "n\"1") "floating\r\nnet";
          {
            (Report.diag ~rule:"cover/label" ~severity:Report.Error
               ~loc:(Report.Label "P1") "uncovered")
            with
            Report.waived = true;
          };
          Report.diag ~rule:"graph/cycle" ~severity:Report.Info
            ~loc:Report.Whole_netlist "ok";
        ];
      rules_run = 4;
      crashed = [];
    }
  in
  Alcotest.(check string) "lint document"
    {|{"netlist": "mux\"4", "summary": {"errors": 1, "waived_errors": 1, "warnings": 1, "infos": 1}, "diagnostics": [{"rule": "elec/floating", "severity": "error", "loc_kind": "net", "loc": "n\"1", "message": "floating\r\nnet", "waived": false}, {"rule": "cover/label", "severity": "error", "loc_kind": "label", "loc": "P1", "message": "uncovered", "waived": true}, {"rule": "family/keeper", "severity": "warn", "loc_kind": "inst", "loc": "k\\0", "message": "weak\tkeeper", "hint": "widen \\ keeper", "waived": false}, {"rule": "graph/cycle", "severity": "info", "loc_kind": "netlist", "loc": "<netlist>", "message": "ok", "waived": false}]}|}
    (Smart_lint.Lint.to_json report)

let test_trace_json_layout () =
  let module Trace = Smart_engine.Engine.Trace in
  let module T = Smart_util.Tracepoint in
  Alcotest.(check string) "sizing line"
    {|{"event":"sizing","label":"mux\"4","wall_s":0.0123457,"iterations":3,"gp_newton":120,"sta_verifies":3,"cache":"miss","ok":true}|}
    (Trace.to_json
       (Trace.Sizing
          {
            label = "mux\"4";
            wall_s = 0.0123456789;
            iterations = 3;
            gp_newton = 120;
            sta_verifies = 3;
            cache = Trace.Miss;
            ok = true;
          }));
  Alcotest.(check string) "raw line"
    {|{"event":"raw","span":"hier.plan","wall_s":0.333333,"n":7,"x":2.5e-07,"s":"a\"b\\c\td\r","b":false}|}
    (Trace.to_json
       (Trace.Raw
          {
            T.span = "hier.plan";
            dur_s = 1. /. 3.;
            attrs =
              [
                ("n", T.Int 7); ("x", T.Float 2.5e-7); ("s", T.Str "a\"b\\c\td\r");
                ("b", T.Bool false);
              ];
          }))

let () =
  Alcotest.run "smart_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects <= 0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "choose" `Quick test_rng_choose;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "savings" `Quick test_stats_savings;
        ] );
      ( "tab",
        [
          Alcotest.test_case "render" `Quick test_tab_render;
          Alcotest.test_case "arity" `Quick test_tab_arity_checked;
        ] );
      ( "err",
        [
          Alcotest.test_case "fail" `Quick test_err_fail;
          Alcotest.test_case "conditional" `Quick test_err_conditional;
        ] );
      ( "json",
        [
          Alcotest.test_case "Err.to_json layouts" `Quick test_err_json_layout;
          Alcotest.test_case "Lint.to_json layout" `Quick test_lint_json_layout;
          Alcotest.test_case "Trace.to_json layouts" `Quick test_trace_json_layout;
        ] );
    ]
