(* Serve subsystem tests: wire-codec round trips (property-based),
   malformed-input hardening, the persistent solve cache across an engine
   "restart", the advise path's engine work, and the serve.worker crash
   drill. *)

module Engine = Smart_engine.Engine
module Err = Smart_util.Err
module Fault = Smart_util.Fault
module Jsonx = Smart_serve.Jsonx
module Wire = Smart_serve.Wire
module Store = Smart_serve.Store
module Server = Smart_serve.Server

let checkb msg = Alcotest.(check bool) msg
let checks msg = Alcotest.(check string) msg

(* ---------------- generators ---------------- *)

(* Finite doubles with both "nice" and awkward mantissas; the codec's
   shortest-round-trip float printing must reproduce all of them. *)
let finite_float =
  QCheck.(
    map
      (fun (a, (b, c)) ->
        let f = float_of_int a /. (1. +. abs_float (float_of_int b)) in
        if c then f *. 1e-7 else f)
      (pair (int_range (-1_000_000) 1_000_000) (pair (int_range 0 9999) bool)))

let finite_pos_float = QCheck.map abs_float finite_float

let ident =
  QCheck.(
    map
      (fun (c, rest) ->
        String.init (1 + String.length rest) (fun i ->
            if i = 0 then c else rest.[i - 1]))
      (pair
         (make Gen.(map Char.chr (int_range (Char.code 'a') (Char.code 'z'))))
         (make Gen.(string_size ~gen:printable (int_bound 12)))))

let wire_request : Wire.Request.t QCheck.arbitrary =
  let open QCheck in
  let op = oneofl Wire.Request.[ Advise; Ping; Stats; Shutdown ] in
  let tech_spec =
    map
      (fun (rc, name) ->
        { Wire.Request.base = "default"; rc_scale = rc; tech_name = name })
      (pair (option finite_pos_float) (option ident))
  in
  let options_spec =
    map
      (fun ((mi, tol), (damp, (warm, cert))) ->
        {
          Wire.Request.max_iterations = mi;
          tolerance = tol;
          damping = damp;
          gp_warm_start = warm;
          certify = cert;
        })
      (pair
         (pair (option (int_range 1 40)) (option finite_pos_float))
         (pair (option finite_pos_float) (pair (option bool) (option bool))))
  in
  map
    (fun ((id, op), ((kind, bits), ((load, delay), ((metric, lint), ((corners, tech), opts)))))
       ->
      Wire.Request.
        {
          v = Wire.version;
          id;
          op;
          kind;
          bits;
          ext_load = load;
          strongly_mutexed_selects = None;
          allow_dynamic = None;
          delay;
          metric;
          lint;
          corners;
          tech;
          options = opts;
        })
    (pair (pair (option ident) op)
       (pair
          (pair ident (int_range 1 64))
          (pair
             (pair (option finite_pos_float) (option finite_pos_float))
             (pair
                (pair (option (oneofl [ "area"; "power"; "clock" ]))
                   (option (oneofl [ "off"; "warn"; "strict" ])))
                (pair (pair (option ident) (option tech_spec)) (option options_spec))))))

let wire_error : Err.t QCheck.arbitrary =
  let open QCheck in
  let s = small_printable_string in
  oneof
    [
      map (fun kind -> Err.No_applicable_topology { kind }) s;
      map
        (fun (t, d) -> Err.Infeasible_spec { target_ps = t; detail = d })
        (pair finite_float s);
      map (fun d -> Err.Gp_failure d) s;
      map
        (fun (t, i) -> Err.Sta_disagreement { target_ps = t; iterations = i })
        (pair finite_float small_nat);
      map (fun d -> Err.Invalid_request d) s;
      map
        (fun (i, d) -> Err.Worker_crash { item = i; detail = d })
        (pair small_nat s);
      map
        (fun (n, diags) -> Err.Lint_failed { netlist = n; diagnostics = diags })
        (pair s (small_list (triple s s s)));
      map
        (fun (f, d) -> Err.Bad_request { field = f; detail = d })
        (pair (option s) s);
      map
        (fun (q, l) -> Err.Overloaded { queued = q; limit = l })
        (pair small_nat small_nat);
    ]

let wire_advice : Wire.Advice.t QCheck.arbitrary =
  let open QCheck in
  let corner =
    map
      (fun ((c, d), s) ->
        { Wire.Advice.corner = c; delay_ps = d; slack_ps = s })
      (pair (pair ident finite_float) finite_float)
  in
  let candidate =
    map
      (fun (((e, (d, w)), (c, (p, s))), ((i, b), (cs, sz))) ->
        {
          Wire.Advice.entry = e;
          delay_ps = d;
          width_um = w;
          clock_um = c;
          power_uw = p;
          score = s;
          iterations = i;
          binding_corner = b;
          corners = cs;
          sizing = sz;
        })
      (pair
         (pair
            (pair ident (pair finite_float finite_float))
            (pair finite_float (pair finite_float finite_float)))
         (pair
            (pair small_nat (option ident))
            (pair (small_list corner) (small_list (pair ident finite_pos_float)))))
  in
  map
    (fun ((w, (m, t)), (r, rej)) ->
      {
        Wire.Advice.v = Wire.version;
        winner = w;
        metric = m;
        target_ps = t;
        ranked = r;
        rejected = rej;
      })
    (pair
       (pair ident (pair ident finite_float))
       (pair (small_list candidate) (small_list (pair ident ident))))

(* ---------------- codec round trips ---------------- *)

let roundtrip_request =
  QCheck.Test.make ~name:"wire request round-trips through its line form"
    ~count:300 wire_request (fun r ->
      match Wire.Request.of_line (Wire.Request.to_line r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let roundtrip_error =
  QCheck.Test.make ~name:"wire error round-trips through code + data"
    ~count:300 wire_error (fun e ->
      match Wire.Error.decode (Wire.Error.encode e) with
      | Ok e' -> e' = e
      | Error _ -> false)

let roundtrip_advice =
  QCheck.Test.make ~name:"wire advice round-trips" ~count:200 wire_advice
    (fun a ->
      match Wire.Advice.decode (Wire.Advice.encode a) with
      | Ok a' -> a' = a
      | Error _ -> false)

let roundtrip_response =
  QCheck.Test.make ~name:"wire response envelope round-trips" ~count:200
    QCheck.(pair wire_advice (pair (option ident) wire_error))
    (fun (a, (id, e)) ->
      let ok =
        Wire.Response.ok ?id ~cache:"memory" ~wall_ms:12.25 a
      in
      let err = Wire.Response.error ?id e in
      let rt r =
        match Wire.Response.of_line (Wire.Response.to_line r) with
        | Ok r' -> r' = r
        | Error _ -> false
      in
      rt ok && rt err)

let roundtrip_diagnostics =
  QCheck.Test.make
    ~name:"response diagnostics round-trip (and vanish when empty)"
    ~count:200
    QCheck.(pair wire_advice (small_list ident))
    (fun (a, diags) ->
      let ok = Wire.Response.ok ~cache:"solved" ~diagnostics:diags a in
      let line = Wire.Response.to_line ok in
      (* Diagnostic-free responses stay byte-identical to the pre-field
         wire form; non-empty lists survive the round trip. *)
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i =
          i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
        in
        at 0
      in
      contains line "\"diagnostics\"" = (diags <> [])
      &&
      match Wire.Response.of_line line with
      | Ok r' -> r'.Wire.Response.diagnostics = diags
      | Error _ -> false)

let test_absent_diagnostics_decodes_empty () =
  (* A v1 response emitted before the field existed. *)
  let old = {|{"v":1,"pong":true}|} in
  match Wire.Response.of_line old with
  | Ok r ->
    Alcotest.(check (list string))
      "absent field decodes as []" [] r.Wire.Response.diagnostics
  | Error e -> Alcotest.fail (Err.to_string e)

(* The parser itself must be total; fuzz it with raw bytes. *)
let parser_total =
  QCheck.Test.make ~name:"jsonx parser never raises" ~count:500
    QCheck.(make Gen.(string_size ~gen:char (int_bound 40)))
    (fun s ->
      match Jsonx.parse s with Ok _ | Error _ -> true)

(* ---------------- tolerance and hardening ---------------- *)

let test_unknown_fields_ignored () =
  let line =
    {|{"v":1,"op":"advise","kind":"mux","bits":4,"from_the_future":{"x":[1,2]},"another":null}|}
  in
  match Wire.Request.of_line line with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok r ->
    checks "kind survives" "mux" r.Wire.Request.kind;
    Alcotest.(check int) "bits survive" 4 r.Wire.Request.bits

let test_malformed_is_bad_request () =
  let is_bad line =
    match Wire.Request.of_line line with
    | Error (Err.Bad_request _) -> true
    | Error _ | Ok _ -> false
  in
  checkb "truncated object" true (is_bad "{");
  checkb "trailing garbage" true (is_bad "{} {}");
  checkb "wrong field shape" true (is_bad {|{"bits":"four"}|});
  checkb "future protocol version" true (is_bad {|{"v":99,"kind":"mux"}|});
  checkb "unknown op" true (is_bad {|{"op":"frobnicate"}|});
  checkb "non-object" true (is_bad "[1,2,3]")

let test_elaborate_validation () =
  let field line =
    match Wire.Request.of_line line with
    | Error (Err.Bad_request { field; _ }) -> field
    | Ok r -> (
      match Wire.Request.elaborate r with
      | Error (Err.Bad_request { field; _ }) -> field
      | Error _ | Ok _ -> None)
    | Error _ -> None
  in
  Alcotest.(check (option string)) "missing kind" (Some "kind") (field {|{"bits":4}|});
  Alcotest.(check (option string)) "bad bits" (Some "bits")
    (field {|{"kind":"mux","bits":0}|});
  Alcotest.(check (option string)) "bad metric" (Some "metric")
    (field {|{"kind":"mux","bits":4,"metric":"speed"}|});
  Alcotest.(check (option string)) "bad lint" (Some "lint")
    (field {|{"kind":"mux","bits":4,"lint":"pedantic"}|});
  Alcotest.(check (option string)) "bad corners" (Some "corners")
    (field {|{"kind":"mux","bits":4,"corners":"typ,typ"}|});
  Alcotest.(check (option string)) "bad tech base" (Some "tech.base")
    (field {|{"kind":"mux","bits":4,"tech":{"base":"cmos9"}}|});
  Alcotest.(check (option string)) "bad rc_scale" (Some "tech.rc_scale")
    (field {|{"kind":"mux","bits":4,"tech":{"rc_scale":-2}}|})

(* ---------------- persistent cache across a restart ---------------- *)

let advise_line = {|{"id":"t","op":"advise","kind":"mux","bits":4,"delay":160}|}

let advice_of_line line =
  match Jsonx.parse line with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match (Jsonx.member "advice" j, Jsonx.member "cache" j) with
    | Some a, Some (Jsonx.Str c) -> (a, c)
    | _ -> Alcotest.fail ("no advice in: " ^ line))

let test_disk_cache_across_restart () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "smart-serve-test-%d" (Unix.getpid ()))
  in
  (* Daemon 1: cold solve, persisted. *)
  let sink1, _events1 = Engine.Trace.memory () in
  let e1 = Engine.create ~workers:1 ~sink:sink1 () in
  let s1 = Server.create ~workers:1 ~cache_dir:dir ~engine:e1 () in
  let a1, c1 = advice_of_line (Server.handle_line s1 advise_line) in
  Server.shutdown s1;
  checks "first serve solved" "solved" c1;
  (* Daemon 2: fresh engine, same directory — must re-serve from disk,
     byte-identical, without running the sizer. *)
  let sink2, events2 = Engine.Trace.memory () in
  let e2 = Engine.create ~workers:1 ~sink:sink2 () in
  let s2 = Server.create ~workers:1 ~cache_dir:dir ~engine:e2 () in
  let a2, c2 = advice_of_line (Server.handle_line s2 advise_line) in
  checks "second serve from disk" "disk" c2;
  checkb "byte-identical advice" true
    (Jsonx.to_string a1 = Jsonx.to_string a2);
  let solved =
    List.exists
      (function
        | Engine.Trace.Sizing { cache = Engine.Trace.Miss; _ }
        | Engine.Trace.Sizing { cache = Engine.Trace.Bypass; _ } ->
          true
        | _ -> false)
      (events2 ())
  in
  checkb "no solve span on the disk-hit serve" false solved;
  let stats = Engine.cache_stats e2 in
  checkb "store hits recorded" true (stats.Engine.store_hits > 0);
  (* In-memory hit on the third serve of the same daemon. *)
  let a3, c3 = advice_of_line (Server.handle_line s2 advise_line) in
  checks "third serve from memory" "memory" c3;
  checkb "memory hit byte-identical" true
    (Jsonx.to_string a1 = Jsonx.to_string a3);
  Server.shutdown s2

let test_store_stamp_invalidation () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "smart-serve-stamp-%d" (Unix.getpid ()))
  in
  let s1 = Store.create ~stamp:"v1" ~dir () in
  Store.save s1 (String.make 32 'a') "blob";
  checkb "same-stamp read back" true
    (Store.find s1 (String.make 32 'a') = Some "blob");
  let s2 = Store.create ~stamp:"v2" ~dir () in
  checkb "stamp mismatch is a miss" true
    (Store.find s2 (String.make 32 'a') = None);
  let kept, evicted = Store.warm_up s2 in
  Alcotest.(check int) "stale entry evicted" 1 evicted;
  Alcotest.(check int) "nothing kept" 0 kept;
  checkb "malformed key rejected without I/O" true
    (Store.find s1 "../../etc/passwd" = None)

(* ---------------- no interval analysis per advise ---------------- *)

(* A served advise sizes its menu and runs no interval analysis of its
   own: the sizer's certificate gate runs inside each sizing, and the
   response carries no [absint:] diagnostics line. *)
let test_advise_runs_no_analysis () =
  let sink, events = Engine.Trace.memory () in
  let server =
    Server.create ~workers:1 ~engine:(Engine.create ~workers:1 ~sink ()) ()
  in
  let line = Server.handle_line server advise_line in
  Server.shutdown server;
  let diagnostics =
    match Wire.Response.of_line line with
    | Ok { Wire.Response.payload = Wire.Response.Advice _; diagnostics; _ } ->
      diagnostics
    | _ -> Alcotest.fail ("expected advice, got: " ^ line)
  in
  let count p = List.length (List.filter p (events ())) in
  Alcotest.(check int) "no analysis event" 0
    (count (function Engine.Trace.Analysis _ -> true | _ -> false));
  checkb "sizing events" true
    (count (function Engine.Trace.Sizing _ -> true | _ -> false) > 0);
  checkb "no absint: diagnostics line" false
    (List.exists (String.starts_with ~prefix:"absint:") diagnostics)

(* ---------------- crash drill ---------------- *)

let test_worker_crash_drill () =
  let server = Server.create ~workers:1 () in
  Fault.reset ();
  Fault.arm "serve.worker" (Fault.Error_result "injected crash");
  let line = Server.handle_line server advise_line in
  (match Wire.Response.of_line line with
  | Ok { Wire.Response.payload = Wire.Response.Failed (Err.Worker_crash _); _ }
    ->
    ()
  | _ -> Alcotest.fail ("expected worker-crash error, got: " ^ line));
  checkb "fault consumed" true (Fault.fired "serve.worker" > 0);
  (* A raising site degrades the same way. *)
  Fault.arm "serve.worker" (Fault.Raise "injected raise");
  (match Wire.Response.of_line (Server.handle_line server advise_line) with
  | Ok { Wire.Response.payload = Wire.Response.Failed (Err.Worker_crash _); _ }
    ->
    ()
  | _ -> Alcotest.fail "raise did not surface as worker-crash");
  Fault.reset ();
  (* The daemon keeps answering after both crashes. *)
  (match Wire.Response.of_line (Server.handle_line server {|{"op":"ping"}|}) with
  | Ok { Wire.Response.payload = Wire.Response.Pong; _ } -> ()
  | _ -> Alcotest.fail "daemon did not answer ping after crash");
  Server.shutdown server

let test_submit_after_shutdown_is_structured () =
  let server = Server.create ~workers:1 () in
  Server.shutdown server;
  let got = ref "" in
  Server.submit server ~reply:(fun l -> got := l) {|{"op":"ping"}|};
  match Wire.Response.of_line !got with
  | Ok { Wire.Response.payload = Wire.Response.Failed (Err.Invalid_request _); _ }
    ->
    ()
  | _ -> Alcotest.fail ("expected structured refusal, got: " ^ !got)

let () =
  Alcotest.run "smart_serve"
    [
      ( "codecs",
        List.map QCheck_alcotest.to_alcotest
          [
            roundtrip_request;
            roundtrip_error;
            roundtrip_advice;
            roundtrip_response;
            roundtrip_diagnostics;
            parser_total;
          ] );
      ( "hardening",
        [
          Alcotest.test_case "unknown fields ignored" `Quick
            test_unknown_fields_ignored;
          Alcotest.test_case "absent diagnostics decodes empty" `Quick
            test_absent_diagnostics_decodes_empty;
          Alcotest.test_case "malformed input" `Quick
            test_malformed_is_bad_request;
          Alcotest.test_case "elaboration validation" `Quick
            test_elaborate_validation;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "disk cache across restart" `Quick
            test_disk_cache_across_restart;
          Alcotest.test_case "stamp invalidation" `Quick
            test_store_stamp_invalidation;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "serve.worker crash drill" `Quick
            test_worker_crash_drill;
          Alcotest.test_case "refusal after shutdown" `Quick
            test_submit_after_shutdown_is_structured;
          Alcotest.test_case "advise runs no interval analysis" `Quick
            test_advise_runs_no_analysis;
        ] );
    ]
