(* Unit tests: Smart_engine (parallel evaluator, solve cache, trace). *)

module Engine = Smart_engine.Engine
module Explore = Smart_explore.Explore
module Db = Smart_database.Database
module C = Smart_constraints.Constraints
module Sizer = Smart_sizer.Sizer
module Macro = Smart_macros.Macro
module Mux = Smart_macros.Mux
module Tech = Smart_tech.Tech

let tech = Tech.default
let checkb msg = Alcotest.(check bool) msg
let checki msg = Alcotest.(check int) msg

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

(* The ranking fingerprint: entry names in order with bit-exact scores. *)
let fingerprint (r : Explore.ranking) =
  List.map
    (fun (c : Explore.candidate) ->
      (c.Explore.entry_name, Int64.bits_of_float c.Explore.score))
    r.Explore.ranked

let explore_with engine ~kind ~bits ~delay =
  let variants =
    List.map
      (fun ((e : Db.entry), info) -> (e.Db.entry_name, info))
      (Db.build_all (Db.builtins ()) ~kind (Db.requirements ~ext_load:25. bits))
  in
  Explore.tune_typed ~engine ~variants tech (C.spec delay)

(* (a) A 4-wide pool must produce exactly the sequential ranking — same
   order, same bit-identical scores, same rejections — on both the mux
   and the adder database entries. *)
let test_parallel_matches_sequential () =
  List.iter
    (fun (kind, bits, delay) ->
      let seq = Engine.create ~workers:1 ~cache_capacity:0 () in
      let par = Engine.create ~workers:4 ~cache_capacity:0 () in
      checki "pool width honoured" 4 (Engine.workers par);
      match
        (explore_with seq ~kind ~bits ~delay, explore_with par ~kind ~bits ~delay)
      with
      | Ok a, Ok b ->
        checkb (kind ^ ": identical rankings") true (fingerprint a = fingerprint b);
        checkb (kind ^ ": identical rejections") true
          (a.Explore.rejected = b.Explore.rejected)
      | Error ea, Error eb ->
        checkb (kind ^ ": identical errors") true (ea = eb)
      | _ -> Alcotest.failf "%s: sequential and parallel disagree on success" kind)
    [ ("mux", 4, 150.); ("adder", 4, 400.) ]

(* (b) A cache hit must return a bit-identical outcome to the cold solve. *)
let test_cache_hit_bit_identical () =
  let e = Engine.create ~workers:1 ~cache_capacity:16 () in
  let nl = (Mux.generate Mux.Strongly_mutexed ~n:4).Macro.netlist in
  let spec = C.spec 150. in
  let options = Sizer.default_options in
  let cold = Engine.size e ~options tech nl spec in
  let warm = Engine.size e ~options tech nl spec in
  match (cold, warm) with
  | Ok a, Ok b ->
    checkb "same sizing assignment" true (a.Sizer.sizing = b.Sizer.sizing);
    checkb "bit-identical delay" true
      (bits_equal a.Sizer.achieved_delay b.Sizer.achieved_delay);
    checkb "bit-identical width" true
      (bits_equal a.Sizer.total_width b.Sizer.total_width);
    let s = Engine.cache_stats e in
    checki "one hit" 1 s.Engine.hits;
    checki "one miss" 1 s.Engine.misses
  | _ -> Alcotest.fail "sizing failed"

(* A distinct spec (or netlist, tech, options) must not collide. *)
let test_cache_distinguishes_inputs () =
  let e = Engine.create ~workers:1 ~cache_capacity:16 () in
  let nl = (Mux.generate Mux.Strongly_mutexed ~n:4).Macro.netlist in
  let options = Sizer.default_options in
  ignore (Engine.size e ~options tech nl (C.spec 150.));
  ignore (Engine.size e ~options tech nl (C.spec 170.));
  let s = Engine.cache_stats e in
  checki "two misses" 2 s.Engine.misses;
  checki "no hits" 0 s.Engine.hits

(* (c) The LRU bound holds: capacity 2, three distinct solves evict the
   least-recently-used entry, which then misses again. *)
let test_lru_eviction_respects_bound () =
  let e = Engine.create ~workers:1 ~cache_capacity:2 () in
  let nl n = (Mux.generate Mux.Strongly_mutexed ~n).Macro.netlist in
  let options = Sizer.default_options in
  let size n = ignore (Engine.size e ~options tech (nl n) (C.spec 200.)) in
  size 2;
  (* A: miss *)
  size 3;
  (* B: miss *)
  size 2;
  (* A: hit, B becomes LRU *)
  size 4;
  (* C: miss, evicts B *)
  let s1 = Engine.cache_stats e in
  checkb "within capacity" true (s1.Engine.entries <= 2);
  checki "one eviction" 1 s1.Engine.evictions;
  size 3;
  (* B again: must miss (evicted), not hit *)
  let s2 = Engine.cache_stats e in
  checki "evicted entry misses" (s1.Engine.misses + 1) s2.Engine.misses;
  checki "hits unchanged by re-miss" s1.Engine.hits s2.Engine.hits;
  checkb "still within capacity" true (s2.Engine.entries <= 2)

(* (d) The trace sink receives exactly one sizing span per candidate. *)
let test_trace_one_span_per_candidate () =
  let sink, drain = Engine.Trace.memory () in
  let e = Engine.create ~workers:2 ~cache_capacity:0 ~sink () in
  match explore_with e ~kind:"mux" ~bits:4 ~delay:150. with
  | Error _ -> Alcotest.fail "explore failed"
  | Ok r ->
    let spans =
      List.filter
        (function Engine.Trace.Sizing _ -> true | _ -> false)
        (drain ())
    in
    checki "one sizing span per candidate"
      (List.length r.Explore.ranked + List.length r.Explore.rejected)
      (List.length spans);
    List.iter
      (function
        | Engine.Trace.Sizing s ->
          checkb "bypass cache status" true (s.cache = Engine.Trace.Bypass);
          checkb "ok spans carry iterations" true
            ((not s.ok) || s.iterations > 0)
        | _ -> ())
      spans

(* Hier-engaged candidates keep per-candidate span attribution: every
   sub-solve span a hierarchically sized candidate emits is labelled
   "hier:<candidate>/<unit>", so a batch's spans partition by candidate
   even though each candidate fans out many engine solves. *)
let test_trace_hier_spans_per_candidate () =
  let sink, drain = Engine.Trace.memory () in
  let e = Engine.create ~workers:2 ~cache_capacity:0 ~sink () in
  let variants =
    [
      ("m4", Mux.generate Mux.Strongly_mutexed ~n:4);
      ("m8", Mux.generate Mux.Strongly_mutexed ~n:8);
    ]
  in
  let hier_options =
    { Smart_hier.Hier.default_options with auto_threshold = 1 }
  in
  match
    Explore.tune_typed ~engine:e ~hier:`Auto ~hier_options ~variants tech
      (C.spec 250.)
  with
  | Error e -> Alcotest.fail (Smart_util.Err.to_string e)
  | Ok r ->
    checkb "both candidates engaged hier" true
      (List.for_all
         (fun (_, (i : Macro.info)) ->
           Smart_hier.Hier.engages ~options:hier_options `Auto i.Macro.netlist)
         variants);
    checki "both candidates ranked or rejected" 2
      (List.length r.Explore.ranked + List.length r.Explore.rejected);
    let labels =
      List.filter_map
        (function
          | Engine.Trace.Sizing { label; _ } -> Some label | _ -> None)
        (drain ())
    in
    let prefixed p l =
      String.length l >= String.length p && String.sub l 0 (String.length p) = p
    in
    List.iter
      (fun (n, _) ->
        checkb (n ^ " has attributed hier spans") true
          (List.exists (prefixed ("hier:" ^ n ^ "/")) labels))
      variants;
    checkb "every sizing span attributed to a candidate" true
      (List.for_all
         (fun l ->
           List.exists (fun (n, _) -> prefixed ("hier:" ^ n ^ "/") l) variants)
         labels)

(* (e) Trace sinks under many domains.  [memory] used to lose events to
   the non-atomic [events := e :: !events] read-modify-write; the stress
   below reliably exposed that: several domains hammering one sink must
   drain exactly every event. *)
let test_memory_sink_no_lost_events () =
  let domains = 4 and per_domain = 5_000 in
  let sink, drain = Engine.Trace.memory () in
  let emit d =
    for i = 1 to per_domain do
      sink
        (Engine.Trace.Min_delay
           {
             label = Printf.sprintf "d%d:%d" d i;
             wall_s = 0.;
             cache = Engine.Trace.Bypass;
           })
    done
  in
  let spawned = List.init domains (fun d -> Domain.spawn (fun () -> emit d)) in
  List.iter Domain.join spawned;
  let events = drain () in
  checki "no lost events" (domains * per_domain) (List.length events);
  (* Every domain's full sequence made it, in per-domain emission order
     (the drain is globally ordered, per-domain subsequences preserved). *)
  List.iter
    (fun d ->
      let mine =
        List.filter_map
          (function
            | Engine.Trace.Min_delay { label; _ } ->
              (match String.split_on_char ':' label with
              | [ tag; i ] when tag = Printf.sprintf "d%d" d ->
                Some (int_of_string i)
              | _ -> None)
            | _ -> None)
          events
      in
      checki (Printf.sprintf "domain %d complete" d) per_domain
        (List.length mine);
      checkb
        (Printf.sprintf "domain %d order preserved" d)
        true
        (mine = List.init per_domain (fun i -> i + 1)))
    (List.init domains (fun d -> d))

(* [json_lines] used to interleave bytes from concurrent domains into
   corrupt lines and only flush on close.  Now: every line is a complete
   JSON object, the count is exact, and each line is flushed as written. *)
let test_json_lines_concurrent_integrity () =
  let path = Filename.temp_file "smart_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      let sink = Engine.Trace.json_lines oc in
      (* Per-line flush: one event must be on disk before any close. *)
      sink
        (Engine.Trace.Min_delay
           { label = "flush-probe"; wall_s = 0.; cache = Engine.Trace.Hit });
      checkb "flushed before close" true ((Unix.stat path).Unix.st_size > 0);
      let domains = 4 and per_domain = 2_000 in
      let emit d =
        for i = 1 to per_domain do
          sink
            (Engine.Trace.Sizing
               {
                 label = Printf.sprintf "d%d:%d" d i;
                 wall_s = 0.;
                 iterations = i;
                 gp_newton = 0;
                 sta_verifies = 0;
                 cache = Engine.Trace.Bypass;
                 ok = true;
               })
        done
      in
      let spawned =
        List.init domains (fun d -> Domain.spawn (fun () -> emit d))
      in
      List.iter Domain.join spawned;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      checki "one line per event" (1 + (domains * per_domain))
        (List.length lines);
      (* Interleaved writes would leave lines that don't scan as one JSON
         object: wrong delimiters, or an odd number of quotes. *)
      List.iter
        (fun line ->
          let n = String.length line in
          let quotes = ref 0 in
          String.iter (fun c -> if c = '"' then incr quotes) line;
          checkb "line is one complete JSON object" true
            (n > 2
            && line.[0] = '{'
            && line.[n - 1] = '}'
            && !quotes mod 2 = 0))
        lines)

(* (f) The cache key must incorporate the solver/model version stamp:
   flipping the stamp invalidates every entry (a hit would hand back a
   blob produced by a different solver), and restoring it revalidates
   them. *)
let test_cache_version_stamp_invalidates () =
  let original = Engine.cache_version () in
  Fun.protect
    ~finally:(fun () -> Engine.set_cache_version original)
    (fun () ->
      let e = Engine.create ~workers:1 ~cache_capacity:16 () in
      let nl = (Mux.generate Mux.Strongly_mutexed ~n:4).Macro.netlist in
      let spec = C.spec 150. in
      let options = Sizer.default_options in
      let size () = ignore (Engine.size e ~options tech nl spec) in
      size ();
      size ();
      let s1 = Engine.cache_stats e in
      checki "warm-up: one miss" 1 s1.Engine.misses;
      checki "warm-up: one hit" 1 s1.Engine.hits;
      Engine.set_cache_version (original ^ "+model-bump");
      size ();
      let s2 = Engine.cache_stats e in
      checki "stamp flip forces a miss" (s1.Engine.misses + 1) s2.Engine.misses;
      checki "stamp flip adds no hit" s1.Engine.hits s2.Engine.hits;
      Engine.set_cache_version original;
      size ();
      let s3 = Engine.cache_stats e in
      checki "restored stamp hits again" (s2.Engine.hits + 1) s3.Engine.hits;
      checki "restored stamp adds no miss" s2.Engine.misses s3.Engine.misses)

(* (g) Persistent-store promotion.  A store hit reached through [size]
   reclassifies the already-counted miss as a store hit and promotes the
   entry, so the repeat is a memory hit. *)
let test_store_promotion () =
  let store_tbl : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let store =
    {
      Engine.Store.find = (fun k -> Hashtbl.find_opt store_tbl k);
      save = (fun k v -> Hashtbl.replace store_tbl k v);
    }
  in
  let nl = (Mux.generate Mux.Strongly_mutexed ~n:4).Macro.netlist in
  let spec = C.spec 150. in
  let options = Sizer.default_options in
  (* Populate the store with one cold solve on a throwaway engine. *)
  let producer = Engine.create ~workers:1 ~cache_capacity:16 () in
  Engine.set_store producer (Some store);
  let reference =
    match Engine.size producer ~options tech nl spec with
    | Ok o -> o
    | Error _ -> Alcotest.fail "producer solve failed"
  in
  checkb "solve persisted to the store" true (Hashtbl.length store_tbl > 0);
  (* Size straight through the store.  The memory miss is reclassified
     as a store hit, so the ledger still balances: every request is
     exactly one of hit / store_hit / miss. *)
  let e = Engine.create ~workers:1 ~cache_capacity:16 () in
  Engine.set_store e (Some store);
  (match Engine.size e ~options tech nl spec with
  | Ok o ->
    checkb "store hit bit-identical to the producer" true
      (bits_equal o.Sizer.achieved_delay reference.Sizer.achieved_delay)
  | Error _ -> Alcotest.fail "store-hit solve failed");
  ignore (Engine.size e ~options tech nl spec);
  let s = Engine.cache_stats e in
  checki "store hit reclassified" 1 s.Engine.store_hits;
  checki "reclassified miss removed" 0 s.Engine.misses;
  checki "repeat hits memory" 1 s.Engine.hits;
  checki "ledger balances: one outcome per request" 2
    (s.Engine.hits + s.Engine.store_hits + s.Engine.misses)

(* (h) Eviction is deterministic: after a fixed request sequence the
   surviving entries are a function of the sequence alone, not of
   Hashtbl iteration order.  Residency is probed by sizing: survivors
   hit memory, evicted keys miss. *)
let test_eviction_deterministic_survivors () =
  let nl n = (Mux.generate Mux.Strongly_mutexed ~n).Macro.netlist in
  let options = Sizer.default_options in
  let spec = C.spec 200. in
  let drive () =
    let e = Engine.create ~workers:1 ~cache_capacity:2 () in
    List.iter
      (fun n -> ignore (Engine.size e ~options tech (nl n) spec))
      [ 2; 3; 2; 4; 5 ];
    e
  in
  (* 2 miss, 3 miss, 2 hit (refreshes 2), 4 miss evicts 3, 5 miss
     evicts 2: survivors {4, 5}. *)
  let check_engine tag e =
    let s = Engine.cache_stats e in
    checki (tag ^ ": hits") 1 s.Engine.hits;
    checki (tag ^ ": misses") 4 s.Engine.misses;
    checki (tag ^ ": evictions") 2 s.Engine.evictions;
    checki (tag ^ ": entries") 2 s.Engine.entries;
    checki (tag ^ ": ledger balances") 5
      (s.Engine.hits + s.Engine.store_hits + s.Engine.misses);
    let size_all ns =
      List.iter (fun n -> ignore (Engine.size e ~options tech (nl n) spec)) ns;
      Engine.cache_stats e
    in
    (* Survivors first: probing them refreshes but evicts nothing. *)
    let s' = size_all [ 4; 5 ] in
    checki (tag ^ ": 4 and 5 survive") (s.Engine.hits + 2) s'.Engine.hits;
    checki (tag ^ ": survivors add no miss") s.Engine.misses s'.Engine.misses;
    let s'' = size_all [ 2; 3 ] in
    checki (tag ^ ": 2 and 3 were evicted") (s'.Engine.misses + 2)
      s''.Engine.misses;
    checki (tag ^ ": evicted keys add no hit") s'.Engine.hits s''.Engine.hits
  in
  let a = drive () and b = drive () in
  check_engine "first run" a;
  check_engine "second run" b;
  checkb "identical sequences, identical stats" true
    (Engine.cache_stats a = Engine.cache_stats b)

(* The request facade: Smart.run over a Request.t matches the deprecated
   advise wrapper, and typed errors surface where strings used to. *)
let test_request_run_facade () =
  let module Smart = Smart_core.Smart in
  let request =
    Smart.Request.make ~kind:"mux" ~bits:4 ~ext_load:25. ~delay:150. ()
  in
  (match (Smart.run request, explore_with (Engine.create ()) ~kind:"mux" ~bits:4 ~delay:150.) with
  | Ok advice, Ok r ->
    checkb "run matches explore winner" true
      (advice.Smart.ranking.Explore.winner.Explore.entry_name
      = r.Explore.winner.Explore.entry_name)
  | _ -> Alcotest.fail "run failed");
  match Smart.run (Smart.Request.make ~kind:"fifo" ~bits:4 ()) with
  | Error (Smart.Error.No_applicable_topology { kind }) ->
    checkb "typed no-applicable error" true (kind = "fifo")
  | _ -> Alcotest.fail "expected No_applicable_topology"

let () =
  Alcotest.run "smart_engine"
    [
      ( "evaluator",
        [
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit is bit-identical" `Quick
            test_cache_hit_bit_identical;
          Alcotest.test_case "key discrimination" `Quick
            test_cache_distinguishes_inputs;
          Alcotest.test_case "LRU bound" `Quick test_lru_eviction_respects_bound;
          Alcotest.test_case "store promotion" `Quick test_store_promotion;
          Alcotest.test_case "deterministic eviction survivors" `Quick
            test_eviction_deterministic_survivors;
          Alcotest.test_case "version stamp invalidates" `Quick
            test_cache_version_stamp_invalidates;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span per candidate" `Quick
            test_trace_one_span_per_candidate;
          Alcotest.test_case "hier spans per candidate" `Quick
            test_trace_hier_spans_per_candidate;
          Alcotest.test_case "memory sink loses nothing" `Quick
            test_memory_sink_no_lost_events;
          Alcotest.test_case "json_lines stays well-formed" `Quick
            test_json_lines_concurrent_integrity;
        ] );
      ( "facade",
        [ Alcotest.test_case "request/run" `Quick test_request_run_facade ] );
    ]
