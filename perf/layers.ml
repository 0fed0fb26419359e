(* Per-layer metrics of one traced pass, from three sources: the spans
   the program emits (received by the bench's sink), the bench's own op
   intervals, and replays of public layer functions on the pass's
   distinct inputs.  Every metric is reported for every workload; a
   layer a workload never enters reports zero counts.  See README.md for
   the layer -> end-to-end table. *)

module Smart = Smart_core.Smart
open Harness

type sources = {
  base : Obs.t;  (** the untraced one-deck twin of [traced] *)
  traced : Obs.t;
  spans : Tracer.span list;
  costs : Replay.input_cost list;  (** aligned with [traced.inputs] *)
  wire : float * float;  (** decode, encode: seconds per pair *)
  store : Replay.store_cost;
  top_heap_mb : float;
}

let named n spans = List.filter (fun (s : Tracer.span) -> s.Tracer.name = n) spans
let count xs = float_of_int (List.length xs)
let total spans = sum (List.map Tracer.dur spans)

let missed s =
  match Tracer.attr_str "cache" s with "miss" | "bypass" -> true | _ -> false

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The replayed netlist a sizing span's label names: the database entry
   or netlist name, possibly suffixed by a sweep target ([@...]) or a
   corner set ([[...]]). *)
let cost_of_label costs label =
  List.find_opt
    (fun (c : Replay.netlist_cost) ->
      label = c.Replay.key
      || starts_with ~prefix:(c.Replay.key ^ "@") label
      || starts_with ~prefix:(c.Replay.key ^ "[") label)
    (List.concat_map (fun (c : Replay.input_cost) -> c.Replay.netlists) costs)

let per_input f costs = mean (List.map (fun (c : Replay.input_cost) -> f c) costs)
let per_netlist f (c : Replay.input_cost) = sum (List.map f c.Replay.netlists)

let compute src =
  let traced = src.traced in
  let ops = traced.Obs.ops in
  let n_ops = float_of_int (max 1 (List.length ops)) in
  (* Program spans that ran inside an op: excludes the gate's re-times. *)
  let in_op = List.filter (fun s -> Tracer.parent ops s <> None) src.spans in
  let gp = named "gp.solve" in_op in
  let sta = named "sta.analyze" in_op in
  let lint = named "lint.run" in_op in
  let sizings = named "engine.sizing" in_op in
  let min_delays = List.filter missed (named "engine.min_delay" in_op) in
  let analyses = List.filter missed (named "engine.analysis" in_op) in
  let sized = List.filter missed sizings in
  let containers = sized @ min_delays in
  let leaves_in c =
    List.filter
      (fun s -> match Tracer.container containers s with Some c' -> c' == c | None -> false)
      (gp @ sta)
  in
  (* Work inside one sizing span that no span names: generation, the
     interval gate and the GP compile, estimated from the replays (plus
     the min-delay program when the span ran its pre-solve). *)
  let unspanned c =
    match cost_of_label src.costs (Tracer.attr_str "label" c) with
    | None -> 0.
    | Some nc ->
      if c.Tracer.name = "engine.min_delay" then nc.Replay.min_delay_generate_s
      else
        let inside = leaves_in c in
        let presolve =
          count (named "gp.solve" inside) > Tracer.attr_num "iterations" c
        in
        let md = if presolve then nc.Replay.min_delay_generate_s else 0. in
        let label = Tracer.attr_str "label" c in
        if String.length label > 0 && label.[String.length label - 1] = ']' then
          (* The robust loop generates its corner programs and the
             min-delay program as concurrent tasks on the engine pool. *)
          Float.max nc.Replay.robust_generate_s md
          +. nc.Replay.robust_absint_s +. nc.Replay.robust_prepare_s
        else nc.Replay.generate_s +. nc.Replay.absint_s +. nc.Replay.prepare_s +. md
  in
  let sizing_busy = total sized in
  let sizer_self =
    sizing_busy -. sum (List.map (fun c -> total (leaves_in c) +. unspanned c) sized)
  in
  (* Coverage: the share of busy time named layers account for.  Serve
     ops are busy for their client latency; sizing ops for their sizing
     and min-delay spans. *)
  let serve_ops = List.filter (fun (o : Obs.op) -> o.Obs.served_on <> None) ops in
  let inputs = List.combine traced.Obs.inputs src.costs in
  let input_of (kind, bits) =
    List.find_map
      (fun (i, c) ->
        match i with
        | Obs.Template t when t.kind = kind && t.bits = bits -> Some c
        | _ -> None)
      inputs
  in
  let decode_s, encode_s = src.wire in
  let coverage =
    if serve_ops <> [] then
      let per_request (o : Obs.op) =
        match Option.bind o.Obs.template input_of with
        | None -> 0.
        | Some c ->
          (* Smart.run builds the menu for the lint gate, the interval
             precheck and the exploration (the last skipped when the
             precheck fails the request). *)
          let builds = if List.mem o.Obs.op_id traced.Obs.impossible then 2. else 3. in
          (builds *. c.Replay.build_s)
          +. per_netlist (fun n -> n.Replay.generate_s +. n.Replay.absint_s) c
          +. decode_s +. encode_s
      in
      let named_s =
        total gp +. total sta +. total lint +. total analyses
        +. sum (List.map unspanned sized)
        +. sum (List.map per_request serve_ops)
      in
      ratio named_s (sum (List.map Obs.latency_s serve_ops))
    else
      ratio
        (sum (List.map (fun c -> total (leaves_in c) +. unspanned c) containers))
        (total containers)
  in
  let cache = traced.Obs.cache in
  let sum_cache f = float_of_int (List.fold_left (fun a c -> a + f c) 0 cache) in
  let hits = sum_cache (fun c -> c.Smart.Engine.hits) in
  let disk = sum_cache (fun c -> c.Smart.Engine.store_hits) in
  let misses = sum_cache (fun c -> c.Smart.Engine.misses) in
  let span_s =
    match ops with
    | [] -> 0.
    | _ ->
      List.fold_left (fun a (o : Obs.op) -> Float.max a o.Obs.replied) neg_infinity ops
      -. List.fold_left (fun a (o : Obs.op) -> Float.min a o.Obs.sent) infinity ops
  in
  let newton = sum (List.map (Tracer.attr_num "newton") gp) in
  let fastfail =
    let gp_free id =
      not
        (List.exists
           (fun s ->
             match Tracer.parent ops s with Some o -> o.Obs.op_id = id | None -> false)
           gp)
    in
    ratio (count (List.filter gp_free traced.Obs.impossible)) (count traced.Obs.impossible)
  in
  (* Whole-netlist re-times outside any sizing: the hierarchy's global
     golden STA. *)
  let whole_netlists =
    List.filter_map
      (fun (i, (c : Replay.input_cost)) ->
        match (i, c.Replay.netlists) with
        | Obs.Netlist _, [ n ] -> Some n.Replay.key
        | _ -> None)
      inputs
  in
  let hier_sizings =
    List.filter (fun s -> starts_with ~prefix:"hier:" (Tracer.attr_str "label" s)) sizings
  in
  let hier_mean f =
    mean (List.map (fun r -> float_of_int (f r)) traced.Obs.hier)
  in
  (* Advice replies carry the daemon's own [wall_ms] around [Smart.run];
     the rest of the client latency is queue wait, codec and sidecar. *)
  let service_ms = List.filter_map (fun (o : Obs.op) -> o.Obs.wall_ms) serve_ops in
  let waited_ms =
    List.filter_map
      (fun (o : Obs.op) ->
        Option.map (fun w -> (1000. *. Obs.latency_s o) -. w) o.Obs.wall_ms)
      serve_ops
  in
  let global_sta =
    List.filter
      (fun s ->
        List.mem (Tracer.attr_str "netlist" s) whole_netlists
        && Tracer.container containers s = None)
      sta
  in
  let base_latencies = Obs.measured_latencies src.base in
  let base_ops = float_of_int (max 1 (List.length base_latencies)) in
  let costs = src.costs in
  let ms f = 1000. *. per_input (per_netlist f) costs in
  [
    metric "client.latency_p90_ms" "ms" (1000. *. quantile 0.9 base_latencies);
    metric "wire.decode_us" "us" (1e6 *. decode_s);
    metric "wire.encode_us" "us" (1e6 *. encode_s);
    metric "server.requests" "count" (count serve_ops);
    metric "server.refused" "count" (float_of_int traced.Obs.refused);
    metric "server.service_ms_p50" "ms" (median service_ms);
    metric "server.queue_wait_ms_p90" "ms" (quantile 0.9 waited_ms);
    metric "store.find_ms" "ms" (1000. *. src.store.Replay.find_s);
    metric "store.save_ms" "ms" (1000. *. src.store.Replay.save_s);
    metric "store.entries" "count" (float_of_int src.store.Replay.entries);
    metric "store.mb" "MB" (float_of_int src.store.Replay.bytes /. 1048576.);
    metric "engine.sizings" "count" (count sizings);
    metric "engine.hit_ratio" "ratio" (ratio (hits +. disk) (hits +. disk +. misses));
    metric "engine.disk_hits" "count" disk;
    metric "engine.misses" "count" misses;
    metric "engine.evictions" "count" (sum_cache (fun c -> c.Smart.Engine.evictions));
    metric "engine.sizing_busy_s" "s" sizing_busy;
    metric "engine.pool_busy_ratio" "ratio"
      (ratio sizing_busy (span_s *. float_of_int Workloads.workers));
    metric "macros.build_ms" "ms" (1000. *. per_input (fun c -> c.Replay.build_s) costs);
    metric "lint.runs" "count" (count lint);
    metric "lint.busy_s" "s" (total lint);
    metric "lint.run_ms" "ms" (ms (fun n -> n.Replay.lint_s));
    metric "absint.precheck_ms" "ms" (ms (fun n -> n.Replay.generate_s +. n.Replay.absint_s));
    metric "absint.analyses" "count" (count analyses);
    metric "absint.busy_s" "s" (total analyses);
    metric "absint.fastfail_ratio" "ratio" fastfail;
    metric "explore.candidates_per_op" "count" (float_of_int traced.Obs.candidates /. n_ops);
    metric "explore.rejected_per_op" "count" (float_of_int traced.Obs.rejected /. n_ops);
    metric "sizer.rounds" "count" (sum (List.map (Tracer.attr_num "iterations") sized));
    metric "sizer.min_delay_calls" "count" (count min_delays);
    metric "sizer.min_delay_busy_s" "s" (total min_delays);
    metric "sizer.self_s" "s" sizer_self;
    metric "sizer.width_um" "um" traced.Obs.width_um;
    metric "paths.extract_ms" "ms" (ms (fun n -> n.Replay.paths_s));
    metric "paths.reduced" "count"
      (per_input (per_netlist (fun n -> float_of_int n.Replay.reduced)) costs);
    metric "constraints.generate_ms" "ms" (ms (fun n -> n.Replay.generate_s));
    metric "constraints.inequalities" "count"
      (per_input (per_netlist (fun n -> float_of_int n.Replay.inequalities)) costs);
    metric "corners.generate_ms" "ms" (ms (fun n -> n.Replay.robust_generate_s));
    metric "corners.families" "count"
      (per_input (per_netlist (fun n -> float_of_int n.Replay.families)) costs);
    metric "gp.prepare_ms" "ms" (ms (fun n -> n.Replay.prepare_s));
    metric "gp.solves" "count" (count gp);
    metric "gp.busy_s" "s" (total gp);
    metric "gp.newton" "count" newton;
    metric "gp.newton_per_solve" "count" (ratio newton (count gp));
    metric "gp.warm_ratio" "ratio"
      (ratio (count (List.filter (Tracer.attr_bool "warm") gp)) (count gp));
    metric "gp.ms_per_newton" "ms" (ratio (1000. *. total gp) newton);
    metric "sta.calls" "count" (count sta);
    metric "sta.busy_s" "s" (total sta);
    metric "sta.ms_per_call" "ms" (ratio (1000. *. total sta) (count sta));
    metric "hier.plan_ms" "ms" (ms (fun n -> n.Replay.plan_s));
    metric "hier.outer_iterations" "count"
      (hier_mean (fun r -> r.Smart.Hier.outer_iterations));
    metric "hier.solves" "count" (hier_mean (fun r -> r.Smart.Hier.solves));
    metric "hier.distinct_tasks" "count" (hier_mean (fun r -> r.Smart.Hier.distinct_tasks));
    metric "hier.subsolve_hit_ratio" "ratio"
      (ratio
         (count (List.filter (fun s -> not (missed s)) hier_sizings))
         (count hier_sizings));
    metric "hier.global_sta_calls" "count" (count global_sta);
    metric "hier.global_sta_s" "s" (total global_sta);
    metric "gc.minor_mwords_per_op" "Mwords" (src.base.Obs.minor_words /. 1e6 /. base_ops);
    metric "gc.major_collections" "count" (float_of_int src.base.Obs.major_collections);
    metric "gc.top_heap_mb" "MB" src.top_heap_mb;
    metric "trace.coverage" "ratio" coverage;
    metric "trace.overhead" "ratio"
      (ratio (median (Obs.measured_latencies traced)) (median base_latencies) -. 1.);
  ]
