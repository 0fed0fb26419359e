(* Span collection for the traced pass, from outside the program.

   The program emits spans only at the end of a unit of work, with its
   duration ([gp.solve], [sta.analyze], [lint.run] through the
   tracepoint bridge; [Sizing], [Min_delay], [Analysis] through an
   engine's sink).  The sink here stamps each one with its arrival time
   and the emitting domain; the span started [wall] seconds earlier.
   Spans are kept in memory and written out once the pass is over. *)

module Smart = Smart_core.Smart
module Trace = Smart.Engine.Trace
module Tracepoint = Smart_util.Tracepoint
module Jsonx = Smart_serve.Jsonx

type span = {
  name : string;
  start : float;
  stop : float;
  domain : int;
  attrs : (string * Jsonx.t) list;
}

let dur s = s.stop -. s.start

type t = { m : Mutex.t; mutable spans : span list }

let create () = { m = Mutex.create (); spans = [] }
let spans t = Mutex.protect t.m (fun () -> List.rev t.spans)

let cache_name = function
  | Trace.Hit -> "hit"
  | Trace.Disk -> "disk"
  | Trace.Miss -> "miss"
  | Trace.Bypass -> "bypass"

let value = function
  | Tracepoint.Int i -> Jsonx.Num (float_of_int i)
  | Tracepoint.Float f -> Jsonx.Num f
  | Tracepoint.Str s -> Jsonx.Str s
  | Tracepoint.Bool b -> Jsonx.Bool b

let num i = Jsonx.Num (float_of_int i)

(* Name, duration and attributes of a program event. *)
let describe (ev : Trace.event) =
  match ev with
  | Trace.Sizing { label; wall_s; iterations; gp_newton; sta_verifies; cache; ok } ->
    ( "engine.sizing",
      wall_s,
      [
        ("label", Jsonx.Str label);
        ("iterations", num iterations);
        ("gp_newton", num gp_newton);
        ("sta_verifies", num sta_verifies);
        ("cache", Jsonx.Str (cache_name cache));
        ("ok", Jsonx.Bool ok);
      ] )
  | Trace.Min_delay { label; wall_s; cache } ->
    ( "engine.min_delay",
      wall_s,
      [ ("label", Jsonx.Str label); ("cache", Jsonx.Str (cache_name cache)) ] )
  | Trace.Analysis { label; wall_s; cache } ->
    ( "engine.analysis",
      wall_s,
      [ ("label", Jsonx.Str label); ("cache", Jsonx.Str (cache_name cache)) ] )
  | Trace.Gp_solve { wall_s; newton; centering; status; warm } ->
    ( "gp.solve",
      wall_s,
      [
        ("newton", num newton);
        ("centering", num centering);
        ("status", Jsonx.Str status);
        ("warm", Jsonx.Bool warm);
      ] )
  | Trace.Sta_verify { wall_s; mode; netlist; max_delay_ps } ->
    ( "sta.analyze",
      wall_s,
      [
        ("mode", Jsonx.Str mode);
        ("netlist", Jsonx.Str netlist);
        ("max_delay_ps", Jsonx.Num max_delay_ps);
      ] )
  | Trace.Sizer_span { wall_s; netlist; target_ps; ok } ->
    ( "sizer.size",
      wall_s,
      [
        ("netlist", Jsonx.Str netlist);
        ("target_ps", Jsonx.Num target_ps);
        ("ok", Jsonx.Bool ok);
      ] )
  | Trace.Lint_span { wall_s; netlist; rules; errors; warnings } ->
    ( "lint.run",
      wall_s,
      [
        ("netlist", Jsonx.Str netlist);
        ("rules", num rules);
        ("errors", num errors);
        ("warnings", num warnings);
      ] )
  | Trace.Raw e ->
    ( e.Tracepoint.span,
      e.Tracepoint.dur_s,
      List.map (fun (k, v) -> (k, value v)) e.Tracepoint.attrs )

let sink t : Trace.sink =
 fun ev ->
  let stop = Harness.now () in
  let domain = Harness.domain_id () in
  let name, wall, attrs = describe ev in
  let s = { name; start = stop -. wall; stop; domain; attrs } in
  Mutex.protect t.m (fun () -> t.spans <- s :: t.spans)

let attr_num k s =
  match List.assoc_opt k s.attrs with Some (Jsonx.Num f) -> f | _ -> 0.

let attr_str k s =
  match List.assoc_opt k s.attrs with Some (Jsonx.Str v) -> v | _ -> ""

let attr_bool k s =
  match List.assoc_opt k s.attrs with Some (Jsonx.Bool b) -> b | _ -> false

(* Stamps are taken around the work, so allow a little clock slack. *)
let slack = 1e-3

let inside ~lo ~hi s = s.start >= lo -. slack && s.stop <= hi +. slack

(* The op a program span belongs to: the request whose client interval
   contains it on the worker domain that served it, or — for ops run
   one at a time on the bench's own domain — the op whose interval
   contains it on any domain. *)
let parent (ops : Obs.op list) s =
  List.find_opt
    (fun (op : Obs.op) ->
      inside ~lo:op.Obs.sent ~hi:op.Obs.replied s
      && match op.Obs.served_on with Some d -> d = s.domain | None -> true)
    ops

(* The container span (a sizing or min-delay span) a leaf span ran in:
   one on the same domain if any, else one on any domain (the pooled
   per-corner verifies run on helper domains while the sizing waits). *)
let container containers s =
  match
    List.find_opt (fun c -> c.domain = s.domain && inside ~lo:c.start ~hi:c.stop s) containers
  with
  | Some c -> Some c
  | None -> List.find_opt (fun c -> inside ~lo:c.start ~hi:c.stop s) containers

(* One JSON object per span; times in seconds from [t0]. *)
let write_file path ~t0 ~ops ~bench spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line ~name ~start ~stop ~domain ~parent ~request attrs =
        output_string oc
          (Jsonx.to_string
             (Jsonx.Obj
                [
                  ("name", Jsonx.Str name);
                  ("start", Jsonx.Num (start -. t0));
                  ("end", Jsonx.Num (stop -. t0));
                  ("domain", match domain with Some d -> num d | None -> Jsonx.Null);
                  ("parent", match parent with Some p -> Jsonx.Str p | None -> Jsonx.Null);
                  ("attrs", Jsonx.Obj attrs);
                  ("request", match request with Some r -> Jsonx.Str r | None -> Jsonx.Null);
                ]));
        output_char oc '\n'
      in
      List.iter
        (fun (op : Obs.op) ->
          let template =
            match op.Obs.template with
            | Some (kind, bits) -> [ ("template", Jsonx.Str (Printf.sprintf "%s/%d" kind bits)) ]
            | None -> []
          in
          line ~name:"bench.op" ~start:op.Obs.sent ~stop:op.Obs.replied
            ~domain:op.Obs.served_on ~parent:None ~request:(Some op.Obs.op_id)
            (("measured", Jsonx.Bool op.Obs.measured) :: template))
        ops;
      List.iter
        (fun (name, start, stop) ->
          line ~name:("bench.replay." ^ name) ~start ~stop ~domain:None ~parent:None
            ~request:None [])
        bench;
      List.iter
        (fun s ->
          let p = Option.map (fun (op : Obs.op) -> op.Obs.op_id) (parent ops s) in
          line ~name:s.name ~start:s.start ~stop:s.stop ~domain:(Some s.domain)
            ~parent:(Option.map (fun id -> "bench.op:" ^ id) p) ~request:p s.attrs)
        spans)
