(* The five workloads: inputs drawn from the seed, one pass over them,
   and the correctness gate on every output.

   Inputs are dealt in decks: a deck fixes a workload's mix (which
   templates, how many impossible specs, which targets' strata) and the
   seed draws the order and the exact delays inside the fixed bands, so
   every seed loads the program with the same mix.  A timed pass runs a
   fixed number of whole decks: [seconds] divided by the deck's wall time
   at the commit that defined the benchmark, on its 2-core reference
   host.  The work done is therefore the same on every commit and every
   run, however fast the program or the host, and memory and the
   latency mix do not drift with the number of decks a run managed.  A
   one-deck pass (the traced run and its untraced twin) runs exactly the
   first deck, so its program-side counts repeat from run to run. *)

module Smart = Smart_core.Smart
module Engine = Smart.Engine
module Server = Smart_serve.Server
module Wire = Smart_serve.Wire
module Jsonx = Smart_serve.Jsonx
module Rng = Smart_util.Rng
module Netlist = Smart.Circuit
module Sta = Smart.Sta
module Sizer = Smart.Sizer
module Constraints = Smart.Constraints
module Corners = Smart.Corners

type ctx = {
  seed : int;
  seconds : float;
  toy : bool;  (** smoke size: seconds of work in total *)
  one_deck : bool;
  sink : Engine.Trace.sink;
  scratch : string;  (** this pass's private directory *)
}

let tech = Smart.Tech.default

(* The golden re-time must meet the target within the sizer's own
   acceptance band. *)
let tolerance = 1.02

(* Set-ups per pass; the reported set-up time is their median.  They are
   spread over the pass in [gaps] groups (before, between and after the
   measured work): the host has slow spells of a few seconds, and a
   median over set-ups made all at one moment reads one spell. *)
let set_ups = 21

let set_ups_in ~gaps g = (set_ups * (g + 1) / gaps) - (set_ups * g / gaps)

(* Worker domains of the daemon, or of the engine a sizing op runs on. *)
let workers = 2

(* Decks in a pass whose decks took [deck_s] seconds each on the
   reference host: as many as fit [seconds], at least one. *)
let decks ctx ~deck_s =
  if ctx.one_deck then 1 else max 1 (Float.to_int (Float.round (ctx.seconds /. deck_s)))

(* Slot [i] of a stream of [len]-slot decks, dealt lazily and
   deterministically: deck [k] is drawn from the seeded stream only
   after decks [0 .. k-1]. *)
let dealer rng ~len deal =
  let decks = ref [||] in
  fun i ->
    while Array.length !decks <= i / len do
      decks := Array.append !decks [| deal rng |]
    done;
    !decks.(i / len).(i mod len)

let shuffled rng xs =
  let a = Array.of_list xs in
  Rng.shuffle rng a;
  a

(* ------------------------------------------------------------------ *)
(* Golden re-time                                                      *)
(* ------------------------------------------------------------------ *)

let sizing_fn sizing =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (l, w) -> Hashtbl.replace tbl l w) sizing;
  fun l ->
    match Hashtbl.find_opt tbl l with
    | Some w -> w
    | None -> raise (Invalid_argument ("no width for label " ^ l))

(* [Ok ()] when [nl] at [sizing] meets [target] within the tolerance at
   [tech]. *)
let retime ?(tech = tech) nl sizing ~target =
  match Sta.analyze tech nl ~sizing:(sizing_fn sizing) with
  | exception Invalid_argument msg -> Error msg
  | sta ->
    let d = sta.Sta.max_delay in
    if d <= target *. tolerance then Ok ()
    else Error (Printf.sprintf "golden re-time %.2f ps misses %.2f ps" d target)

(* ------------------------------------------------------------------ *)
(* Advise workloads                                                    *)
(* ------------------------------------------------------------------ *)

type template = { kind : string; bits : int; lo : float; hi : float }

(* Each band starts ~15% above the fastest applicable topology's golden
   minimum delay, so every delay in it has a feasible winner. *)
let menu =
  [|
    { kind = "mux"; bits = 4; lo = 31.; hi = 43. };
    { kind = "mux"; bits = 8; lo = 31.; hi = 43. };
    { kind = "decoder"; bits = 4; lo = 69.; hi = 96. };
    { kind = "comparator"; bits = 16; lo = 103.; hi = 143. };
    { kind = "shifter"; bits = 8; lo = 151.; hi = 210. };
    { kind = "encoder"; bits = 4; lo = 77.; hi = 107. };
    { kind = "register-file"; bits = 8; lo = 99.; hi = 138. };
    { kind = "zero-detect"; bits = 16; lo = 71.; hi = 99. };
    { kind = "incrementor"; bits = 8; lo = 214.; hi = 297. };
    { kind = "incrementor"; bits = 16; lo = 295.; hi = 410. };
    { kind = "adder"; bits = 8; lo = 222.; hi = 309. };
    { kind = "adder"; bits = 16; lo = 265.; hi = 368. };
  |]

(* advise-cold deck: menu index and whether the spec is impossible.
   28 feasible requests and 4 impossible ones (1 in 8).  Thirteen
   requests are faster than mux8 and thirteen slower, so the median sits
   inside the six mux8 requests rather than between two templates; the
   large macros (incrementors and adders) hold the 90th percentile. *)
let cold_deck ~toy =
  if toy then [ (0, false); (5, false); (7, false); (0, true) ]
  else
    List.concat_map
      (fun (i, n) -> List.init n (fun _ -> (i, false)))
      [
        (7, 2); (3, 2); (0, 2); (5, 2); (2, 2); (6, 2);
        (1, 6); (4, 3); (8, 2); (10, 2); (9, 2); (11, 1);
      ]
    @ [ (0, true); (2, true); (4, true); (10, true) ]

(* advise-repeat keys in Zipf rank order: (menu index, position in the
   band).  Rank 1 (a quarter of the traffic) is mux8, whose hit path sits
   mid-menu; the next ranks carry the large macros, then the small ones,
   so about as much traffic is faster than mux8 as slower and the median
   falls inside the rank-1 key's latencies. *)
let repeat_keys ~toy =
  if toy then [ (0, 0.5); (7, 0.5); (5, 0.5); (0, 0.2) ]
  else
    let order = [ 1; 11; 9; 10; 8; 3; 0; 6; 2; 5; 4; 7 ] in
    List.map (fun i -> (i, 0.2)) order
    @ List.map (fun i -> (i, 0.7)) order
    @ List.map (fun i -> (i, 0.45)) [ 1; 3; 0; 6; 2; 5; 4; 7 ]

(* Copies of each key per deck, Zipf(s=1) over its rank, at least one. *)
let zipf_counts ~per_deck n =
  let h = List.fold_left ( +. ) 0. (List.init n (fun k -> 1. /. float_of_int (k + 1))) in
  List.init n (fun k ->
      max 1
        (Float.to_int
           (Float.round (float_of_int per_deck /. (float_of_int (k + 1) *. h)))))

type request = {
  rid : string;
  tmpl : template;
  delay : float;
  impossible : bool;
  line : string;
}

let request ~rid tmpl ~delay ~impossible =
  {
    rid;
    tmpl;
    delay;
    impossible;
    line =
      Wire.Request.to_line
        (Wire.Request.make ~id:rid ~delay ~kind:tmpl.kind ~bits:tmpl.bits ());
  }

let start_daemon ?cache_dir ctx =
  Harness.time (fun () ->
      let s =
        Server.create ~workers ?cache_dir
          ~engine:(Engine.create ~workers:1 ~sink:ctx.sink ())
          ()
      in
      Serve_load.ready s;
      s)

(* [n] daemon set-ups; all but the last are shut down again. *)
let start_daemons ?cache_dir ctx n =
  let rec go k acc =
    let s, dt = start_daemon ?cache_dir ctx in
    if k = 1 then (s, List.rev (dt :: acc))
    else begin
      Server.shutdown s;
      go (k - 1) (dt :: acc)
    end
  in
  go n []

(* [n] daemon set-ups, each shut down again. *)
let time_daemons ?cache_dir ctx n =
  let s, times = start_daemons ?cache_dir ctx n in
  Server.shutdown s;
  times

(* Memoized [Database.build_all]: the gate rebuilds each winner's
   netlist the way the daemon built it. *)
let builder () =
  let db = Smart.Database.builtins () in
  let memo = Hashtbl.create 16 in
  fun (t : template) ->
    let key = (t.kind, t.bits) in
    match Hashtbl.find_opt memo key with
    | Some b -> b
    | None ->
      let b =
        Smart.Database.build_all db ~kind:t.kind
          (Smart.Database.requirements t.bits)
      in
      Hashtbl.replace memo key b;
      b

type verdict = {
  response : Wire.Response.t option;
  advice : string option;  (** the advice object, as sent *)
  width : float;
  failure : string option;
}

let advice_text line =
  match Jsonx.parse line with
  | Ok j -> Option.map Jsonx.to_string (Jsonx.member "advice" j)
  | Error _ -> None

(* The gate on one reply: decodes, has the expected answer class, and a
   winner that the golden timer confirms at the requested delay. *)
let check_reply build (r : request) line =
  let fail msg = { response = None; advice = None; width = 0.; failure = Some msg } in
  match Wire.Response.of_line line with
  | Error e -> fail ("undecodable reply: " ^ Smart.Error.to_string e)
  | Ok resp -> (
    let v = { response = Some resp; advice = advice_text line; width = 0.; failure = None } in
    let bad msg = { v with failure = Some (r.rid ^ ": " ^ msg) } in
    match (resp.Wire.Response.payload, r.impossible) with
    | Wire.Response.Failed e, true ->
      if Smart.Error.code e = "infeasible-spec" then v
      else bad ("impossible spec answered " ^ Smart.Error.code e)
    | Wire.Response.Failed e, false -> bad ("refused: " ^ Smart.Error.to_string e)
    | Wire.Response.Advice _, true -> bad "impossible spec answered with advice"
    | (Wire.Response.Pong | Wire.Response.Stats _), _ -> bad "unexpected payload"
    | Wire.Response.Advice a, false -> (
      match
        List.find_opt
          (fun (c : Wire.Advice.candidate) -> c.Wire.Advice.entry = a.Wire.Advice.winner)
          a.Wire.Advice.ranked
      with
      | None -> bad "winner missing from the ranking"
      | Some c -> (
        match
          List.find_opt
            (fun ((e : Smart.Database.entry), _) ->
              e.Smart.Database.entry_name = a.Wire.Advice.winner)
            (build r.tmpl)
        with
        | None -> bad ("no database entry " ^ a.Wire.Advice.winner)
        | Some (_, info) -> (
          match
            retime info.Smart.Macro.netlist c.Wire.Advice.sizing ~target:r.delay
          with
          | Ok () -> { v with width = c.Wire.Advice.width_um }
          | Error msg -> bad msg))))

let op_of_reply ~measured (r : request) (rep : Serve_load.reply) (v : verdict) =
  {
    Obs.op_id = r.rid;
    measured;
    sent = rep.Serve_load.sent;
    replied = rep.Serve_load.replied;
    served_on = Some rep.Serve_load.domain;
    wall_ms = Option.bind v.response (fun resp -> resp.Wire.Response.wall_ms);
    template = Some (r.tmpl.kind, r.tmpl.bits);
  }

(* Ranked and rejected candidates over the advice replies, and the
   requests refused as [overloaded]. *)
let advice_counts vs =
  List.fold_left
    (fun (c, rj, rf) v ->
      match v.response with
      | Some { Wire.Response.payload = Wire.Response.Advice a; _ } ->
        (c + List.length a.Wire.Advice.ranked, rj + List.length a.Wire.Advice.rejected, rf)
      | Some { Wire.Response.payload = Wire.Response.Failed e; _ }
        when Smart.Error.code e = "overloaded" ->
        (c, rj, rf + 1)
      | _ -> (c, rj, rf))
    (0, 0, 0) vs

(* The first feasible delay seen per template: the replay inputs. *)
let templates_seen reqs =
  List.fold_left
    (fun acc (r : request) ->
      if r.impossible
         || List.exists
              (function
                | Obs.Template t -> t.kind = r.tmpl.kind && t.bits = r.tmpl.bits
                | Obs.Netlist _ -> false)
              acc
      then acc
      else Obs.Template { kind = r.tmpl.kind; bits = r.tmpl.bits; delay = r.delay } :: acc)
    [] reqs
  |> List.rev

let sum_widths vs = List.fold_left (fun a v -> a +. v.width) 0. vs
let failures vs = List.filter_map (fun v -> v.failure) vs

type window = {
  t0 : float;
  c0 : float;
  minor0 : float;
  major0 : int;
}

let open_window () =
  let g = Gc.quick_stat () in
  {
    t0 = Harness.now ();
    c0 = Harness.cpu_s ();
    minor0 = g.Gc.minor_words;
    major0 = g.Gc.major_collections;
  }

(* Elapsed (wall, cpu, minor words, major collections) since [w]. *)
let close_window w =
  let g = Gc.quick_stat () in
  ( Harness.now () -. w.t0,
    Harness.cpu_s () -. w.c0,
    g.Gc.minor_words -. w.minor0,
    g.Gc.major_collections - w.major0 )

let advise_cold ctx =
  let rng = Rng.create ctx.seed in
  let deck = cold_deck ~toy:ctx.toy in
  let deck_len = List.length deck in
  let counter = ref 0 in
  let deal rng =
    Array.map
      (fun (i, impossible) ->
        let t = menu.(i) in
        let delay =
          if impossible then Rng.uniform rng 0.2 0.25 *. t.lo
          else Rng.uniform rng t.lo t.hi
        in
        (t, delay, impossible))
      (shuffled rng deck)
  in
  let slot = dealer rng ~len:deck_len deal in
  let n = deck_len * decks ctx ~deck_s:3.6 in
  let issued = ref [] in
  let server, setups = start_daemons ctx (set_ups_in ~gaps:2 0) in
  let w = open_window () in
  let next () =
    let i = !counter in
    if i < n then begin
      incr counter;
      let t, delay, impossible = slot i in
      let r = request ~rid:(string_of_int i) t ~delay ~impossible in
      issued := r :: !issued;
      Some (i, r.line)
    end
    else None
  in
  let replies = Serve_load.closed_loop server ~clients:2 ~next in
  let window_s, cpu_s, minor_words, major_collections = close_window w in
  let cache = Engine.cache_stats (Server.engine server) in
  Server.shutdown server;
  let setups = setups @ time_daemons ctx (set_ups_in ~gaps:2 1) in
  let reqs = Array.of_list (List.rev !issued) in
  let build = builder () in
  let checked =
    List.map
      (fun (rep : Serve_load.reply) ->
        let r = reqs.(rep.Serve_load.idx) in
        (r, rep, check_reply build r rep.Serve_load.line))
      replies
  in
  let first_deck = List.filteri (fun i _ -> i < deck_len) checked in
  let verdicts = List.map (fun (_, _, v) -> v) checked in
  let candidates, rejected, refused = advice_counts verdicts in
  {
    Obs.ops = List.map (fun (r, rep, v) -> op_of_reply ~measured:true r rep v) checked;
    setups;
    window_s;
    cpu_s;
    minor_words;
    major_collections;
    attempted = Array.length reqs;
    failures =
      failures verdicts
      @ (if List.length replies = Array.length reqs then [] else [ "lost replies" ]);
    width_um = sum_widths (List.map (fun (_, _, v) -> v) first_deck);
    inputs = templates_seen (Array.to_list reqs);
    wire =
      List.map
        (fun (r, (rep : Serve_load.reply), _) -> (r.line, rep.Serve_load.line))
        first_deck;
    candidates;
    rejected;
    refused;
    impossible =
      List.filter_map (fun (r, _, _) -> if r.impossible then Some r.rid else None) checked;
    store_dir = None;
    cache = [ cache ];
    hier = [];
  }

let advise_repeat ctx =
  let rng = Rng.create ctx.seed in
  let keys =
    List.mapi
      (fun k (i, pos) ->
        let t = menu.(i) in
        let pos = Float.min 1. (Float.max 0. (pos +. Rng.uniform rng (-0.05) 0.05)) in
        request ~rid:(Printf.sprintf "key%d" k) t
          ~delay:(t.lo +. (pos *. (t.hi -. t.lo)))
          ~impossible:false)
      (repeat_keys ~toy:ctx.toy)
    |> Array.of_list
  in
  let per_deck = if ctx.toy then 8 else 128 in
  let counts = zipf_counts ~per_deck (Array.length keys) in
  let deck = List.concat (List.mapi (fun k c -> List.init c (fun _ -> k)) counts) in
  let deck_len = List.length deck in
  let slot = dealer rng ~len:deck_len (fun rng -> shuffled rng deck) in
  let cache_dir = Filename.concat ctx.scratch "cache" in
  Harness.rm_rf cache_dir;
  (* Prefill: every key solved once, cold, into the persistent store —
     warm-up traffic, not measured. *)
  let prefill, prefill_replies =
    let s, _ = start_daemon ~cache_dir ctx in
    let i = ref 0 in
    let next () =
      if !i < Array.length keys then begin
        incr i;
        Some (!i - 1, keys.(!i - 1).line)
      end
      else None
    in
    let replies = Serve_load.closed_loop s ~clients:2 ~next in
    let st = Engine.cache_stats (Server.engine s) in
    Server.shutdown s;
    (st, replies)
  in
  let build = builder () in
  let first =
    List.map
      (fun (rep : Serve_load.reply) ->
        let r = keys.(rep.Serve_load.idx) in
        (r, rep, check_reply build r rep.Serve_load.line))
      prefill_replies
  in
  let first_advice = Array.make (Array.length keys) None in
  List.iter
    (fun (_, (rep : Serve_load.reply), v) -> first_advice.(rep.Serve_load.idx) <- v.advice)
    first;
  let repeat_of i =
    let k = slot i in
    (k, request ~rid:(Printf.sprintf "r%d" i) keys.(k).tmpl ~delay:keys.(k).delay
          ~impossible:false)
  in
  (* One phase: half the pass's decks through one daemon, from stream
     position [from]. *)
  let per_phase = deck_len * decks { ctx with seconds = ctx.seconds /. 2. } ~deck_s:7. in
  let phase server ~from =
    let counter = ref from in
    let next () =
      let i = !counter in
      if i < from + per_phase then begin
        incr counter;
        Some (i, (snd (repeat_of i)).line)
      end
      else None
    in
    Serve_load.closed_loop server ~clients:2 ~next
  in
  let server1, setups1 = start_daemons ~cache_dir ctx (set_ups_in ~gaps:2 0) in
  let w1 = open_window () in
  let phase1 = phase server1 ~from:0 in
  let wall1, cpu1, minor1, major1 = close_window w1 in
  let cache1 = Engine.cache_stats (Server.engine server1) in
  Server.shutdown server1;
  let server2, restart = start_daemon ~cache_dir ctx in
  let w2 = open_window () in
  let phase2 = phase server2 ~from:per_phase in
  let wall2, cpu2, minor2, major2 = close_window w2 in
  let cache2 = Engine.cache_stats (Server.engine server2) in
  Server.shutdown server2;
  let setups2 = time_daemons ~cache_dir ctx (set_ups_in ~gaps:2 1) in
  let measured = phase1 @ phase2 in
  let checked =
    List.map
      (fun (rep : Serve_load.reply) ->
        let k, r = repeat_of rep.Serve_load.idx in
        let v =
          let line = rep.Serve_load.line in
          match (Wire.Response.of_line line, advice_text line) with
          | Error e, _ ->
            { response = None; advice = None; width = 0.;
              failure = Some ("undecodable reply: " ^ Smart.Error.to_string e) }
          | Ok resp, advice ->
            let v = { response = Some resp; advice; width = 0.; failure = None } in
            if advice <> None && advice = first_advice.(k) then v
            else
              { v with
                failure =
                  Some (Printf.sprintf "%s: advice differs from the first reply for %s"
                          r.rid keys.(k).rid) }
        in
        (r, rep, v))
      measured
  in
  let all = first @ checked in
  let verdicts = List.map (fun (_, _, v) -> v) all in
  let candidates, rejected, refused = advice_counts verdicts in
  {
    Obs.ops =
      List.map (fun (r, rep, v) -> op_of_reply ~measured:false r rep v) first
      @ List.map (fun (r, rep, v) -> op_of_reply ~measured:true r rep v) checked;
    setups = setups1 @ (restart :: setups2);
    window_s = wall1 +. wall2;
    cpu_s = cpu1 +. cpu2;
    minor_words = minor1 +. minor2;
    major_collections = major1 + major2;
    attempted = List.length all;
    failures =
      failures verdicts
      @
      if List.length prefill_replies = Array.length keys then []
      else [ "lost prefill replies" ];
    width_um = sum_widths (List.map (fun (_, _, v) -> v) first);
    inputs = templates_seen (Array.to_list keys);
    wire =
      List.map (fun (r, (rep : Serve_load.reply), _) -> (r.line, rep.Serve_load.line)) first;
    candidates;
    rejected;
    refused;
    impossible = [];
    store_dir = Some cache_dir;
    cache = [ prefill; cache1; cache2 ];
    hier = [];
  }

(* ------------------------------------------------------------------ *)
(* Sizing workloads                                                    *)
(* ------------------------------------------------------------------ *)

type sized = {
  width : float;
  labels : (string * float) list;  (** the accepted sizing *)
  target : float;
  failure : string option;
}

let failed ~target msg = { width = 0.; labels = []; target; failure = Some msg }

(* Ops one at a time on the bench's own domain, each with a fresh
   engine; an op took [op_s] seconds on the reference host.  [op i] runs
   op [i] and returns its gate with the engine's cache counters and any
   hierarchy report.  Only the ops are measured: each gate and set-up
   group runs between ops, outside the window, so the pass keeps no op's
   result alive. *)
let sizing_pass ctx ~deck ~op_s ~setup ~op ~inputs ~wire_kind =
  let n = deck * decks ctx ~deck_s:(op_s *. float_of_int deck) in
  let setups = ref [] in
  let set_up g =
    for _ = 1 to set_ups_in ~gaps:(n + 1) g do
      setups := snd (Harness.time setup) :: !setups
    done
  in
  let rec loop i acc =
    set_up i;
    if i < n then begin
      let w = open_window () in
      let gate, cache, hier = op i in
      let window = close_window w in
      let (s : sized) = gate () in
      loop (i + 1) ((i, w.t0, window, s, cache, hier) :: acc)
    end
    else List.rev acc
  in
  let ran = loop 0 [] in
  let total f = List.fold_left (fun a (_, _, window, _, _, _) -> a +. f window) 0. ran in
  let done_ = List.map (fun (i, _, _, s, _, _) -> (i, s)) ran in
  let first_deck = List.filter (fun (i, _) -> i < deck) done_ in
  let wire_pair (i, (s : sized)) =
    let kind, bits = wire_kind in
    let id = string_of_int i in
    let candidate =
      {
        Wire.Advice.entry = kind;
        delay_ps = s.target;
        width_um = s.width;
        clock_um = 0.;
        power_uw = 0.;
        score = s.width;
        iterations = 0;
        binding_corner = None;
        corners = [];
        sizing = s.labels;
      }
    in
    ( Wire.Request.to_line (Wire.Request.make ~id ~delay:s.target ~kind ~bits ()),
      Wire.Response.to_line
        (Wire.Response.ok ~id ~cache:"solved"
           {
             Wire.Advice.v = Wire.version;
             winner = kind;
             metric = "area";
             target_ps = s.target;
             ranked = [ candidate ];
             rejected = [];
           }) )
  in
  {
    Obs.ops =
      List.map
        (fun (i, sent, (wall, _, _, _), _, _, _) ->
          {
            Obs.op_id = string_of_int i;
            measured = true;
            sent;
            replied = sent +. wall;
            served_on = None;
            wall_ms = None;
            template = None;
          })
        ran;
    setups = !setups;
    window_s = total (fun (wall, _, _, _) -> wall);
    cpu_s = total (fun (_, cpu, _, _) -> cpu);
    minor_words = total (fun (_, _, minor, _) -> minor);
    major_collections =
      List.fold_left (fun a (_, _, (_, _, _, major), _, _, _) -> a + major) 0 ran;
    attempted = List.length done_;
    failures =
      List.filter_map
        (fun (i, s) -> Option.map (fun m -> Printf.sprintf "op %d: %s" i m) s.failure)
        done_;
    width_um = List.fold_left (fun a (_, s) -> a +. s.width) 0. first_deck;
    inputs = inputs (List.map snd first_deck);
    wire = List.map wire_pair first_deck;
    candidates = 0;
    rejected = 0;
    refused = 0;
    impossible = [];
    store_dir = None;
    cache = List.map (fun (_, _, _, _, c, _) -> c) ran;
    hier = List.concat_map (fun (_, _, _, _, _, h) -> h) ran;
  }

(* Target [i] of stratified decks over [lo, hi]: deck position [j] of a
   [deck]-op deck draws uniformly inside stratum [j], in shuffled order. *)
let stratified rng ~deck ~lo ~hi =
  let deal rng =
    Array.map
      (fun j ->
        let u = Rng.uniform rng 0. 1. in
        lo +. ((float_of_int j +. u) /. float_of_int deck *. (hi -. lo)))
      (shuffled rng (List.init deck Fun.id))
  in
  dealer rng ~len:deck deal

let failure_of = function Ok () -> None | Error m -> Some m

(* The replay input: the netlist at the first op's target. *)
let first_input gen = function
  | (s : sized) :: _ -> [ Obs.Netlist { build = gen; spec = Constraints.spec s.target } ]
  | [] -> []

let adder64_sweep ctx =
  let rng = Rng.create ctx.seed in
  let bits, points = if ctx.toy then (8, 3) else (64, 6) in
  let gen () = Smart.Cla_adder.generate ~bits () in
  let nl = (gen ()).Smart.Macro.netlist in
  let band =
    dealer rng ~len:1 (fun rng ->
        [| (1.08 +. Rng.uniform rng (-0.005) 0.005, 1.42 +. Rng.uniform rng (-0.005) 0.005) |])
  in
  let op i =
    let min_relax, max_relax = band i in
    let engine = Engine.create ~workers ~cache_capacity:0 ~sink:ctx.sink () in
    let r =
      Smart.Explore.sweep_area_delay ~engine ~points ~min_relax ~max_relax tech nl
        (Constraints.spec 1e6)
    in
    let gate () =
      match r with
      | Error e -> failed ~target:0. (Smart.Error.to_string e)
      | Ok sw ->
        let curve = sw.Smart.Explore.sweep_curve in
        let widths = List.map snd curve in
        let rec non_increasing = function
          | a :: (b :: _ as rest) -> b <= a *. (1. +. 1e-9) && non_increasing rest
          | _ -> true
        in
        let failure =
          if sw.Smart.Explore.sweep_skipped <> [] then
            Some
              (Printf.sprintf "%d points skipped"
                 (List.length sw.Smart.Explore.sweep_skipped))
          else if List.length curve <> points then
            Some (Printf.sprintf "%d of %d points" (List.length curve) points)
          else if not (non_increasing widths) then Some "width increases along the sweep"
          else None
        in
        {
          width = Harness.sum widths;
          (* The sweep reports widths only; the wire replay ships one
             width per label of this netlist. *)
          labels = List.map (fun l -> (l, tech.Smart.Tech.w_min)) (Netlist.labels nl);
          target = (match curve with (d, _) :: _ -> d | [] -> 0.);
          failure;
        }
    in
    (gate, Engine.cache_stats engine, [])
  in
  sizing_pass ctx ~deck:1 ~op_s:11.
    ~setup:(fun () -> ignore (gen (), Engine.create ~workers ~cache_capacity:0 ()))
    ~op ~inputs:(first_input gen) ~wire_kind:("adder", bits)

let adder64_corners ctx =
  let rng = Rng.create ctx.seed in
  (* 1.20-1.40x the slow-corner minimum delay (489.4 ps at 64 bits,
     256.7 ps at 8). *)
  let bits, lo, hi = if ctx.toy then (8, 308., 359.) else (64, 587., 685.) in
  let deck = if ctx.toy then 1 else 4 in
  let gen () = Smart.Cla_adder.generate ~bits () in
  let nl = (gen ()).Smart.Macro.netlist in
  let set = Corners.default_set () in
  let target_of = stratified rng ~deck ~lo ~hi in
  let op i =
    let target = target_of i in
    let engine = Engine.create ~workers ~cache_capacity:0 ~sink:ctx.sink () in
    let r =
      Engine.size_robust engine ~options:Sizer.default_options set nl (Constraints.spec target)
    in
    let gate () =
      match r with
      | Error e -> failed ~target (Smart.Error.to_string e)
      | Ok ro ->
        let o = ro.Sizer.robust in
        let failure =
          List.find_map
            (fun (c : Corners.corner) ->
              Option.map
                (fun m -> c.Corners.corner_name ^ ": " ^ m)
                (failure_of (retime ~tech:c.Corners.tech nl o.Sizer.sizing ~target)))
            (Corners.to_list set)
        in
        { width = o.Sizer.total_width; labels = o.Sizer.sizing; target; failure }
    in
    (gate, Engine.cache_stats engine, [])
  in
  sizing_pass ctx ~deck ~op_s:3.6
    ~setup:(fun () -> ignore (gen (), Engine.create ~workers ~cache_capacity:0 ()))
    ~op ~inputs:(first_input gen) ~wire_kind:("adder", bits)

let datapath_1152 ctx =
  let rng = Rng.create ctx.seed in
  (* Targets at 0.83-0.86x the delay of a uniform 4x-minimum sizing
     (2534 ps for the full datapath, 994.4 ps for the toy one): every
     target in the band is met. *)
  let (columns, stages, tail), reference =
    if ctx.toy then ((3, 6, 2), 994.4) else ((14, 16, 6), 2534.)
  in
  let deck = if ctx.toy then 1 else 8 in
  let gen () = Smart.Datapath.generate ~columns ~stages ~tail () in
  let nl = (gen ()).Smart.Macro.netlist in
  let target_of = stratified rng ~deck ~lo:(0.83 *. reference) ~hi:(0.86 *. reference) in
  let op i =
    let target = target_of i in
    let engine = Engine.create ~workers ~sink:ctx.sink () in
    let r = Smart.Hier.size ~engine tech nl (Constraints.spec target) in
    let gate () =
      match r with
      | Error e -> failed ~target (Smart.Error.to_string e)
      | Ok h ->
        let o = h.Smart.Hier.sizer in
        {
          width = o.Sizer.total_width;
          labels = o.Sizer.sizing;
          target;
          failure = failure_of (retime nl o.Sizer.sizing ~target);
        }
    in
    let report = match r with Ok h -> [ h.Smart.Hier.report ] | Error _ -> [] in
    (gate, Engine.cache_stats engine, report)
  in
  sizing_pass ctx ~deck ~op_s:0.82
    ~setup:(fun () -> ignore (gen (), Engine.create ~workers ()))
    ~op ~inputs:(first_input gen) ~wire_kind:("datapath", stages)

let all =
  [
    ("advise-cold", advise_cold);
    ("advise-repeat", advise_repeat);
    ("adder64-sweep", adder64_sweep);
    ("adder64-corners", adder64_corners);
    ("datapath-1152", datapath_1152);
  ]
