module Err = Smart_util.Err
module Netlist = Smart_circuit.Netlist
module Cell = Smart_circuit.Cell
module Pdn = Smart_circuit.Pdn

type step = { s_inst : Netlist.instance; s_pin : string }
type path = { steps : step list }
type reductions = { regularity : bool; precedence : bool; dominance : bool }

let all_reductions = { regularity = true; precedence = true; dominance = true }
let no_reductions = { regularity = false; precedence = false; dominance = false }

type stats = {
  exhaustive_paths : float;
  reduced_paths : int;
  class_count : int;
  reduction_factor : float;
}

(* ------------------------------------------------------------------ *)
(* Exhaustive count by dynamic programming (never enumerated)          *)
(* ------------------------------------------------------------------ *)

let exhaustive_count t =
  let n = Array.length t.Netlist.nets in
  let npaths = Array.make n 0. in
  Array.iter
    (fun (net : Netlist.net) ->
      if net.Netlist.net_kind = Netlist.Primary_input then
        npaths.(net.Netlist.net_id) <- 1.)
    t.Netlist.nets;
  List.iter
    (fun (i : Netlist.instance) ->
      let into =
        List.fold_left (fun acc (_, nid) -> acc +. npaths.(nid)) 0. i.Netlist.conns
      in
      npaths.(i.Netlist.out) <- npaths.(i.Netlist.out) +. into)
    (Netlist.topo_order t);
  List.fold_left (fun acc nid -> acc +. npaths.(nid)) 0. t.Netlist.outputs

(* ------------------------------------------------------------------ *)
(* Net classes by recursive structural hashing                         *)
(* ------------------------------------------------------------------ *)

type classes = {
  of_net : int array;  (** net id -> class id *)
  rep : (int, Netlist.net_id) Hashtbl.t;  (** class id -> representative *)
  count : int;
}

let ext_load_of t nid =
  List.fold_left
    (fun acc (n, c) -> if n = nid then acc +. c else acc)
    0. t.Netlist.ext_loads

let compute_classes red t =
  let n = Array.length t.Netlist.nets in
  let of_net = Array.make n (-1) in
  let keys : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let rep = Hashtbl.create 64 in
  let rep_fanout = Hashtbl.create 64 in
  let next = ref 0 in
  let intern key nid =
    let cls =
      match Hashtbl.find_opt keys key with
      | Some c -> c
      | None ->
        let c = !next in
        incr next;
        Hashtbl.add keys key c;
        c
    in
    (* Fanout dominance: the class representative is the member driving the
       most fanout (worst load under any common sizing). *)
    let fo = Netlist.fanout_count t nid in
    (match Hashtbl.find_opt rep_fanout cls with
    | Some best when best >= fo -> ()
    | _ ->
      Hashtbl.replace rep cls nid;
      Hashtbl.replace rep_fanout cls fo);
    of_net.(nid) <- cls;
    cls
  in
  let rec class_of nid =
    if of_net.(nid) >= 0 then of_net.(nid)
    else begin
      let net = Netlist.net t nid in
      let kind_tag =
        match net.Netlist.net_kind with
        | Netlist.Primary_input -> "I"
        | Netlist.Primary_output -> "O"
        | Netlist.Internal -> "W"
        | Netlist.Clock -> "C"
      in
      let body =
        if not red.regularity then Printf.sprintf "net%d" nid
        else
          match net.Netlist.net_kind with
          | Netlist.Primary_input | Netlist.Clock -> ""
          | Netlist.Primary_output | Netlist.Internal ->
            let driver_key (i : Netlist.instance) =
              let fanins =
                List.map
                  (fun (pin, fnid) -> Printf.sprintf "%s=%d" pin (class_of fnid))
                  (List.sort compare i.Netlist.conns)
              in
              Printf.sprintf "%s{%s}(%s)"
                (Cell.gate_name i.Netlist.cell)
                (String.concat "," (Cell.labels i.Netlist.cell))
                (String.concat "," fanins)
            in
            let drivers =
              List.sort String.compare (List.map driver_key (Netlist.drivers t nid))
            in
            String.concat ";" drivers
      in
      let fanout_tag =
        if red.dominance then ""
        else
          let profile =
            List.map
              (fun ((i : Netlist.instance), pin) ->
                Printf.sprintf "%s.%s{%s}"
                  (Cell.gate_name i.Netlist.cell)
                  pin
                  (String.concat "," (Cell.labels i.Netlist.cell)))
              (Netlist.fanout t nid)
            |> List.sort String.compare
          in
          "!" ^ String.concat "," profile
      in
      let key =
        Printf.sprintf "%s|%s|%g%s" kind_tag body (ext_load_of t nid) fanout_tag
      in
      intern key nid
    end
  in
  Array.iter (fun (net : Netlist.net) -> ignore (class_of net.Netlist.net_id)) t.Netlist.nets;
  { of_net; rep; count = !next }

let classes ?(reductions = all_reductions) t = compute_classes reductions t
let class_of_net c nid = c.of_net.(nid)

let class_rep c cls =
  match Hashtbl.find_opt c.rep cls with
  | Some nid -> nid
  | None -> Err.fail "Paths.class_rep: unknown class %d" cls

let class_count c = c.count

let class_reps c =
  List.init c.count (fun cls -> Hashtbl.find c.rep cls)

(* ------------------------------------------------------------------ *)
(* Pin precedence                                                      *)
(* ------------------------------------------------------------------ *)

(* Static stack-position weight of a pin: the heavier its worst conducting
   chain, the slower the pin. *)
let pin_weight (cell : Cell.kind) pin =
  let chain_weight pdn =
    match Pdn.series_chain_through pdn pin with
    | Some chain -> List.fold_left (fun acc (_, m) -> acc +. m) 0. chain
    | None -> 0.
  in
  match cell with
  | Cell.Static { pull_down; _ } | Cell.Domino { pull_down; _ } ->
    chain_weight pull_down
  | Cell.Passgate _ | Cell.Tristate _ -> 0.

(* Pins to explore for an instance: group pins whose fanins share a class
   AND whose arcs are of the same kind (a data pin never stands in for a
   control pin -- their constraints differ, §5.3); keep only the slowest
   pin of each group. *)
let kept_pins red classes (i : Netlist.instance) =
  let pins = List.map fst i.Netlist.conns in
  if not red.precedence then pins
  else begin
    let module Arc = Smart_models.Arc in
    let groups : (int * Arc.kind, string list) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun (pin, nid) ->
        let kind = (Arc.arc_of_pin i.Netlist.cell pin).Arc.kind in
        let cls = (classes.of_net.(nid), kind) in
        let cur = try Hashtbl.find groups cls with Not_found -> [] in
        Hashtbl.replace groups cls (pin :: cur))
      i.Netlist.conns;
    Hashtbl.fold
      (fun _ group acc ->
        let slowest =
          List.fold_left
            (fun best pin ->
              let w = pin_weight i.Netlist.cell pin in
              let bw = pin_weight i.Netlist.cell best in
              if w > bw || (w = bw && String.compare pin best < 0) then pin else best)
            (List.hd group) (List.tl group)
        in
        slowest :: acc)
      groups []
  end

(* ------------------------------------------------------------------ *)
(* Enumeration over the class quotient                                 *)
(* ------------------------------------------------------------------ *)

let path_endpoint p =
  match List.rev p.steps with
  | last :: _ -> last.s_inst.Netlist.out
  | [] -> Err.fail "Paths.path_endpoint: empty path"

let extract ?(reductions = all_reductions) ?(max_paths = 200_000) t =
  let classes = compute_classes reductions t in
  let out_classes =
    List.sort_uniq compare (List.map (fun nid -> classes.of_net.(nid)) t.Netlist.outputs)
  in
  (* Budget: count complete paths by dynamic programming over the class
     quotient before materializing anything.  Charging materialized
     intermediate lists instead (as this used to) re-bills every shared
     prefix — a linear chain of N gates with one real path was charged N
     times — and trips the guard on heavily-shared DAGs long before
     [max_paths] distinct paths exist. *)
  let count_memo : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let rec count_to cls =
    match Hashtbl.find_opt count_memo cls with
    | Some c -> c
    | None ->
      let nid = Hashtbl.find classes.rep cls in
      let net = Netlist.net t nid in
      let c =
        match net.Netlist.net_kind with
        | Netlist.Primary_input | Netlist.Clock -> 1.
        | Netlist.Primary_output | Netlist.Internal ->
          List.fold_left
            (fun acc (i : Netlist.instance) ->
              List.fold_left
                (fun acc pin ->
                  let fanin = List.assoc pin i.Netlist.conns in
                  acc +. count_to classes.of_net.(fanin))
                acc
                (kept_pins reductions classes i))
            0. (Netlist.drivers t nid)
      in
      Hashtbl.replace count_memo cls c;
      c
  in
  let total = List.fold_left (fun acc cls -> acc +. count_to cls) 0. out_classes in
  if total > float_of_int max_paths then
    Err.fail "Paths.extract: more than %d paths in %s; enable reductions"
      max_paths t.Netlist.name;
  (* Every memoized class is an ancestor of an output, so each stored
     prefix extends to at least one distinct complete path: intermediate
     lists stay within the budget just checked.  Paths are built in
     reverse (constant-time cons on the shared prefix) and flipped once at
     the outputs. *)
  let memo : (int, step list list) Hashtbl.t = Hashtbl.create 64 in
  let rec paths_to cls =
    match Hashtbl.find_opt memo cls with
    | Some ps -> ps
    | None ->
      let nid = Hashtbl.find classes.rep cls in
      let net = Netlist.net t nid in
      let result =
        match net.Netlist.net_kind with
        | Netlist.Primary_input | Netlist.Clock -> [ [] ]
        | Netlist.Primary_output | Netlist.Internal ->
          List.concat_map
            (fun (i : Netlist.instance) ->
              List.concat_map
                (fun pin ->
                  let fanin = List.assoc pin i.Netlist.conns in
                  let upstream = paths_to classes.of_net.(fanin) in
                  let step = { s_inst = i; s_pin = pin } in
                  List.map (fun p -> step :: p) upstream)
                (kept_pins reductions classes i))
            (Netlist.drivers t nid)
      in
      Hashtbl.replace memo cls result;
      result
  in
  let paths =
    List.concat_map
      (fun cls ->
        List.map (fun steps -> { steps = List.rev steps }) (paths_to cls))
      out_classes
  in
  let exhaustive = exhaustive_count t in
  let reduced = List.length paths in
  let stats =
    {
      exhaustive_paths = exhaustive;
      reduced_paths = reduced;
      class_count = classes.count;
      reduction_factor =
        (if reduced = 0 then 1. else exhaustive /. float_of_int reduced);
    }
  in
  (paths, stats)

(* Topological level per net: primary inputs sit at 0, a driven net one
   past its slowest fanin.  Kahn order guarantees every driver is levelled
   before its readers; co-driven nets (pass/tri-state buses) keep the max
   over their drivers.  The hierarchical sizer splits delay budgets by
   levelised depth share, so this lives here next to the path machinery. *)
let levels (t : Netlist.t) =
  let lvl = Array.make (Array.length t.Netlist.nets) 0 in
  List.iter
    (fun (i : Netlist.instance) ->
      let here =
        1
        + List.fold_left
            (fun acc (_, nid) -> max acc lvl.(nid))
            0 i.Netlist.conns
      in
      if here > lvl.(i.Netlist.out) then lvl.(i.Netlist.out) <- here)
    (Netlist.topo_order t);
  lvl

let depth t = Array.fold_left max 0 (levels t)
