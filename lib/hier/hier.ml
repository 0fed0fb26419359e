module Err = Smart_util.Err
module Tech = Smart_tech.Tech
module Netlist = Smart_circuit.Netlist
module Cell = Smart_circuit.Cell
module B = Smart_circuit.Netlist.Builder
module Paths = Smart_paths.Paths
module Posy = Smart_posy.Posy
module Monomial = Smart_posy.Monomial
module Problem = Smart_gp.Problem
module Constraints = Smart_constraints.Constraints
module Sizer = Smart_sizer.Sizer
module Sta = Smart_sta.Sta
module Load = Smart_models.Load
module Engine = Smart_engine.Engine

type mode = [ `Auto | `Off | `Force ]

type options = { auto_threshold : int; sizer : Sizer.options }

let default_options = { auto_threshold = 300; sizer = Sizer.default_options }

(* Decomposition and boundary constants.  A structural class dedups once
   it has [min_class_size] members of at least [min_class_gates] gates
   each; smaller components go to the residual partitioner, which cuts
   at most [max_partition] gates per partition.  The boundary fixed
   point runs at most [max_outer] iterations, and boundary loads, slopes
   and budgets are quantized into logarithmic buckets of relative width
   [boundary_quantum]. *)
let min_class_size = 2
let min_class_gates = 3
let max_partition = 48
let max_outer = 12
let boundary_quantum = 0.05

type plan = {
  total_instances : int;
  components : int;
  classes : int;
  dedup_classes : int;
  deduped_instances : int;
  residual_instances : int;
  partitions : int;
  cut_nets : int;
  class_sizes : (int * int) list;
}

type report = {
  plan : plan;
  outer_iterations : int;
  solves : int;
  distinct_tasks : int;
  dedup_ratio : float;
  boundary_movement : float;
}

type outcome = { sizer : Sizer.outcome; report : report }

let engages ?(options = default_options) mode nl =
  match mode with
  | `Off -> false
  | `Force -> true
  | `Auto -> Netlist.instance_count nl >= options.auto_threshold

(* ------------------------------------------------------------------ *)
(* Shared context: global fanout/level tables computed once            *)
(* ------------------------------------------------------------------ *)

type ctx = {
  nl : Netlist.t;
  tech : Tech.t;
  readers : (int, (Netlist.instance * string) list) Hashtbl.t;
  levels : int array;  (* per-net logic depth, for the FM seed split *)
  load : Load.t;  (* for loads seen through external pass gates *)
  span_prefix : string;
      (* caller's candidate label, threaded into every sub-solve span as
         "hier:<label>/<unit>" so batch callers (Explore) keep per-
         candidate trace-span parity with the monolithic Engine.size path *)
}

let span_label ctx unit_name =
  Printf.sprintf "hier:%s%s" ctx.span_prefix unit_name

let prep ?label tech nl =
  let readers = Hashtbl.create 256 in
  Array.iter
    (fun (i : Netlist.instance) ->
      List.iter
        (fun (pin, nid) ->
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt readers nid)
          in
          Hashtbl.replace readers nid ((i, pin) :: cur))
        i.Netlist.conns)
    nl.Netlist.instances;
  let levels = Paths.levels nl in
  let span_prefix = match label with Some l -> l ^ "/" | None -> "" in
  { nl; tech; readers; levels; load = Load.make tech nl; span_prefix }

let readers_of ctx nid =
  Option.value ~default:[] (Hashtbl.find_opt ctx.readers nid)

let orig_ext_load ctx nid =
  List.fold_left
    (fun acc (n, c) -> if n = nid then acc +. c else acc)
    0. ctx.nl.Netlist.ext_loads

(* ------------------------------------------------------------------ *)
(* Components: closure of label-sharing and net co-driving             *)
(* ------------------------------------------------------------------ *)

module Uf = struct
  let create n = Array.init n (fun i -> i)

  let rec find t i =
    if t.(i) = i then i
    else begin
      let r = find t t.(i) in
      t.(i) <- r;
      r
    end

  let union t i j =
    let ri = find t i and rj = find t j in
    if ri <> rj then if ri < rj then t.(rj) <- ri else t.(ri) <- rj
end

(* Two gates must share one GP sub-problem when a size label couples them
   (a shared variable cannot take two values) or when they co-drive a net
   (the driver set of a pass/tri-state bus is indivisible). *)
let components (nl : Netlist.t) =
  let n = Array.length nl.Netlist.instances in
  let uf = Uf.create n in
  let by_label = Hashtbl.create 128 in
  Array.iter
    (fun (i : Netlist.instance) ->
      List.iter
        (fun l ->
          match Hashtbl.find_opt by_label l with
          | Some j -> Uf.union uf i.Netlist.inst_id j
          | None -> Hashtbl.add by_label l i.Netlist.inst_id)
        (Cell.labels i.Netlist.cell))
    nl.Netlist.instances;
  let first_driver = Hashtbl.create 128 in
  Array.iter
    (fun (i : Netlist.instance) ->
      match Hashtbl.find_opt first_driver i.Netlist.out with
      | Some j -> Uf.union uf i.Netlist.inst_id j
      | None -> Hashtbl.add first_driver i.Netlist.out i.Netlist.inst_id)
    nl.Netlist.instances;
  let groups = Hashtbl.create 32 in
  Array.iter
    (fun (i : Netlist.instance) ->
      let r = Uf.find uf i.Netlist.inst_id in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups r) in
      Hashtbl.replace groups r (i.Netlist.inst_id :: cur))
    nl.Netlist.instances;
  Hashtbl.fold (fun _ ids acc -> List.sort compare ids :: acc) groups []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Canonical form of a component                                       *)
(* ------------------------------------------------------------------ *)

(* Name-free shape of a cell: labels replaced by local first-occurrence
   slots along [rename_labels]'s structural traversal. *)
let cell_shape cell =
  let k = ref 0 in
  let map = Hashtbl.create 4 in
  let c =
    Cell.rename_labels
      (fun l ->
        match Hashtbl.find_opt map l with
        | Some s -> s
        | None ->
          let s = Printf.sprintf "L%d" !k in
          incr k;
          Hashtbl.add map l s;
          s)
      cell
  in
  Marshal.to_string c []

(* Distinct labels of a cell in structural traversal order (the sorted
   [Cell.labels] order is name-dependent; this one is not). *)
let cell_labels_structural cell =
  let seen = Hashtbl.create 4 in
  let order = ref [] in
  ignore
    (Cell.rename_labels
       (fun l ->
         if not (Hashtbl.mem seen l) then begin
           Hashtbl.add seen l ();
           order := l :: !order
         end;
         l)
       cell);
  List.rev !order

(* Weisfeiler–Lehman colour refinement over a component: colours start
   from the name-free cell shape and absorb fanin/fanout/label-sharing
   neighbourhoods for a few rounds; the canonical instance order is then
   (colour, inst_id).  A colour tie between non-symmetric gates merely
   puts isomorphic-looking members into different byte classes — dedup
   lost, correctness untouched. *)
let canonical_order (nl : Netlist.t) member_ids =
  let members = List.map (fun id -> nl.Netlist.instances.(id)) member_ids in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let drv = Hashtbl.create 32 and rdr = Hashtbl.create 32 in
  let label_users = Hashtbl.create 32 in
  List.iter
    (fun (i : Netlist.instance) ->
      push drv i.Netlist.out i.Netlist.inst_id;
      List.iter (fun (pin, nid) -> push rdr nid (pin, i.Netlist.inst_id)) i.Netlist.conns;
      List.iter (fun l -> push label_users l i.Netlist.inst_id)
        (Cell.labels i.Netlist.cell))
    members;
  let color = Hashtbl.create 16 in
  List.iter
    (fun (i : Netlist.instance) ->
      Hashtbl.replace color i.Netlist.inst_id
        (Digest.string (cell_shape i.Netlist.cell)))
    members;
  let col id = Hashtbl.find color id in
  for _round = 1 to 4 do
    let next =
      List.map
        (fun (i : Netlist.instance) ->
          let fanins =
            List.sort compare
              (List.map
                 (fun (pin, nid) ->
                   let ds = Option.value ~default:[] (Hashtbl.find_opt drv nid) in
                   (pin, List.sort compare (List.map col ds)))
                 i.Netlist.conns)
          in
          let readers =
            List.sort compare
              (List.map
                 (fun (pin, id) -> (pin, col id))
                 (Option.value ~default:[] (Hashtbl.find_opt rdr i.Netlist.out)))
          in
          let sharers =
            List.map
              (fun l ->
                List.sort compare
                  (List.filter_map
                     (fun id ->
                       if id = i.Netlist.inst_id then None else Some (col id))
                     (Option.value ~default:[] (Hashtbl.find_opt label_users l))))
              (cell_labels_structural i.Netlist.cell)
          in
          ( i.Netlist.inst_id,
            Digest.string
              (Marshal.to_string (col i.Netlist.inst_id, fanins, readers, sharers) [])
          ))
        members
    in
    List.iter (fun (id, c) -> Hashtbl.replace color id c) next
  done;
  List.sort
    (fun (a : Netlist.instance) (b : Netlist.instance) ->
      match String.compare (col a.Netlist.inst_id) (col b.Netlist.inst_id) with
      | 0 -> compare a.Netlist.inst_id b.Netlist.inst_id
      | c -> c)
    members

type role = Rin | Rout | Rmid

type unit_t = {
  u_name : string;
  u_members : Netlist.instance list;  (* canonical order *)
  u_member_tbl : (int, unit) Hashtbl.t;
  u_gates : int;
  u_roles : (Netlist.net_id * role) list;  (* canonical net order *)
  u_structure : string;  (* name-free canonical digest *)
  u_slot_labels : string array;  (* slot -> actual label *)
  u_slot_of : (string, int) Hashtbl.t;  (* actual label -> slot *)
}

let make_unit ctx name ids =
  let insts = canonical_order ctx.nl ids in
  let member_tbl = Hashtbl.create (List.length ids) in
  List.iter (fun id -> Hashtbl.replace member_tbl id ()) ids;
  let outs = Hashtbl.create 32 in
  List.iter (fun (i : Netlist.instance) -> Hashtbl.replace outs i.Netlist.out ()) insts;
  (* Canonical net order: first occurrence over canonical instances, pins
     sorted by (canonical) pin name, output last. *)
  let order = ref [] in
  let seen = Hashtbl.create 32 in
  let note nid =
    if not (Hashtbl.mem seen nid) then begin
      Hashtbl.add seen nid ();
      order := nid :: !order
    end
  in
  List.iter
    (fun (i : Netlist.instance) ->
      List.iter
        (fun (_, nid) -> note nid)
        (List.sort (fun (p, _) (q, _) -> String.compare p q) i.Netlist.conns);
      note i.Netlist.out)
    insts;
  let role nid =
    if not (Hashtbl.mem outs nid) then Rin
    else begin
      let net = Netlist.net ctx.nl nid in
      let internal_reader = ref false and external_reader = ref false in
      List.iter
        (fun ((r : Netlist.instance), _) ->
          if Hashtbl.mem member_tbl r.Netlist.inst_id then internal_reader := true
          else external_reader := true)
        (readers_of ctx nid);
      if
        net.Netlist.net_kind = Netlist.Primary_output
        || !external_reader
        || orig_ext_load ctx nid > 0.
        || not !internal_reader
      then Rout
      else Rmid
    end
  in
  let roles = List.rev_map (fun nid -> (nid, role nid)) !order |> List.rev in
  let net_slot = Hashtbl.create 32 in
  List.iteri (fun k (nid, _) -> Hashtbl.add net_slot nid k) roles;
  let slot_of = Hashtbl.create 16 in
  let slots = ref [] in
  let assign l =
    match Hashtbl.find_opt slot_of l with
    | Some s -> s
    | None ->
      let s = Hashtbl.length slot_of in
      Hashtbl.add slot_of l s;
      slots := l :: !slots;
      s
  in
  let recs =
    List.map
      (fun (i : Netlist.instance) ->
        let canon_cell =
          Cell.rename_labels
            (fun l -> Printf.sprintf "S%d" (assign l))
            i.Netlist.cell
        in
        ( canon_cell,
          List.sort compare
            (List.map
               (fun (pin, nid) -> (pin, Hashtbl.find net_slot nid))
               i.Netlist.conns),
          Hashtbl.find net_slot i.Netlist.out,
          i.Netlist.clk <> None ))
      insts
  in
  let structure =
    Digest.to_hex
      (Digest.string (Marshal.to_string (List.map snd roles, recs) []))
  in
  {
    u_name = name;
    u_members = insts;
    u_member_tbl = member_tbl;
    u_gates = List.length insts;
    u_roles = roles;
    u_structure = structure;
    u_slot_labels = Array.of_list (List.rev !slots);
    u_slot_of = slot_of;
  }

(* ------------------------------------------------------------------ *)
(* FM-style min-cut partitioning of the residual                       *)
(* ------------------------------------------------------------------ *)

(* Nodes are residual components (indivisible: they share labels
   internally); edges count nets wired between two components.  Classic
   FM: start from a levelized split, then greedily move the best-gain
   unlocked node subject to a balance floor, keep the best cut seen, and
   repeat passes until no pass improves.  The residual is small (the
   regular bulk dedups away), so the quadratic scan is fine. *)
let bipartition nodes_weights adj =
  let n = Array.length nodes_weights in
  let total = Array.fold_left ( + ) 0 nodes_weights in
  let side = Array.make n false in
  (* Initial split: nodes arrive levelized; fill side A to half weight. *)
  let acc = ref 0 in
  for i = 0 to n - 1 do
    side.(i) <- not (!acc * 2 < total);
    if not side.(i) then acc := !acc + nodes_weights.(i)
  done;
  if not (Array.exists (fun b -> b) side) then side.(n - 1) <- true;
  if not (Array.exists not side) then side.(0) <- false;
  let cut_of side =
    let c = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if side.(i) <> side.(j) then c := !c + adj.(i).(j)
      done
    done;
    !c
  in
  let weight_a side =
    let w = ref 0 in
    Array.iteri (fun i s -> if not s then w := !w + nodes_weights.(i)) side;
    !w
  in
  let balanced side i =
    (* Weight of side A if node i flips. *)
    let wa = weight_a side in
    let wa' = if side.(i) then wa + nodes_weights.(i) else wa - nodes_weights.(i) in
    let lo = total * 3 / 10 in
    wa' >= lo && total - wa' >= lo
  in
  let gain side i =
    let g = ref 0 in
    for j = 0 to n - 1 do
      if j <> i then
        if side.(j) <> side.(i) then g := !g + adj.(i).(j)
        else g := !g - adj.(i).(j)
    done;
    !g
  in
  let improved = ref true in
  let best = Array.copy side in
  let best_cut = ref (cut_of side) in
  while !improved do
    improved := false;
    let locked = Array.make n false in
    let work = Array.copy best in
    Array.blit best 0 side 0 n;
    (try
       for _moves = 1 to n do
         let cand = ref None in
         for i = 0 to n - 1 do
           if (not locked.(i)) && balanced work i then begin
             let g = gain work i in
             match !cand with
             | Some (_, bg) when bg >= g -> ()
             | _ -> cand := Some (i, g)
           end
         done;
         match !cand with
         | None -> raise Exit
         | Some (i, _) ->
           work.(i) <- not work.(i);
           locked.(i) <- true;
           let c = cut_of work in
           if c < !best_cut then begin
             best_cut := c;
             Array.blit work 0 best 0 n;
             improved := true
           end
       done
     with Exit -> ())
  done;
  best

let rec fm_split nodes max_gates =
  (* nodes: (ids, gates, level, nets) per residual component *)
  let total = List.fold_left (fun acc (_, g, _, _) -> acc + g) 0 nodes in
  match nodes with
  | [] -> []
  | [ _ ] -> [ nodes ]
  | _ when total <= max_gates -> [ nodes ]
  | _ ->
    let nodes =
      List.sort (fun (_, _, la, _) (_, _, lb, _) -> compare la lb) nodes
    in
    let arr = Array.of_list nodes in
    let n = Array.length arr in
    let weights = Array.map (fun (_, g, _, _) -> g) arr in
    let adj = Array.make_matrix n n 0 in
    for i = 0 to n - 1 do
      let _, _, _, nets_i = arr.(i) in
      for j = i + 1 to n - 1 do
        let _, _, _, nets_j = arr.(j) in
        let shared =
          List.length (List.filter (fun nid -> List.mem nid nets_j) nets_i)
        in
        adj.(i).(j) <- shared;
        adj.(j).(i) <- shared
      done
    done;
    let side = bipartition weights adj in
    let a = ref [] and b = ref [] in
    Array.iteri
      (fun i node -> if side.(i) then b := node :: !b else a := node :: !a)
      arr;
    if !a = [] || !b = [] then [ nodes ]
    else fm_split (List.rev !a) max_gates @ fm_split (List.rev !b) max_gates

(* ------------------------------------------------------------------ *)
(* Decomposition: classes + residual partitions                        *)
(* ------------------------------------------------------------------ *)

type decomposition = {
  d_units : unit_t list;  (* every instance in exactly one unit *)
  d_plan : plan;
  d_cut : Netlist.net_id list;  (* driven nets crossing a unit boundary *)
}

let decompose ctx =
  let comps = components ctx.nl in
  let comp_units =
    List.map
      (fun ids -> make_unit ctx (Printf.sprintf "c%d" (List.hd ids)) ids)
      comps
  in
  (* Structural classes, first-seen order. *)
  let by_structure = Hashtbl.create 32 in
  let class_order = ref [] in
  List.iter
    (fun u ->
      match Hashtbl.find_opt by_structure u.u_structure with
      | Some l -> l := u :: !l
      | None ->
        let l = ref [ u ] in
        Hashtbl.add by_structure u.u_structure l;
        class_order := u.u_structure :: !class_order)
    comp_units;
  let classes =
    List.rev_map (fun s -> List.rev !(Hashtbl.find by_structure s)) !class_order
    |> List.rev
  in
  let dedup_classes, residual_classes =
    List.partition
      (fun cls ->
        List.length cls >= min_class_size && (List.hd cls).u_gates >= min_class_gates)
      classes
  in
  let dedup_units = List.concat dedup_classes in
  let residual_units = List.concat residual_classes in
  let residual_nodes =
    List.map
      (fun u ->
        let ids = List.map (fun (i : Netlist.instance) -> i.Netlist.inst_id) u.u_members in
        let nets =
          List.sort_uniq compare (List.map fst u.u_roles)
        in
        let level =
          List.fold_left (fun acc (nid, _) -> min acc ctx.levels.(nid)) max_int
            u.u_roles
        in
        (ids, u.u_gates, (if level = max_int then 0 else level), nets))
      residual_units
  in
  let partitions = fm_split residual_nodes max_partition in
  let partition_units =
    List.mapi
      (fun k nodes ->
        let ids = List.concat_map (fun (ids, _, _, _) -> ids) nodes in
        make_unit ctx (Printf.sprintf "part%d" k) (List.sort compare ids))
      partitions
  in
  let units = dedup_units @ partition_units in
  let cut =
    List.sort_uniq compare
      (List.concat_map
         (fun u ->
           List.filter_map
             (fun (nid, r) ->
               let net = Netlist.net ctx.nl nid in
               match (r, net.Netlist.net_kind) with
               | Rin, (Netlist.Internal | Netlist.Primary_output) -> Some nid
               | _ -> None)
             u.u_roles)
         units)
  in
  let gates_of us = List.fold_left (fun acc u -> acc + u.u_gates) 0 us in
  let plan =
    {
      total_instances = Netlist.instance_count ctx.nl;
      components = List.length comps;
      classes = List.length classes;
      dedup_classes = List.length dedup_classes;
      deduped_instances = gates_of dedup_units;
      residual_instances = gates_of residual_units;
      partitions = List.length partition_units;
      cut_nets = List.length cut;
      class_sizes =
        List.sort
          (fun (ma, ga) (mb, gb) -> compare (mb * gb, mb) (ma * ga, ma))
          (List.map
             (fun cls -> (List.length cls, (List.hd cls).u_gates))
             dedup_classes);
    }
  in
  { d_units = units; d_plan = plan; d_cut = cut }

let plan nl =
  (* The technology never affects the decomposition; use the default. *)
  (decompose (prep Tech.default nl)).d_plan

(* ------------------------------------------------------------------ *)
(* Boundary conditions and per-iteration tasks                         *)
(* ------------------------------------------------------------------ *)

(* Snap a positive quantity to a logarithmic bucket and return the
   bucket's representative value: equal buckets yield bit-equal floats,
   so sub-netlist digests are stable across iterations whose boundary
   drift stays inside one bucket. *)
let qlog quantum v =
  if v <= 1e-9 then 0.
  else (1. +. quantum) ** Float.round (log v /. log (1. +. quantum))

(* Capacitance an external reader set presents on a boundary net,
   mirroring the load model: wire cap per external fanout, gate cap of
   external input pins, and for channel-connected pins the diffusion cap
   plus the load seen through the conducting switch. *)
let external_cap ctx member_tbl ~sizing nid =
  let ext =
    List.filter
      (fun ((i : Netlist.instance), _) ->
        not (Hashtbl.mem member_tbl i.Netlist.inst_id))
      (readers_of ctx nid)
  in
  let wire =
    ctx.tech.Tech.wire_cap_per_fanout *. float_of_int (List.length ext)
  in
  let gate =
    List.fold_left
      (fun acc ((i : Netlist.instance), pin) ->
        List.fold_left
          (fun acc (label, mult) ->
            acc +. (ctx.tech.Tech.cg *. mult *. sizing label))
          acc
          (Cell.pin_cap_widths i.Netlist.cell pin))
      0. ext
  in
  let chan =
    List.fold_left
      (fun acc ((i : Netlist.instance), pin) ->
        match Cell.pin_diff_widths i.Netlist.cell pin with
        | [] -> acc
        | diffs ->
          let d =
            List.fold_left
              (fun acc (label, mult) ->
                acc +. (ctx.tech.Tech.cd *. mult *. sizing label))
              acc diffs
          in
          d +. Load.numeric ctx.load sizing i.Netlist.out)
      0. ext
  in
  orig_ext_load ctx nid +. wire +. gate +. chan

(* Materialize a unit as a standalone netlist: boundary inputs become
   primary inputs, boundary outputs carry their quantized external load,
   original net/instance names and labels are preserved (so a sub-solve's
   sizing applies to the global netlist directly). *)
let build_sub ctx u qcaps =
  let b = B.create ("hier_" ^ u.u_name) in
  let map = Hashtbl.create 32 in
  List.iter
    (fun (nid, role) ->
      let n = Netlist.net ctx.nl nid in
      let id =
        match role with
        | Rin -> B.input b n.Netlist.net_name
        | Rmid -> B.wire b n.Netlist.net_name
        | Rout ->
          let id = B.output b n.Netlist.net_name in
          (match List.assoc_opt nid qcaps with
          | Some cap when cap > 0. -> B.ext_load b id cap
          | _ -> ());
          id
      in
      Hashtbl.add map nid id)
    u.u_roles;
  List.iter
    (fun (i : Netlist.instance) ->
      B.inst b ~group:i.Netlist.group ~name:i.Netlist.inst_name
        ~cell:i.Netlist.cell
        ~inputs:
          (List.map (fun (pin, nid) -> (pin, Hashtbl.find map nid)) i.Netlist.conns)
        ~out:(Hashtbl.find map i.Netlist.out) ())
    u.u_members;
  B.freeze b

type task = {
  t_unit : unit_t;
  t_sub : Netlist.t;  (* boundary-conditioned sub-netlist *)
  t_qslope : float;
  t_budget : float;
  t_pinned : (string * float) list;  (* this unit's actual labels *)
  t_key : string;  (* structure digest ^ boundary digest *)
}

let make_tasks ctx (spec : Constraints.spec) units ~sizing
    ~(sta : Sta.t) ~anchors ~factor =
  let q = qlog boundary_quantum in
  let slope_floor =
    match spec.Constraints.input_slope with
    | Some s -> s
    | None -> ctx.tech.Tech.default_input_slope
  in
  (* Budgets are anchored and self-normalized: each unit is asked to beat
     its OWN seed-sizing structural delay (sub-netlist STA, boundary loads
     applied) by the globally required contraction [factor].  A
     share-of-the-target split — by level count or by arrival span —
     systematically misprices units, because a sub-problem times all its
     inputs at zero: the tail's structural depth is far wider than its
     arrival span, and a stacked AOI21 can never do an inverter's share.
     Scaling each unit's own measured delay sidesteps both.  The anchor is
     measured ONCE and cached in [anchors]: re-measuring each outer
     iteration would compound the contraction (the budget chases the
     already-improved delay downward), ballooning widths and boundary
     loads without bound.  Anchored budgets leave the outer loop a pure
     load/slope fixed point.  The floor is a FRACTION of one FO4: a
     shallow unit (one lightly loaded gate) legitimately runs well under
     FO4, and a full-FO4 floor would freeze a deep datapath's global
     delay at path_depth x FO4 regardless of the target.  A budget the
     golden timer cannot confirm is relaxed by the solve-retry loop
     instead. *)
  let fo4 = Tech.fo4_delay ctx.tech in
  let floor_ps = 0.2 *. fo4 in
  (* Budgets get a grid 8x finer than boundary caps and slopes: the
     budget sets the achieved delay directly, and a 5% bucket would cap
     the endgame's landing resolution at several percent of the target —
     the final relax/tighten nudges would vanish into one bucket.  Caps
     and slopes stay coarse; they only need to stabilize the dedup keys. *)
  let qb = qlog (boundary_quantum /. 8.) in
  List.map
    (fun u ->
      let qcaps =
        List.filter_map
          (fun (nid, r) ->
            if r <> Rout then None
            else Some (nid, q (external_cap ctx u.u_member_tbl ~sizing nid)))
          u.u_roles
      in
      let raw_slope =
        List.fold_left
          (fun acc (nid, r) ->
            if r <> Rin then acc
            else begin
              let nt = sta.Sta.nets.(nid) in
              let sl = Float.max nt.Sta.slope_rise nt.Sta.slope_fall in
              if Float.is_finite sl && sl > acc then sl else acc
            end)
          slope_floor u.u_roles
      in
      let qslope = q raw_slope in
      let sub = build_sub ctx u qcaps in
      let local =
        match Hashtbl.find_opt anchors u.u_name with
        | Some v -> v
        | None ->
          let d =
            (Sta.analyze ~input_slope:qslope ctx.tech sub ~sizing)
              .Sta.max_delay
          in
          let v = if Float.is_finite d && d > 0. then d else fo4 in
          Hashtbl.replace anchors u.u_name v;
          v
      in
      let budget = qb (Float.max floor_ps (local *. factor)) in
      let pinned_slots =
        List.sort compare
          (List.filter_map
             (fun (l, w) ->
               Option.map (fun s -> (s, w)) (Hashtbl.find_opt u.u_slot_of l))
             spec.Constraints.pinned)
      in
      let bkey =
        Digest.string
          (Marshal.to_string
             ( List.map snd qcaps,
               qslope,
               budget,
               pinned_slots,
               spec.Constraints.otb,
               spec.Constraints.precharge_budget,
               spec.Constraints.max_slope )
             [])
      in
      {
        t_unit = u;
        t_sub = sub;
        t_qslope = qslope;
        t_budget = budget;
        t_pinned =
          List.map (fun (s, w) -> (u.u_slot_labels.(s), w)) pinned_slots;
        t_key = u.u_structure ^ Digest.to_hex bkey;
      })
    units

(* Group tasks by (structure, boundary) key, first-seen order; the first
   member of each group is the representative actually solved. *)
let group_tasks tasks =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun t ->
      match Hashtbl.find_opt tbl t.t_key with
      | Some l -> l := t :: !l
      | None ->
        let l = ref [ t ] in
        Hashtbl.add tbl t.t_key l;
        order := t.t_key :: !order)
    tasks;
  List.rev_map (fun k -> List.rev !(Hashtbl.find tbl k)) !order |> List.rev

(* ------------------------------------------------------------------ *)
(* Solving                                                             *)
(* ------------------------------------------------------------------ *)

let sub_spec (spec : Constraints.spec) t ~budget =
  {
    spec with
    Constraints.target_delay = budget;
    input_slope = Some t.t_qslope;
    pinned = t.t_pinned;
  }

(* Solve one group's representative.  A golden-timer disagreement is
   retried at a relaxed budget (x1.35, at most twice): a self-normalized
   budget is feasible by construction at factor one, but a tightened one
   can cross a unit's intrinsic wall, and relaxation re-keys the boundary
   digest automatically.  [Infeasible_spec] is final: [sub_spec] changes
   only the unit's target, and the sizer's certificate never reads a
   timing budget, so a relaxed retry fails on the same proof. *)
let solve_group engine (opts : options) ctx spec group =
  let rep = List.hd group in
  let sub = rep.t_sub in
  let rec attempt budget tries =
    let r =
      Engine.size engine
        ~label:(span_label ctx rep.t_unit.u_name)
        ~options:opts.sizer ctx.tech sub (sub_spec spec rep ~budget)
    in
    match r with
    | Ok o -> Ok (o, tries + 1)
    | Error (Err.Sta_disagreement _) when tries < 2 ->
      attempt (budget *. 1.35) (tries + 1)
    | Error e -> Error (e, tries + 1)
  in
  (group, attempt rep.t_budget 0)

(* ------------------------------------------------------------------ *)
(* Assembly and the outer boundary fixed point                         *)
(* ------------------------------------------------------------------ *)

(* Broadcast every solved representative's widths to its group members
   through the slot correspondence (byte-equal canonical forms guarantee
   aligned slots). *)
let assemble ctx solved =
  let widths = Hashtbl.create 256 in
  List.iter
    (fun (group, (o : Sizer.outcome)) ->
      let rep = List.hd group in
      let slotw = Array.map o.Sizer.sizing_fn rep.t_unit.u_slot_labels in
      List.iter
        (fun t ->
          let labels = t.t_unit.u_slot_labels in
          if Array.length labels <> Array.length slotw then
            Err.fail "Hier.assemble: slot mismatch between %s and %s"
              rep.t_unit.u_name t.t_unit.u_name;
          Array.iteri (fun k l -> Hashtbl.replace widths l slotw.(k)) labels)
        group)
    solved;
  ignore ctx;
  widths

let sizing_of_tbl tbl l =
  match Hashtbl.find_opt tbl l with
  | Some w -> w
  | None -> Err.fail "Hier: no width assembled for label %s" l

let area_posy nl =
  Posy.of_monomials
    (List.map (fun (l, m) -> Monomial.make m [ (l, 1.) ]) (Netlist.label_widths nl))

let synthesize_outcome ctx (spec : Constraints.spec) tbl sta ~prech ~iterations
    ~solved =
  let outcomes = List.map snd solved in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let area = area_posy ctx.nl in
  let stats =
    {
      Constraints.problem = Problem.make area;
      area;
      path_count = sum (fun o -> o.Sizer.constraint_stats.Constraints.path_count);
      timing_constraints =
        sum (fun o -> o.Sizer.constraint_stats.Constraints.timing_constraints);
      slope_constraints =
        sum (fun o -> o.Sizer.constraint_stats.Constraints.slope_constraints);
      precharge_constraints =
        sum (fun o ->
            o.Sizer.constraint_stats.Constraints.precharge_constraints);
      stage_constraints =
        sum (fun o -> o.Sizer.constraint_stats.Constraints.stage_constraints);
      dominated_pruned =
        sum (fun o -> o.Sizer.constraint_stats.Constraints.dominated_pruned);
    }
  in
  let fn = sizing_of_tbl tbl in
  {
    Sizer.sizing =
      List.sort compare (Hashtbl.fold (fun l w acc -> (l, w) :: acc) tbl []);
    sizing_fn = fn;
    achieved_delay = sta.Sta.max_delay;
    achieved_precharge = prech;
    target_delay = spec.Constraints.target_delay;
    total_width = Netlist.total_width ctx.nl fn;
    clock_load_width = Netlist.clock_load_width ctx.nl fn;
    iterations;
    gp_newton_iterations = sum (fun o -> o.Sizer.gp_newton_iterations);
    gp_warm_rounds = sum (fun o -> o.Sizer.gp_warm_rounds);
    gp_newton_per_round =
      List.concat_map (fun o -> o.Sizer.gp_newton_per_round) outcomes;
    certified_rounds = sum (fun o -> o.Sizer.certified_rounds);
    sta_verifies = sum (fun o -> o.Sizer.sta_verifies);
    converged = true;
    constraint_stats = stats;
    sta;
  }

let has_domino nl =
  Array.exists
    (fun (i : Netlist.instance) -> Cell.has_clock i.Netlist.cell)
    nl.Netlist.instances

let size ?(options = default_options) ?label ~engine tech nl spec =
  let ctx = prep ?label tech nl in
  let d = decompose ctx in
  let target = spec.Constraints.target_delay in
  (* The outer acceptance band is half the sizer's: the monolithic flow
     typically lands BELOW the target, so a hierarchical result accepted
     at the full band can sit a whole band above the reference it is
     advertised as matching.  Halving keeps the advice comparable while
     leaving slack for boundary quantization. *)
  let tol = 0.5 *. options.sizer.Sizer.tolerance in
  let prech_budget =
    match spec.Constraints.precharge_budget with Some p -> p | None -> target
  in
  (* Seed widths for the first boundary estimate; quantization absorbs
     the inaccuracy after one iteration. *)
  let tbl0 = Hashtbl.create 256 in
  List.iter
    (fun l -> Hashtbl.replace tbl0 l (2. *. tech.Tech.w_min))
    (Netlist.labels nl);
  let sizing = ref tbl0 in
  let sta = ref None in
  let factor = ref 1. in
  let anchors = Hashtbl.create 64 in
  let prech_last = ref None in
  let total_solves = ref 0 in
  let cut_arr = ref None in
  let movement = ref infinity in
  let finish ~iterations ~solved sta_final prech =
    let distinct = List.length solved in
    let solved_gates =
      List.fold_left (fun acc (g, _) -> acc + (List.hd g).t_unit.u_gates) 0 solved
    in
    let report =
      {
        plan = d.d_plan;
        outer_iterations = iterations;
        solves = !total_solves;
        distinct_tasks = distinct;
        dedup_ratio =
          (if solved_gates = 0 then 1.
           else
             float_of_int d.d_plan.total_instances /. float_of_int solved_gates);
        boundary_movement = !movement;
      }
    in
    {
      sizer =
        synthesize_outcome ctx spec !sizing sta_final ~prech ~iterations ~solved;
      report;
    }
  in
  let prev_keys = ref [] in
  let prev_need = ref infinity in
  (* Cheapest sizing seen that meets the spec: (tbl, iter, solved, sta,
     prech, width).  The transient iterations over-tighten (budgets keep
     dropping while boundary loads catch up), so the first meeting state
     usually carries a large area overshoot; the loop then RELAXES
     budgets by the measured slack and keeps the cheapest state that
     still meets. *)
  let best = ref None in
  let assembled_width tbl =
    List.fold_left
      (fun acc (l, m) ->
        acc
        +. m *. (match Hashtbl.find_opt tbl l with Some w -> w | None -> 0.))
      0. (Netlist.label_widths nl)
  in
  let finish_best (tbl, it, solved, s, p, _w) =
    sizing := tbl;
    Ok (finish ~iterations:it ~solved s p)
  in
  let rec iterate iter =
    if iter > max_outer then
      match !best with
      | Some b -> finish_best b
      | None ->
        Error
          (Err.Sta_disagreement
             { target_ps = target; iterations = max_outer })
    else begin
      let sta_cur =
        match !sta with
        | Some s -> s
        | None -> Sta.analyze tech nl ~sizing:(sizing_of_tbl !sizing)
      in
      let prech_cur =
        match !prech_last with
        | Some p -> p
        | None ->
          if has_domino nl then begin
            let p =
              Sta.analyze ~mode:Sta.Precharge tech nl
                ~sizing:(sizing_of_tbl !sizing)
            in
            if p.Sta.reachable_outputs = 0 then 0. else p.Sta.max_delay
          end
          else 0.
      in
      (* The per-unit budgets scale each unit's anchor delay by the
         globally required contraction.  Iteration one sets the anchor
         scaling outright (every unit contracts by the same relative
         amount, which contracts the critical path by that amount);
         later iterations only nudge it by the damped residual miss —
         the loop's real job after iteration one is the boundary
         load/slope fixed point, not re-budgeting. *)
      let need =
        Float.max 1e-3
          (Float.max
             (sta_cur.Sta.max_delay /. target)
             (if prech_cur > 0. then prech_cur /. prech_budget else 0.))
      in
      let damping = options.sizer.Sizer.damping in
      (* Tighten only once the boundary fixed point has settled (small
         cut-arrival movement, or the miss has plateaued): tightening
         while loads are still catching up compounds the contraction and
         balloons area far past what the target needs. *)
      let settled =
        (Float.is_finite !movement && !movement < 0.05 *. target)
        || Float.abs (need -. !prev_need) < 0.02
      in
      prev_need := need;
      if iter = 1 then factor := Float.min 1. (Float.max 0.5 (1. /. need))
      else if settled then
        factor :=
          Float.max 0.35
            (!factor /. Float.min 1.25 (Float.max 1. (need ** damping)));
      let build () =
        group_tasks
          (make_tasks ctx spec d.d_units
             ~sizing:(sizing_of_tbl !sizing) ~sta:sta_cur ~anchors
             ~factor:!factor)
      in
      (* Quantization can freeze every task key even though the factor
         moved; identical keys would replay the cached solves and spin.
         Tighten by one bucket until the key set actually changes — but
         never during relaxation rounds (a meeting state exists): there a
         frozen key set just replays the meeting solves and terminates. *)
      let rec fresh groups tries =
        let keys = List.sort compare (List.map (fun g -> (List.hd g).t_key) groups) in
        if keys <> !prev_keys || tries >= 4 || !best <> None then begin
          prev_keys := keys;
          groups
        end
        else begin
          factor := !factor /. (1. +. (boundary_quantum /. 8.));
          fresh (build ()) (tries + 1)
        end
      in
      let groups = fresh (build ()) (if iter = 1 then 4 else 0) in
      let results = Engine.map engine (solve_group engine options ctx spec) groups in
      List.iter
        (fun (_, r) ->
          match r with
          | Ok (_, tries) | Error (_, tries) -> total_solves := !total_solves + tries)
        results;
      match
        List.find_map
          (function _, Error (e, _) -> Some e | _, Ok _ -> None)
          results
      with
      | Some (Err.Infeasible_spec { detail; _ }) ->
        (* An infeasible unit makes the caller's target infeasible. *)
        Error (Err.Infeasible_spec { target_ps = target; detail })
      | Some e -> Error e
      | None ->
        let solved =
          List.map
            (fun (g, r) ->
              match r with Ok (o, _) -> (g, o) | Error _ -> assert false)
            results
        in
        let tbl = assemble ctx solved in
        let fn = sizing_of_tbl tbl in
        let sta_new = Sta.analyze tech nl ~sizing:fn in
        let arr =
          List.map (fun nid -> (nid, Sta.arrival sta_new nid)) d.d_cut
        in
        (movement :=
           match !cut_arr with
           | None -> infinity
           | Some prev ->
             List.fold_left2
               (fun acc (_, a) (_, b) ->
                 let d = Float.abs (a -. b) in
                 if Float.is_finite d && d > acc then d else acc)
               0. arr prev);
        cut_arr := Some arr;
        sizing := tbl;
        sta := Some sta_new;
        let prech_sta =
          if has_domino nl then
            Some (Sta.analyze ~mode:Sta.Precharge tech nl ~sizing:fn)
          else None
        in
        let prech =
          match prech_sta with
          | None -> 0.
          | Some p ->
            if p.Sta.reachable_outputs = 0 then infinity else p.Sta.max_delay
        in
        let prech_ok =
          match prech_sta with
          | None -> true
          | Some p ->
            p.Sta.reachable_outputs > 0
            && p.Sta.max_delay <= prech_budget *. (1. +. tol)
        in
        prech_last := Some prech;
        if sta_new.Sta.max_delay <= target *. (1. +. tol) && prech_ok then begin
          let w = assembled_width tbl in
          let improved =
            match !best with None -> true | Some (_, _, _, _, _, bw) -> w < bw
          in
          if improved then best := Some (tbl, iter, solved, sta_new, prech, w);
          let slack = 0.995 *. target /. sta_new.Sta.max_delay in
          if improved && iter < max_outer && slack > 1.004 then begin
            (* Met with room to spare: relax every budget by the slack
               and go around once more — the cheapest meeting state wins. *)
            factor := Float.min 1. (!factor *. Float.min 1.3 slack);
            iterate (iter + 1)
          end
          else finish_best (Option.get !best)
        end
        else
          match !best with
          | Some b ->
            (* A relaxation step went too far; keep the cheapest state
               that met. *)
            finish_best b
          | None ->
            (* The next iteration re-derives every budget from the new
               global miss; [factor] only carries the spin-guard pressure
               accumulated above. *)
            iterate (iter + 1)
    end
  in
  iterate 1
