module Netlist = Smart_circuit.Netlist
module Cell = Smart_circuit.Cell
module Pdn = Smart_circuit.Pdn
module Family = Smart_circuit.Family
module Arc = Smart_models.Arc
module Paths = Smart_paths.Paths
module Constraints = Smart_constraints.Constraints
module Tech = Smart_tech.Tech
module Posy = Smart_posy.Posy
module Absint = Smart_absint.Absint
open Report

let max_pass_depth = 3
let keeper_fanout = 3

(* ------------------------------------------------------------------ *)
(* Forward dataflow annotations                                        *)
(* ------------------------------------------------------------------ *)

(* Evaluate-phase polarity of a net, for the domino monotonicity
   discipline: [Mono_rise] — provably makes at most one 0->1 transition
   once evaluation starts (primary inputs by interface convention, domino
   outputs by construction, and even chains of inverting static logic
   over such nets); [Mono_fall] — provably the inverted image of a
   monotone-rising net (one inverting static stage from a rising source);
   [Unknown] — monotonicity not established. *)
type pol = Mono_rise | Mono_fall | Unknown

let flip = function
  | Mono_rise -> Mono_fall
  | Mono_fall -> Mono_rise
  | Unknown -> Unknown

(* Per-net results of one topological sweep: polarity, Vt degradation of
   each logic level (degraded '1' via NMOS passes, degraded '0' via PMOS
   passes), and unrestored pass-chain depth.  [None] when the netlist has
   a combinational cycle (no topological order exists). *)
type flow = {
  pol : pol option array;  (** [None]: undriven, nothing known *)
  vt : (bool * bool) array;  (** (degraded high, degraded low) *)
  pdepth : int array;  (** consecutive pass-gate channel hops *)
}

type ctx = {
  nl : Netlist.t;
  spec : Constraints.spec;
  drivers : Netlist.instance list array;
  fanouts : (Netlist.instance * string) list array;
  topo : Netlist.instance list option Lazy.t;
  flow : flow option Lazy.t;
  classes : Paths.classes option Lazy.t;
  gp : Constraints.result option Lazy.t;
  absint : Absint.t option Lazy.t;
      (** interval analysis of [gp]'s program at the declared budgets
          (fixed classification) — shared by the [cover] interval rules *)
}

let pin_net (i : Netlist.instance) pin = List.assoc pin i.conns

let join_pol a b =
  match a with None -> Some b | Some a -> if a = b then Some a else Some Unknown

let compute_flow nl order =
  let n = Array.length nl.Netlist.nets in
  let pol = Array.make n None in
  let vt = Array.make n (false, false) in
  let pdepth = Array.make n 0 in
  Array.iter
    (fun (net : Netlist.net) ->
      match net.net_kind with
      | Netlist.Primary_input | Netlist.Clock ->
        pol.(net.net_id) <- Some Mono_rise
      | Netlist.Primary_output | Netlist.Internal -> ())
    nl.nets;
  let input_pol nid = match pol.(nid) with None -> Unknown | Some p -> p in
  List.iter
    (fun (i : Netlist.instance) ->
      let contrib_pol, contrib_vt, contrib_depth =
        match i.cell with
        | Cell.Passgate { style; _ } ->
          let d = pin_net i "d" in
          let dn, dp = vt.(d) in
          let dn', dp' =
            match style with
            | Cell.N_only -> (true, dp)
            | Cell.P_only -> (dn, true)
            | Cell.Cmos_tgate -> (dn, dp)
          in
          (input_pol d, (dn', dp'), pdepth.(d) + 1)
        | Cell.Tristate _ -> (flip (input_pol (pin_net i "d")), (false, false), 0)
        | Cell.Domino _ -> (Mono_rise, (false, false), 0)
        | Cell.Static _ ->
          let ins = List.map (fun (_, nid) -> input_pol nid) i.conns in
          let joined =
            List.fold_left
              (fun acc p -> match acc with None -> Some p | Some a -> if a = p then acc else Some Unknown)
              None ins
          in
          let p = match joined with None | Some Unknown -> Unknown | Some p -> flip p in
          (p, (false, false), 0)
      in
      (* Multiple drivers of a net all precede any reader in topological
         order, so these joins are complete before the first read. *)
      pol.(i.out) <- join_pol pol.(i.out) contrib_pol;
      (let on, op = vt.(i.out) and cn, cp = contrib_vt in
       vt.(i.out) <- (on || cn, op || cp));
      pdepth.(i.out) <- max pdepth.(i.out) contrib_depth)
    order;
  { pol; vt; pdepth }

let make_ctx ?(tech = Tech.default) ?(spec = Constraints.spec 150.)
    ?(reductions = Paths.all_reductions) nl =
  let n = Array.length nl.Netlist.nets in
  let drivers = Array.make n [] in
  let fanouts = Array.make n [] in
  Array.iter
    (fun (i : Netlist.instance) ->
      drivers.(i.out) <- i :: drivers.(i.out);
      List.iter (fun (pin, nid) -> fanouts.(nid) <- (i, pin) :: fanouts.(nid)) i.conns)
    nl.instances;
  let topo =
    lazy (try Some (Netlist.topo_order nl) with Smart_util.Err.Smart_error _ -> None)
  in
  let flow =
    lazy
      (match Lazy.force topo with
      | None -> None
      | Some order -> Some (compute_flow nl order))
  in
  let classes =
    lazy
      (match Lazy.force topo with
      | None -> None
      | Some _ -> (
        try Some (Paths.classes ~reductions nl)
        with Smart_util.Err.Smart_error _ -> None))
  in
  let gp =
    lazy
      (match Lazy.force topo with
      | None -> None
      | Some _ -> (
        try Some (Constraints.generate ~reductions tech nl spec)
        with Smart_util.Err.Smart_error _ -> None))
  in
  let absint =
    lazy
      (match Lazy.force gp with
      | None -> None
      | Some result ->
        Some (Absint.analyze result.Constraints.problem))
  in
  { nl; spec; drivers; fanouts; topo; flow; classes; gp; absint }

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let net_name ctx nid = (Netlist.net ctx.nl nid).net_name
let net_kind ctx nid = (Netlist.net ctx.nl nid).net_kind

let ext_load ctx nid =
  List.fold_left
    (fun acc (id, f) -> if id = nid then acc +. f else acc)
    0. ctx.nl.Netlist.ext_loads

(* Follow a chain of single-driver static inverters back to its root:
   returns (root net, parity), parity [true] meaning the net is the
   complement of the root.  Used to prove enables / selects mutually
   exclusive (same root, opposite parity) or in contention (same root,
   same parity). *)
let polarity_root ctx nid =
  let rec go nid parity depth =
    if depth > 64 then (nid, parity)
    else
      match ctx.drivers.(nid) with
      | [ ({ cell = Cell.Static { pull_down = Pdn.Leaf { pin; _ }; _ }; _ } as i) ] ->
        go (pin_net i pin) (not parity) (depth + 1)
      | _ -> (nid, parity)
  in
  go nid false 0

let domino_data_pins (cell : Cell.kind) =
  match cell with Cell.Domino { pull_down; _ } -> Pdn.pins pull_down | _ -> []

let is_pass (i : Netlist.instance) =
  match i.cell with Cell.Passgate _ -> true | _ -> false

(* Distinct ordered pairs of a list, each unordered pair once. *)
let rec pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest

(* ------------------------------------------------------------------ *)
(* Electrical rules                                                    *)
(* ------------------------------------------------------------------ *)

let r_comb_loop ctx =
  match Lazy.force ctx.topo with
  | Some _ -> []
  | None ->
    [
      diag ~rule:"elec/comb-loop" ~severity:Error ~loc:Whole_netlist
        ~hint:"break the loop or latch it explicitly"
        "combinational cycle: no topological order exists, so timing \
         constraints cannot be generated";
    ]

let r_undriven ctx =
  Array.to_list ctx.nl.Netlist.nets
  |> List.concat_map (fun (net : Netlist.net) ->
         match net.net_kind with
         | Netlist.Primary_input | Netlist.Clock -> []
         | Netlist.Primary_output | Netlist.Internal ->
           if ctx.drivers.(net.net_id) = []
              && (ctx.fanouts.(net.net_id) <> []
                 || net.net_kind = Netlist.Primary_output)
           then
             [
               diag ~rule:"elec/undriven" ~severity:Error ~loc:(Net net.net_name)
                 ~hint:"add a driver or declare the net a primary input"
                 (Printf.sprintf "net %s is read but never driven" net.net_name);
             ]
           else [])

let r_no_reader ctx =
  Array.to_list ctx.nl.Netlist.nets
  |> List.concat_map (fun (net : Netlist.net) ->
         if
           net.net_kind = Netlist.Internal
           && ctx.fanouts.(net.net_id) = []
           && ctx.drivers.(net.net_id) <> []
           && ext_load ctx net.net_id = 0.
         then
           [
             diag ~rule:"elec/no-reader" ~severity:Warn ~loc:(Net net.net_name)
               ~hint:"delete the driver or connect the net"
               (Printf.sprintf
                  "net %s is driven but never read — dead logic the sizer \
                   still pays area for"
                  net.net_name);
           ]
         else [])

let r_drive_fight ctx =
  Array.to_list ctx.nl.Netlist.nets
  |> List.concat_map (fun (net : Netlist.net) ->
         let ds = ctx.drivers.(net.net_id) in
         match net.net_kind with
         | Netlist.Primary_input | Netlist.Clock ->
           List.map
             (fun (i : Netlist.instance) ->
               diag ~rule:"elec/drive-fight" ~severity:Error
                 ~loc:(Net net.net_name)
                 ~hint:"rename the instance output to an internal net"
                 (Printf.sprintf "%s net %s is driven by instance %s"
                    (if net.net_kind = Netlist.Clock then "clock"
                     else "primary-input")
                    net.net_name i.inst_name))
             ds
         | Netlist.Primary_output | Netlist.Internal ->
           if List.length ds >= 2 then
             let always_on =
               List.filter
                 (fun (i : Netlist.instance) ->
                   match Cell.family i.cell with
                   | Family.Static_cmos | Family.Domino_d1 | Family.Domino_d2 ->
                     true
                   | Family.Pass | Family.Tristate_drv -> false)
                 ds
             in
             List.map
               (fun (i : Netlist.instance) ->
                 diag ~rule:"elec/drive-fight" ~severity:Error
                   ~loc:(Net net.net_name)
                   ~hint:
                     "share nets only between pass gates or tri-states with \
                      exclusive enables"
                   (Printf.sprintf
                      "net %s has %d drivers but %s (%s) is always on — DC \
                       fight whenever another driver conducts"
                      net.net_name (List.length ds) i.inst_name
                      (Family.to_string (Cell.family i.cell))))
               always_on
           else [])

let r_tristate_contention ctx =
  Array.to_list ctx.nl.Netlist.nets
  |> List.concat_map (fun (net : Netlist.net) ->
         let tris =
           List.filter
             (fun (i : Netlist.instance) ->
               match i.cell with Cell.Tristate _ -> true | _ -> false)
             ctx.drivers.(net.net_id)
         in
         if List.length tris < 2 then []
         else
           let rooted =
             List.map
               (fun (i : Netlist.instance) ->
                 (i, polarity_root ctx (pin_net i "en")))
               tris
           in
           let errors =
             pairs rooted
             |> List.concat_map (fun ((a, (ra, pa)), (b, (rb, pb))) ->
                    if ra = rb && pa = pb then
                      [
                        diag ~rule:"elec/tristate-contention" ~severity:Error
                          ~loc:(Net net.net_name)
                          ~hint:"derive one enable from the other's complement"
                          (Printf.sprintf
                             "tri-states %s and %s on net %s have provably \
                              identical enables (both follow %s%s) — they \
                              fight whenever enabled"
                             a.Netlist.inst_name b.Netlist.inst_name
                             net.net_name
                             (if pa then "NOT " else "")
                             (net_name ctx ra));
                      ]
                    else [])
           in
           if errors <> [] then errors
           else
             let distinct_roots =
               List.sort_uniq compare (List.map (fun (_, (r, _)) -> r) rooted)
             in
             if List.length distinct_roots > 1 then
               [
                 diag ~rule:"elec/tristate-contention" ~severity:Info
                   ~loc:(Net net.net_name)
                   (Printf.sprintf
                      "%d tri-states share net %s under %d independent \
                       enables — one-hot mutual exclusion is assumed, not \
                       proven"
                      (List.length tris) net.net_name
                      (List.length distinct_roots));
               ]
             else [])

(* ------------------------------------------------------------------ *)
(* Family-discipline rules                                             *)
(* ------------------------------------------------------------------ *)

let r_domino_monotone ctx =
  match Lazy.force ctx.flow with
  | None -> []
  | Some flow ->
    Array.to_list ctx.nl.Netlist.instances
    |> List.concat_map (fun (i : Netlist.instance) ->
           domino_data_pins i.cell
           |> List.concat_map (fun pin ->
                  let nid = pin_net i pin in
                  match flow.pol.(nid) with
                  | Some Mono_rise -> []
                  | Some Mono_fall ->
                    [
                      diag ~rule:"family/domino-monotone" ~severity:Error
                        ~loc:(Inst i.inst_name)
                        ~hint:
                          "remap the cone (De Morgan dual over complement \
                           rails) or feed the stage non-inverted"
                        (Printf.sprintf
                           "domino input %s (pin %s) provably falls during \
                            evaluate — an inverting static stage sits \
                            between monotone-rising logic and this \
                            pull-down; the stage can discharge on a glitch \
                            and never recover"
                           (net_name ctx nid) pin);
                    ]
                  | Some Unknown | None ->
                    [
                      diag ~rule:"family/domino-monotone" ~severity:Warn
                        ~loc:(Inst i.inst_name)
                        ~hint:
                          "drive domino inputs from primary inputs, domino \
                           outputs, or even chains of inverting static \
                           stages over them"
                        (Printf.sprintf
                           "cannot establish that domino input %s (pin %s) \
                            is monotone rising during evaluate"
                           (net_name ctx nid) pin);
                    ]))

let r_unfooted_input ctx =
  Array.to_list ctx.nl.Netlist.instances
  |> List.concat_map (fun (i : Netlist.instance) ->
         match i.cell with
         | Cell.Domino { eval = None; _ } ->
           domino_data_pins i.cell
           |> List.concat_map (fun pin ->
                  let nid = pin_net i pin in
                  let ds = ctx.drivers.(nid) in
                  let has f = List.exists f ds in
                  if ds = [] then
                    if net_kind ctx nid = Netlist.Primary_input then
                      [
                        diag ~rule:"family/unfooted-input" ~severity:Info
                          ~loc:(Inst i.inst_name)
                          (Printf.sprintf
                             "unfooted stage input %s is a primary input — \
                              assumed precharge-low by the dual-rail domino \
                              interface convention"
                             (net_name ctx nid));
                      ]
                    else [] (* undriven: elec/undriven reports it *)
                  else if
                    has (fun (d : Netlist.instance) ->
                        match d.cell with
                        | Cell.Static _ | Cell.Tristate _ -> true
                        | _ -> false)
                  then
                    [
                      diag ~rule:"family/unfooted-input" ~severity:Error
                        ~loc:(Inst i.inst_name)
                        ~hint:"foot the stage (eval = Some _) or restructure"
                        (Printf.sprintf
                           "unfooted (D2) stage reads %s from always-on \
                            logic — the input can be high while clk is low, \
                            shorting the precharge device through the \
                            pull-down"
                           (net_name ctx nid));
                    ]
                  else if has is_pass then
                    [
                      diag ~rule:"family/unfooted-input" ~severity:Warn
                        ~loc:(Inst i.inst_name)
                        ~hint:"foot the stage or prove the selects precharge-low"
                        (Printf.sprintf
                           "unfooted (D2) stage reads %s through pass \
                            devices — precharge-low only if every pass \
                            source is"
                           (net_name ctx nid));
                    ]
                  else [] (* all drivers domino: precharge-low by design *))
         | _ -> [])

let r_keeper ctx =
  Array.to_list ctx.nl.Netlist.instances
  |> List.concat_map (fun (i : Netlist.instance) ->
         match i.cell with
         | Cell.Domino { keeper = false; _ } ->
           let fo = List.length ctx.fanouts.(i.out) in
           let extl = ext_load ctx i.out in
           if fo >= keeper_fanout || extl > 0. then
             [
               diag ~rule:"family/keeper" ~severity:Warn ~loc:(Inst i.inst_name)
                 ~hint:"set keeper = true on the stage"
                 (Printf.sprintf
                    "dynamic node %s drives %d gates%s with no keeper — \
                     charge sharing and leakage erode the precharged level"
                    (net_name ctx i.out) fo
                    (if extl > 0. then
                       Printf.sprintf " plus %.0f fF external" extl
                     else ""));
             ]
           else []
         | _ -> [])

let r_pass_depth ctx =
  match Lazy.force ctx.flow with
  | None -> []
  | Some flow ->
    Array.to_list ctx.nl.Netlist.nets
    |> List.concat_map (fun (net : Netlist.net) ->
           let d = flow.pdepth.(net.net_id) in
           let extended =
             List.exists
               (fun ((i : Netlist.instance), pin) -> pin = "d" && is_pass i)
               ctx.fanouts.(net.net_id)
           in
           if d > max_pass_depth && not extended then
             [
               diag ~rule:"family/pass-depth" ~severity:Warn
                 ~loc:(Net net.net_name)
                 ~hint:"insert a restoring buffer in the chain"
                 (Printf.sprintf
                    "net %s sits behind %d unrestored pass-gate channel hops \
                     (limit %d) — delay grows quadratically and the level \
                     degrades"
                    net.net_name d max_pass_depth);
             ]
           else [])

let r_sneak_path ctx =
  Array.to_list ctx.nl.Netlist.nets
  |> List.concat_map (fun (net : Netlist.net) ->
         let passes = List.filter is_pass ctx.drivers.(net.net_id) in
         if List.length passes < 2 then []
         else
           let rooted =
             List.map
               (fun (i : Netlist.instance) ->
                 let r, p = polarity_root ctx (pin_net i "s") in
                 let eff =
                   match i.cell with
                   | Cell.Passgate { style = Cell.P_only; _ } -> not p
                   | _ -> p
                 in
                 (i, r, eff))
               passes
           in
           let errors =
             pairs rooted
             |> List.concat_map (fun ((a, ra, pa), (b, rb, pb)) ->
                    if
                      ra = rb && pa = pb
                      && pin_net a "d" <> pin_net b "d"
                    then
                      [
                        diag ~rule:"family/sneak-path" ~severity:Error
                          ~loc:(Net net.net_name)
                          ~hint:
                            "gate the two branches with complementary or \
                             independent selects"
                          (Printf.sprintf
                             "pass gates %s and %s conduct simultaneously \
                              onto %s (both selects follow %s%s) — a sneak \
                              path shorts %s to %s"
                             a.Netlist.inst_name b.Netlist.inst_name
                             net.net_name
                             (if pa then "NOT " else "")
                             (net_name ctx ra)
                             (net_name ctx (pin_net a "d"))
                             (net_name ctx (pin_net b "d")));
                      ]
                    else [])
           in
           if errors <> [] then errors
           else
             let distinct_roots =
               List.sort_uniq compare (List.map (fun (_, r, _) -> r) rooted)
             in
             if List.length distinct_roots > 1 then
               [
                 diag ~rule:"family/sneak-path" ~severity:Info
                   ~loc:(Net net.net_name)
                   (Printf.sprintf
                      "%d pass branches merge on %s under %d independent \
                       selects — branch exclusivity is assumed, not proven"
                      (List.length passes) net.net_name
                      (List.length distinct_roots));
               ]
             else [])

let r_vt_drop ctx =
  match Lazy.force ctx.flow with
  | None -> []
  | Some flow ->
    Array.to_list ctx.nl.Netlist.nets
    |> List.concat_map (fun (net : Netlist.net) ->
           let dn, dp = flow.vt.(net.net_id) in
           if not (dn || dp) then []
           else
             let gate_readers =
               List.filter
                 (fun ((i : Netlist.instance), pin) ->
                   not (pin = "d" && is_pass i))
                 ctx.fanouts.(net.net_id)
             in
             List.concat_map
               (fun ((i : Netlist.instance), pin) ->
                 if dn && dp then
                   [
                     diag ~rule:"family/vt-drop" ~severity:Error
                       ~loc:(Net net.net_name)
                       ~hint:
                         "use full transmission gates or restore before the \
                          gate input"
                       (Printf.sprintf
                          "both logic levels of %s are Vt-degraded (NMOS- \
                           and PMOS-only passes) yet it drives the gate \
                           input %s.%s — the receiver is never fully off, \
                           burning static current"
                          net.net_name i.inst_name pin);
                   ]
                 else
                   [
                     diag ~rule:"family/vt-drop" ~severity:Warn
                       ~loc:(Net net.net_name)
                       ~hint:"restore the level or use a transmission gate"
                       (Printf.sprintf
                          "net %s reaches gate input %s.%s with a degraded \
                           %s level (single-device pass) — noise margin \
                           loss and leakage in the receiver"
                          net.net_name i.inst_name pin
                          (if dn then "high" else "low"));
                   ])
               gate_readers)

(* ------------------------------------------------------------------ *)
(* Regularity rules                                                    *)
(* ------------------------------------------------------------------ *)

let label_roles (cell : Cell.kind) =
  match cell with
  | Cell.Static { pull_down; p_label; _ } ->
    (p_label, "pull-up")
    :: List.map (fun l -> (l, "pull-down")) (Pdn.labels pull_down)
  | Cell.Passgate { label; _ } -> [ (label, "pass") ]
  | Cell.Tristate { p_label; n_label } ->
    [ (p_label, "pull-up"); (n_label, "pull-down") ]
  | Cell.Domino { pull_down; precharge; eval; out_p; out_n; _ } ->
    ((precharge, "precharge") :: (out_p, "pull-up") :: (out_n, "pull-down")
     :: (match eval with Some l -> [ (l, "eval-foot") ] | None -> []))
    @ List.map (fun l -> (l, "pull-down")) (Pdn.labels pull_down)

let r_label_role ctx =
  let tbl : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  Array.iter
    (fun (i : Netlist.instance) ->
      List.iter
        (fun (l, role) ->
          let cur = try Hashtbl.find tbl l with Not_found -> [] in
          if not (List.mem role cur) then Hashtbl.replace tbl l (role :: cur))
        (label_roles i.cell))
    ctx.nl.Netlist.instances;
  Hashtbl.fold
    (fun l roles acc ->
      if List.length roles > 1 then
        diag ~rule:"reg/label-role" ~severity:Error ~loc:(Label l)
          ~hint:"split the label per role"
          (Printf.sprintf
             "size label %s is shared across device roles {%s} — one GP \
              variable would size a %s and a %s identically"
             l
             (String.concat ", " (List.sort String.compare roles))
             (List.nth roles 0) (List.nth roles 1))
        :: acc
      else acc)
    tbl []

let unit_cap_load ctx nid =
  List.fold_left
    (fun acc ((i : Netlist.instance), pin) ->
      List.fold_left
        (fun acc (_, m) -> acc +. m)
        acc
        (Cell.pin_cap_widths i.cell pin))
    0. ctx.fanouts.(nid)

let r_dominance ctx =
  match Lazy.force ctx.classes with
  | None -> []
  | Some cls ->
    let members = Array.make (Paths.class_count cls) [] in
    Array.iter
      (fun (net : Netlist.net) ->
        let c = Paths.class_of_net cls net.net_id in
        members.(c) <- net.net_id :: members.(c))
      ctx.nl.Netlist.nets;
    let out = ref [] in
    Array.iteri
      (fun c mems ->
        match mems with
        | [] | [ _ ] -> ()
        | mems ->
          let rep = Paths.class_rep cls c in
          let rep_load = unit_cap_load ctx rep in
          List.iter
            (fun nid ->
              if nid <> rep then
                let l = unit_cap_load ctx nid in
                if l > rep_load *. (1. +. 1e-9) then
                  out :=
                    diag ~rule:"reg/dominance" ~severity:Warn
                      ~loc:(Net (net_name ctx nid))
                      ~hint:
                        "disable the dominance reduction for this macro or \
                         rebalance the fanout"
                      (Printf.sprintf
                         "net %s merged under class representative %s, but \
                          presents %.1f unit gate-cap versus the \
                          representative's %.1f — the \"dominant fanout\" \
                          assumption does not hold, its paths may be \
                          under-constrained"
                         (net_name ctx nid) (net_name ctx rep) l rep_load)
                    :: !out)
            mems)
      members;
    !out

(* ------------------------------------------------------------------ *)
(* Coverage rules                                                      *)
(* ------------------------------------------------------------------ *)

(* Sense-aware reachability: a timing constraint covers an arc only if a
   transition chain threads it end to end.  Constraint generation filters
   (input, output) sense pairs step by step along each path — evaluate
   arcs accept only rising inputs, control arcs likewise — so a pin can
   be structurally reachable yet sense-dead: every chain entering it
   carries the wrong edge, or every chain leaving the output dies at a
   downstream restricted arc, and the path emits no constraint.  Exact
   model: forward and backward reachability on the (net, sense) product
   graph whose edges are the cells' arc sense pairs.  Class merging under
   the regularity and dominance reductions keeps this exact (merged nets
   are driver- and label-identical, so their sense sets coincide). *)
let r_arc_coverage ctx =
  match Lazy.force ctx.topo with
  | None -> []
  | Some _ ->
    let n = Array.length ctx.nl.Netlist.nets in
    let idx nid (s : Arc.sense) =
      (2 * nid) + match s with Arc.Rise -> 0 | Arc.Fall -> 1
    in
    (* feasible.(net, s): a primary input launches a chain that arrives
       at [net] with transition sense [s]. *)
    let feasible = Array.make (2 * n) false in
    let q = Queue.create () in
    let feed nid s =
      if not feasible.(idx nid s) then begin
        feasible.(idx nid s) <- true;
        Queue.add (nid, s) q
      end
    in
    Array.iter
      (fun (net : Netlist.net) ->
        match net.net_kind with
        | Netlist.Primary_input | Netlist.Clock ->
          feed net.net_id Arc.Rise;
          feed net.net_id Arc.Fall
        | Netlist.Primary_output | Netlist.Internal -> ())
      ctx.nl.Netlist.nets;
    while not (Queue.is_empty q) do
      let nid, s = Queue.pop q in
      List.iter
        (fun ((i : Netlist.instance), pin) ->
          let arc = Arc.arc_of_pin i.cell pin in
          List.iter
            (fun (si, so) -> if si = s then feed i.out so)
            arc.Arc.senses)
        ctx.fanouts.(nid)
    done;
    (* reaches.(net, s): a feasible chain arriving at [net] with sense
       [s] survives to a primary output. *)
    let reaches = Array.make (2 * n) false in
    let bq = Queue.create () in
    let mark nid s =
      if feasible.(idx nid s) && not reaches.(idx nid s) then begin
        reaches.(idx nid s) <- true;
        Queue.add (nid, s) bq
      end
    in
    List.iter
      (fun nid ->
        mark nid Arc.Rise;
        mark nid Arc.Fall)
      ctx.nl.Netlist.outputs;
    while not (Queue.is_empty bq) do
      let nid, s = Queue.pop bq in
      List.iter
        (fun (i : Netlist.instance) ->
          List.iter
            (fun (pin, fnid) ->
              let arc = Arc.arc_of_pin i.cell pin in
              List.iter
                (fun (si, so) -> if so = s then mark fnid si)
                arc.Arc.senses)
            i.conns)
        ctx.drivers.(nid)
    done;
    Array.to_list ctx.nl.Netlist.instances
    |> List.concat_map (fun (i : Netlist.instance) ->
           Arc.data_arcs_of i.cell
           |> List.concat_map (fun (arc : Arc.t) ->
                  let nid = pin_net i arc.pin in
                  let covered =
                    List.exists
                      (fun (si, so) ->
                        feasible.(idx nid si) && reaches.(idx i.out so))
                      arc.Arc.senses
                  in
                  if covered then []
                  else if
                    not
                      (List.exists
                         (fun (si, _) -> feasible.(idx nid si))
                         arc.Arc.senses)
                  then
                    [
                      diag ~rule:"cover/arc" ~severity:Error
                        ~loc:(Inst i.inst_name)
                        ~hint:
                          "connect the cone to primary inputs, or add an \
                           inversion to restore the accepted edge"
                        (Printf.sprintf
                           "%s arc through pin %s is never exercised: no \
                            primary input delivers a transition to %s with \
                            a sense the arc accepts, so no timing \
                            constraint covers it"
                           (Arc.kind_to_string arc.kind) arc.pin
                           (net_name ctx nid));
                    ]
                  else
                    [
                      diag ~rule:"cover/arc" ~severity:Error
                        ~loc:(Inst i.inst_name)
                        ~hint:
                          "connect the cone to a primary output, or give \
                           the output a reader that accepts its edge"
                        (Printf.sprintf
                           "%s arc through pin %s is never exercised: \
                            every transition chain through it dies before \
                            a primary output (a downstream evaluate or \
                            control arc rejects the sense), so no timing \
                            constraint covers it"
                           (Arc.kind_to_string arc.kind) arc.pin);
                    ]))

let r_orphan_label ctx =
  match Lazy.force ctx.gp with
  | None ->
    [
      diag ~rule:"cover/orphan-label" ~severity:Info ~loc:Whole_netlist
        "constraint generation failed; label coverage not checked";
    ]
  | Some result ->
    let covered = Hashtbl.create 64 in
    List.iter
      (fun (name, posy) ->
        if Constraints.budget_class name <> Constraints.Fixed then
          List.iter (fun v -> Hashtbl.replace covered v ()) (Posy.vars posy))
      result.Constraints.problem.Smart_gp.Problem.inequalities;
    let pinned = List.map fst ctx.spec.Constraints.pinned in
    Netlist.labels ctx.nl
    |> List.concat_map (fun l ->
           if
             Hashtbl.mem covered l
             || List.mem l pinned
             || l = Constraints.delay_variable
           then []
           else
             [
               diag ~rule:"cover/orphan-label" ~severity:Error ~loc:(Label l)
                 ~hint:"put the devices on a constrained path or pin the label"
                 (Printf.sprintf
                    "size label %s appears in no timing, stage, or \
                     precharge constraint — the GP sizes it on slope and \
                     bound caps alone, the variable is dead weight"
                    l);
             ])

(* Interval-backed coverage rules: the generated program is abstractly
   interpreted at its declared budgets (fixed classification — lint has
   no respecification loop to appeal to), and the narrowed intervals
   either certify a budget unreachable at ANY sizing or prove a
   constraint can never bind. *)

let r_unreachable_budget ctx =
  match Lazy.force ctx.absint with
  | None -> []
  | Some a -> (
    match a.Absint.certificate with
    | None -> []
    | Some c ->
      [
        diag ~rule:"cover/unreachable-budget" ~severity:Warn
          ~loc:Whole_netlist
          ~hint:
            "relax the target delay, slope cap or precharge budget until \
             the proven floor fits"
          (Printf.sprintf
             "%s — the spec is infeasible for this netlist at every \
              sizing, by interval proof (constraint %s exceeds its budget \
              by %.2fx)"
             c.Absint.detail c.Absint.constraint_name c.Absint.excess);
      ])

let r_vacuous_constraint ctx =
  match Lazy.force ctx.absint with
  | None -> []
  | Some a ->
    if a.Absint.certificate <> None then []
    else begin
      let vacuous =
        Array.to_list a.Absint.constraints
        |> List.filter_map (fun (c : Absint.constraint_bound) ->
               if c.Absint.binding_possible then None else Some c.Absint.name)
      in
      match vacuous with
      | [] -> []
      | names ->
        let n = List.length names in
        let shown = List.filteri (fun i _ -> i < 5) names in
        let suffix = if n > List.length shown then ", ..." else "" in
        [
          diag ~rule:"cover/vacuous-constraint" ~severity:Info
            ~loc:Whole_netlist
            ~hint:
              "harmless, but a large vacuous count suggests budgets far \
               from the design's operating region"
            (Printf.sprintf
               "%d constraint%s can never bind at the declared budgets \
                (interval proof): %s%s"
               n
               (if n = 1 then "" else "s")
               (String.concat ", " shown)
               suffix);
        ]
    end

(* ------------------------------------------------------------------ *)
(* Registry order                                                      *)
(* ------------------------------------------------------------------ *)

type rule = {
  id : string;
  group : string;
  doc : string;
  check : ctx -> Report.diag list;
}

let builtin =
  [
    {
      id = "elec/comb-loop";
      group = "elec";
      doc = "combinational cycles defeat path extraction and the timer";
      check = r_comb_loop;
    };
    {
      id = "elec/undriven";
      group = "elec";
      doc = "every read net needs a driver (floating gates)";
      check = r_undriven;
    };
    {
      id = "elec/no-reader";
      group = "elec";
      doc = "driven-but-unread nets are dead logic the sizer pays for";
      check = r_no_reader;
    };
    {
      id = "elec/drive-fight";
      group = "elec";
      doc = "always-on drivers must own their net exclusively";
      check = r_drive_fight;
    };
    {
      id = "elec/tristate-contention";
      group = "elec";
      doc = "shared tri-state buses need provably or assumedly exclusive enables";
      check = r_tristate_contention;
    };
    {
      id = "family/domino-monotone";
      group = "family";
      doc = "domino inputs must rise monotonically during evaluate";
      check = r_domino_monotone;
    };
    {
      id = "family/unfooted-input";
      group = "family";
      doc = "unfooted (D2) stages need precharge-low inputs";
      check = r_unfooted_input;
    };
    {
      id = "family/keeper";
      group = "family";
      doc = "high-fanout dynamic nodes need a keeper";
      check = r_keeper;
    };
    {
      id = "family/pass-depth";
      group = "family";
      doc = "unrestored pass chains must stay short";
      check = r_pass_depth;
    };
    {
      id = "family/sneak-path";
      group = "family";
      doc = "merging pass branches must have exclusive selects";
      check = r_sneak_path;
    };
    {
      id = "family/vt-drop";
      group = "family";
      doc = "Vt-degraded levels should not feed gate inputs";
      check = r_vt_drop;
    };
    {
      id = "reg/label-role";
      group = "reg";
      doc = "one size label = one device role";
      check = r_label_role;
    };
    {
      id = "reg/dominance";
      group = "reg";
      doc = "the fanout-dominance merge must pick the heaviest-loaded net";
      check = r_dominance;
    };
    {
      id = "cover/arc";
      group = "cover";
      doc = "every timing arc needs a covering constraint";
      check = r_arc_coverage;
    };
    {
      id = "cover/orphan-label";
      group = "cover";
      doc = "every size label needs an active sizing constraint";
      check = r_orphan_label;
    };
    {
      id = "cover/unreachable-budget";
      group = "cover";
      doc = "a budget below the interval-proven floor fails at every sizing";
      check = r_unreachable_budget;
    };
    {
      id = "cover/vacuous-constraint";
      group = "cover";
      doc = "constraints proven slack at every sizing are dead weight";
      check = r_vacuous_constraint;
    };
  ]
