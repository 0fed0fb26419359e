module Err = Smart_util.Err
module Netlist = Smart_circuit.Netlist
module Cell = Smart_circuit.Cell
module Tech = Smart_tech.Tech
module Posy = Smart_posy.Posy
module Monomial = Smart_posy.Monomial

type t = {
  tech : Tech.t;
  netlist : Netlist.t;
  cache : (Netlist.net_id, Posy.t) Hashtbl.t;
}

let make tech netlist = { tech; netlist; cache = Hashtbl.create 64 }

let ext_load t nid =
  List.fold_left
    (fun acc (n, c) -> if n = nid then acc +. c else acc)
    0. t.netlist.Netlist.ext_loads

(* Minimum parasitic on any net: keeps the posynomial strictly positive and
   models unavoidable local interconnect. *)
let floor_cap = 0.3

let rec symbolic t nid =
  match Hashtbl.find_opt t.cache nid with
  | Some p -> p
  | None ->
    (* Install a conservative placeholder to cut recursion through
       pass-gate loops (shared bus nets read by the gates that drive
       them never arise in our macros, but guard anyway). *)
    Hashtbl.replace t.cache nid (Posy.const floor_cap);
    let readers = Netlist.fanout t.netlist nid in
    let constant =
      floor_cap +. ext_load t nid
      +. (t.tech.Tech.wire_cap_per_fanout *. float_of_int (List.length readers))
    in
    let gate_terms =
      List.concat_map
        (fun ((i : Netlist.instance), pin) ->
          List.map
            (fun (label, mult) ->
              Monomial.make (t.tech.Tech.cg *. mult) [ (label, 1.) ])
            (Cell.pin_cap_widths i.Netlist.cell pin))
        readers
    in
    let channel_terms =
      List.concat_map
        (fun ((i : Netlist.instance), pin) ->
          match Cell.pin_diff_widths i.Netlist.cell pin with
          | [] -> []
          | diffs ->
            let diff_monos =
              List.map
                (fun (label, mult) ->
                  Monomial.make (t.tech.Tech.cd *. mult) [ (label, 1.) ])
                diffs
            in
            (* Load behind the switch, seen through it when conducting. *)
            let behind = symbolic t i.Netlist.out in
            diff_monos @ Posy.monomials behind)
        readers
    in
    let p =
      Posy.of_monomials (Monomial.const constant :: (gate_terms @ channel_terms))
    in
    Hashtbl.replace t.cache nid p;
    p

let numeric t sizing nid =
  let env v =
    let w = sizing v in
    if not (w > 0.) then Err.fail "Load.numeric: non-positive width for %s" v;
    w
  in
  Posy.eval env (symbolic t nid)
