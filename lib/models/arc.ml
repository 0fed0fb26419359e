module Err = Smart_util.Err
module Cell = Smart_circuit.Cell

type sense = Rise | Fall

let opposite = function Rise -> Fall | Fall -> Rise

type kind = Data | Control | Precharge | Eval

type t = { pin : string; kind : kind; senses : (sense * sense) list }

let inverting_senses = [ (Rise, Fall); (Fall, Rise) ]
let buffering_senses = [ (Rise, Rise); (Fall, Fall) ]

let arcs_of cell =
  match cell with
  | Cell.Static { pull_down; _ } ->
    List.map
      (fun pin -> { pin; kind = Data; senses = inverting_senses })
      (Smart_circuit.Pdn.pins pull_down)
  | Cell.Passgate { style; _ } ->
    let on_sense =
      (* Transition of the select pin that turns the switch on. *)
      match style with Cell.P_only -> Fall | Cell.Cmos_tgate | Cell.N_only -> Rise
    in
    [
      { pin = "d"; kind = Data; senses = buffering_senses };
      (* §5.3: a turning-on select can produce either output transition
         depending on the value waiting at the data port: two paths, four
         constraints. *)
      { pin = "s"; kind = Control; senses = [ (on_sense, Rise); (on_sense, Fall) ] };
    ]
  | Cell.Tristate _ ->
    [
      { pin = "d"; kind = Data; senses = inverting_senses };
      { pin = "en"; kind = Control; senses = [ (Rise, Rise); (Rise, Fall) ] };
    ]
  | Cell.Domino { pull_down; _ } ->
    (* Domino logic is monotone: data pins only rise during evaluate, and
       the (non-inverting) stage output only rises. *)
    List.map
      (fun pin -> { pin; kind = Eval; senses = [ (Rise, Rise) ] })
      (Smart_circuit.Pdn.pins pull_down)
    @ [ { pin = "clk"; kind = Precharge; senses = [ (Fall, Fall) ] } ]

let data_arcs_of cell =
  List.filter (fun a -> a.kind <> Precharge) (arcs_of cell)

let arc_of_pin cell pin =
  match List.find_opt (fun a -> a.pin = pin) (arcs_of cell) with
  | Some a -> a
  | None -> Err.fail "Arc.arc_of_pin: cell %s has no arc from pin %s" (Cell.gate_name cell) pin

let kind_to_string = function
  | Data -> "data"
  | Control -> "control"
  | Precharge -> "precharge"
  | Eval -> "eval"
