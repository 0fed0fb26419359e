(** Timing arcs of a cell.

    An arc is a (pin, transition-pair) along which a signal edge propagates
    to the cell output.  The §5.3 constraint discipline falls out of the
    arc sets: a static gate contributes rise and fall constraints per pin;
    a pass gate contributes two data and four control constraints; domino
    stages contribute evaluate arcs from data pins and a precharge arc from
    the clock. *)

type sense = Rise | Fall

val opposite : sense -> sense

type kind =
  | Data  (** ordinary logic propagation *)
  | Control  (** pass-gate select / tri-state enable *)
  | Precharge  (** clock-to-output precharge of a dynamic stage *)
  | Eval  (** evaluate propagation of a dynamic stage *)

type t = {
  pin : string;  (** input pin, or ["clk"] for precharge arcs *)
  kind : kind;
  senses : (sense * sense) list;
      (** supported (input transition, output transition) pairs *)
}

val arcs_of : Smart_circuit.Cell.kind -> t list
(** All timing arcs of a cell, clock arcs included. *)

val data_arcs_of : Smart_circuit.Cell.kind -> t list
(** Arcs reachable from data/control pins (no clock arcs). *)

val arc_of_pin : Smart_circuit.Cell.kind -> string -> t
(** Raises if the pin has no arc. *)

val kind_to_string : kind -> string
