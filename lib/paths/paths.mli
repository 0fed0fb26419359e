(** Topological path extraction with §5.2 complexity reduction.

    A combinational circuit can have an astronomically large path set (the
    paper measures over 32 000 on a 64-bit dynamic adder); generating one
    timing constraint per path would swamp the GP solver.  Three reductions
    shrink the set while keeping the worst case covered:

    {ul
    {- {b Regularity}: datapath schematics share size labels across bit
       slices, so structurally identical nets generate identical
       constraints; nets are grouped into classes by recursive structural
       hashing and one representative path per class survives.}
    {- {b Pin precedence}: within a gate, pins whose fanins belong to the
       same class are statically ordered fast/slow by stack position; only
       the slowest pin of each equivalence group is explored.}
    {- {b Fanout dominance}: among identically-labelled nets, the one
       driving the most fanout dominates (it is the slower under any common
       sizing); dominated twins merge into its class.  Heuristically decided
       on fanout counts, as in the paper (capacitances are unknown during
       sizing).}}

    Each reduction can be toggled independently (ablation benches). *)

type step = {
  s_inst : Smart_circuit.Netlist.instance;
  s_pin : string;  (** input pin through which the path enters the cell *)
}

type path = { steps : step list }
(** Input-to-output order; the path's endpoint is the last step's output. *)

type reductions = { regularity : bool; precedence : bool; dominance : bool }

val all_reductions : reductions
val no_reductions : reductions

type stats = {
  exhaustive_paths : float;
      (** path count with no reduction (computed by DP, never enumerated) *)
  reduced_paths : int;
  class_count : int;  (** distinct net classes after merging *)
  reduction_factor : float;
}

val exhaustive_count : Smart_circuit.Netlist.t -> float
(** Input-to-output topological path count, senses ignored. *)

type classes
(** Net equivalence classes under the enabled reductions. *)

val classes : ?reductions:reductions -> Smart_circuit.Netlist.t -> classes
val class_of_net : classes -> Smart_circuit.Netlist.net_id -> int
val class_rep : classes -> int -> Smart_circuit.Netlist.net_id
(** Representative (max-fanout) net of a class. *)

val class_count : classes -> int
val class_reps : classes -> Smart_circuit.Netlist.net_id list
(** One representative net per class. *)

val extract :
  ?reductions:reductions ->
  ?max_paths:int ->
  Smart_circuit.Netlist.t ->
  path list * stats
(** Enumerate the reduced path set.  Raises when more than [max_paths]
    (default 200 000) would be produced — a sign a reduction should be
    enabled. *)

val path_endpoint : path -> Smart_circuit.Netlist.net_id
(** Net the path terminates on. *)

val levels : Smart_circuit.Netlist.t -> int array
(** Topological level per net id: primary inputs at 0, every driven net
    one past its slowest fanin (max over drivers for co-driven nets).
    {!Smart_hier} splits partition delay budgets by level-span share. *)

val depth : Smart_circuit.Netlist.t -> int
(** [Array.fold_left max 0 (levels t)] — the levelised logic depth. *)

