(* What one pass of a workload observed, from outside the program. *)

module Smart = Smart_core.Smart

type op = {
  op_id : string;
  measured : bool;  (** false for warm-up traffic (the store prefill) *)
  sent : float;  (** absolute wall clock *)
  replied : float;
  served_on : int option;
      (** serve workloads: the worker domain whose [reply] callback
          answered; [None] when the op ran on the bench's own domain *)
  wall_ms : float option;  (** the reply's own [wall_ms] *)
  template : (string * int) option;  (** advise requests: (kind, bits) *)
}

let latency_s op = op.replied -. op.sent

(* A distinct input the run saw, replayed layer by layer afterwards. *)
type input =
  | Template of { kind : string; bits : int; delay : float }
      (** an advise request: every applicable database topology *)
  | Netlist of {
      build : unit -> Smart.Macro.info;
      spec : Smart.Constraints.spec;
    }  (** one netlist sized directly *)

type t = {
  ops : op list;  (** stream order *)
  setups : float list;  (** seconds, one per set-up *)
  window_s : float;  (** wall time of the measured ops *)
  cpu_s : float;  (** process CPU time over the same window *)
  minor_words : float;  (** allocated over the window *)
  major_collections : int;
  attempted : int;
  failures : string list;  (** one reason per failed op *)
  width_um : float;  (** summed accepted width over the first deck *)
  inputs : input list;
  wire : (string * string) list;  (** distinct (request, response) lines *)
  candidates : int;  (** ranked candidates, summed over advice replies *)
  rejected : int;
  refused : int;  (** requests the daemon answered [overloaded] *)
  impossible : string list;  (** op ids answered [infeasible-spec] on purpose *)
  store_dir : string option;
  cache : Smart.Engine.cache_stats list;  (** every engine the pass used *)
  hier : Smart.Hier.report list;
}

let measured_latencies t =
  List.filter_map (fun op -> if op.measured then Some (latency_s op) else None) t.ops
