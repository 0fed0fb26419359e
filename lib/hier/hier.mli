(** Hierarchical scale-out: regularity extraction + partitioned GP.

    The monolithic sizer generates and solves one GP over every size
    label of a netlist, so its cost grows with the whole datapath even
    though the gates themselves are small: the monolithic sizing of the
    1152-gate datapath at 2150 ps takes 5.4 s, one constraint generation
    of 2.1 s and 3.5 s in its two GP solves (one run on a 2-vCPU Xeon
    host).  This module goes after exactly the structure the paper's
    methodology promises such netlists have:

    {ol
    {- {b Regularity extraction.}  Gates are grouped into {e components}
       — the closure of "shares a size label" and "co-drives a net",
       i.e. the minimal sets that must be sized by one GP — and
       components are hashed to a canonical name-free form
       (Weisfeiler–Lehman colour refinement for a canonical instance
       order, then structural label/net slot assignment).  Byte-equal
       components form an {e isomorphism class}: one representative per
       class is sized and its widths are broadcast to every member
       through the slot correspondence.  This is the netlist-level
       generalization of the paper's shared size labels.}
    {- {b Partitioned GP.}  Components too rare or too small to dedup
       form the residual; an FM-style min-cut bipartitioner packs them
       into balanced partitions coupled to the rest of the netlist only
       through boundary nets.  Each partition (and each class
       representative) becomes an independent sub-sizing dispatched
       {e concurrently} over the engine's Domain pool, with the engine's
       structural solve cache deduplicating repeats.}
    {- {b Boundary fixed point.}  A sub-problem sees its cut as a spec:
       boundary output loads (computed from the current global widths by
       mirroring the load model, then quantized into logarithmic
       buckets), a boundary input slope, and a delay budget split by
       levelized depth share.  An outer loop assembles the sub-solutions,
       re-times the {e whole} netlist with the golden STA, accepts when
       the global target is met, and otherwise retargets the budgets by
       the measured miss — the sizer's own respecification trick, one
       level up.  Quantization makes the boundary digests stable between
       iterations, so converged sub-problems become engine cache hits.}}

    Correctness never rests on the heuristics: class grouping is by
    byte-equality of canonical forms (a colour-refinement tie that
    misaligns two members only loses a dedup opportunity), and the
    accepted sizing is whatever the golden timer confirms globally. *)

module Tech = Smart_tech.Tech
module Netlist = Smart_circuit.Netlist
module Constraints = Smart_constraints.Constraints
module Sizer = Smart_sizer.Sizer
module Engine = Smart_engine.Engine

type mode = [ `Auto | `Off | `Force ]
(** [`Auto] engages on netlists with at least
    {!options.auto_threshold} instances; [`Force] always; [`Off] never. *)

type options = {
  auto_threshold : int;  (** [`Auto] engagement floor, instances (300) *)
  sizer : Sizer.options;  (** options for every sub-sizing *)
}
(** A structural class dedups once it has 2 members of at least 3 gates
    each; smaller components go to the residual partitioner, which cuts
    at most 48 gates per partition.  The boundary fixed point runs at
    most 12 outer iterations, and boundary loads, slopes and budgets are
    quantized into logarithmic buckets 5% wide. *)

val default_options : options

type plan = {
  total_instances : int;
  components : int;  (** label/co-driver coupling closures *)
  classes : int;  (** structural isomorphism classes *)
  dedup_classes : int;  (** classes meeting both dedup floors *)
  deduped_instances : int;  (** gates covered by dedup classes *)
  residual_instances : int;  (** gates routed to the partitioner *)
  partitions : int;  (** residual partitions formed *)
  cut_nets : int;  (** nets crossing a unit boundary *)
  class_sizes : (int * int) list;
      (** (members, gates per member) per dedup class, largest first *)
}

type report = {
  plan : plan;
  outer_iterations : int;
  solves : int;  (** sub-sizings dispatched (all iterations, retries) *)
  distinct_tasks : int;
      (** distinct (class, boundary) groups in the accepted iteration *)
  dedup_ratio : float;
      (** instances covered per sub-problem actually solved in the
          accepted iteration: [total / (instances of distinct tasks)] *)
  boundary_movement : float;
      (** worst boundary-net arrival movement between the last two
          iterations, ps ([infinity] after a single iteration) *)
}

type outcome = {
  sizer : Sizer.outcome;
      (** the assembled global sizing, reported golden: [achieved_delay]
          and [sta] are full-netlist STA results; [constraint_stats]
          aggregates the solved sub-programs, with [problem] carrying
          the true global area objective only (the global GP is never
          materialized — that is the point) *)
  report : report;
}

val engages : ?options:options -> mode -> Netlist.t -> bool
(** Whether hierarchical sizing should handle this netlist under [mode]. *)

val plan : Netlist.t -> plan
(** The static decomposition (no solving): components, classes,
    partitions, cut.  [size] recomputes the same plan internally. *)

val size :
  ?options:options ->
  ?label:string ->
  engine:Engine.t ->
  Tech.t ->
  Netlist.t ->
  Constraints.spec ->
  (outcome, Smart_util.Err.t) result
(** Hierarchically size [netlist] to [spec] using [engine]'s worker pool
    for concurrent sub-solves and its cache for repeat boundaries.
    [label] names the enclosing candidate: every sub-solve trace span is
    emitted as ["hier:<label>/<unit>"] (just ["hier:<unit>"] without it),
    so batch callers keep per-candidate span attribution — the parity
    {!Smart_explore.Explore} relies on.
    Callers gate on {!engages}; [size] itself always decomposes.
    Errors: an infeasible sub-problem — including one its sizer
    certifies infeasible before any GP solve — surfaces as
    {!Smart_util.Err.Infeasible_spec} against [spec]'s target, without a
    relaxed retry; an outer loop that exhausts 12 outer iterations
    without the golden timer confirming the target is
    {!Smart_util.Err.Sta_disagreement}. *)
