(** The SMART evaluation engine — the hot path for all multi-candidate
    work.

    The Figure 1 flow sizes {e every} applicable topology per advisory
    call; candidates are independent iterated GP solves, so the engine
    fans them out across a worker pool, memoizes sizer outcomes keyed on
    the structural identity of the request, and emits typed trace spans
    for each unit of work.  {!Smart_explore.Explore}, the CLI and the
    benches all route their sizings through an engine; a default
    (process-global) instance serves callers that pass none.

    {b Parallelism.}  Workers are OCaml 5 domains.  The pool is only
    engaged when more than one worker is configured {e and} the runtime
    recommends more than one domain; otherwise evaluation falls back to a
    deterministic sequential loop.  Both paths preserve input order, so
    rankings are identical regardless of worker count.

    {b Caching.}  The engine memoizes sizings and min-delay solves only,
    under a digest of (netlist structure, size-label set, spec, tech,
    sizer options) — the netlist {e name} is excluded, so structurally
    identical candidates share an entry.  The cache is LRU-bounded and safe to share across worker
    domains.  Only [Ok] outcomes are memoized: a transient failure (GP
    hiccup, injected fault) must not replay as a Hit on every retry, so
    an identical request after an [Error] re-runs the sizer. *)

module Err = Smart_util.Err
module Tech = Smart_tech.Tech
module Netlist = Smart_circuit.Netlist
module Constraints = Smart_constraints.Constraints
module Corners = Smart_corners.Corners
module Sizer = Smart_sizer.Sizer

(** {1 Instrumentation} *)

module Trace : sig
  type cache_status =
    | Hit  (** served from the in-memory solve cache *)
    | Disk
        (** served from the engine's persistent backing store
            ({!set_store}) and promoted into the memory cache *)
    | Miss  (** solved, then inserted *)
    | Bypass  (** caching disabled on this engine *)

  type event =
    | Sizing of {
        label : string;  (** candidate name (database entry or netlist) *)
        wall_s : float;
        iterations : int;  (** outer respecification iterations *)
        gp_newton : int;  (** cumulative inner Newton steps *)
        sta_verifies : int;
            (** golden-timer runs the sizing made (0 when served from a
                cache or failed) *)
        cache : cache_status;
        ok : bool;
      }  (** one per candidate sizing routed through an engine *)
    | Min_delay of { label : string; wall_s : float; cache : cache_status }
    | Analysis of { label : string; wall_s : float; cache : cache_status }
        (** no longer emitted: the engine runs no interval analysis of its
            own (the sizer's certificate gate runs inside {!Sizing}).
            Kept, with its {!to_string} and {!to_json} cases, for sinks
            that still match on it. *)
    | Gp_solve of {
        wall_s : float;
        newton : int;
        centering : int;
        status : string;
        warm : bool;  (** warm start accepted — phase I was skipped *)
      }  (** decoded from the solver's ["gp.solve"] tracepoint *)
    | Sta_verify of {
        wall_s : float;
        mode : string;
        netlist : string;
        max_delay_ps : float;
      }  (** decoded from the golden timer's ["sta.analyze"] tracepoint *)
    | Sizer_span of {
        wall_s : float;
        netlist : string;
        target_ps : float;
        ok : bool;
      }  (** decoded from ["sizer.size"] (direct, engine-less sizings) *)
    | Lint_span of {
        wall_s : float;
        netlist : string;
        rules : int;
        errors : int;  (** unwaived [Error]-severity findings *)
        warnings : int;
      }  (** decoded from ["lint.run"] ({!Smart_lint.Lint.run}) *)
    | Raw of Smart_util.Tracepoint.event  (** unrecognised span *)

  type sink = event -> unit

  val null : sink
  val stderr_line : sink  (** one compact line per event on stderr *)

  val memory : unit -> sink * (unit -> event list)
  (** An accumulating sink and its drain (events in emission order).
      Both are safe to call from concurrent worker domains — the
      accumulator is mutex-guarded, so no event is ever lost to a racing
      read-modify-write. *)

  val json_lines : out_channel -> sink
  (** One JSON object per line; the caller owns the channel.  Each
      returned sink serialises its writes under an internal lock and
      flushes after every line, so concurrent domains never interleave
      bytes within a line and a consumer tailing the channel sees
      complete lines immediately. *)

  val to_string : event -> string
  val to_json : event -> string

  val install_global : sink -> unit
  (** Bridge the process-wide {!Smart_util.Tracepoint} stream (GP solver,
      golden timer, sizer internals) into [sink]. *)

  val uninstall_global : unit -> unit
end

(** {1 The engine} *)

type t

type cache_stats = {
  hits : int;  (** in-memory hits *)
  store_hits : int;  (** persistent-store hits (promoted into memory) *)
  misses : int;  (** full misses — the sizer actually ran *)
  evictions : int;
  entries : int;  (** currently resident in memory *)
  capacity : int;
}

val create : ?workers:int -> ?cache_capacity:int -> ?sink:Trace.sink -> unit -> t
(** [workers]: pool width; [0] (default) means
    [Domain.recommended_domain_count ()].  [cache_capacity]: LRU bound on
    memoized outcomes; [0] disables caching (default 256).  [sink]
    receives this engine's {!Trace.event}s (default {!Trace.null}). *)

val default : unit -> t
(** The process-global engine used when a caller passes none (auto
    workers, 256-entry cache, null sink). *)

val workers : t -> int
(** Effective pool width ([Domain.recommended_domain_count ()] when
    created with [workers:0]). *)

val parallelism_available : unit -> bool
(** Whether the runtime recommends more than one domain. *)

val set_sink : t -> Trace.sink -> unit
val cache_stats : t -> cache_stats
val hit_rate : cache_stats -> float
(** [(hits + store_hits) / (hits + store_hits + misses)]; 0 when no
    lookups happened. *)

(** {1 Persistent solve-cache backing store} *)

(** A pluggable second cache level keyed by the same structural digests
    as the memory cache.  Lookups consult memory first, then the store; a
    store hit is decoded, promoted into the memory LRU and traced as
    {!Trace.Disk}.  Only [Ok] outcomes are ever saved (the no-error-
    caching invariant extends to disk), and any store failure — I/O
    error, undecodable blob — silently degrades to a miss.  Entries are
    Marshal blobs tied to the producing binary and to {!cache_version};
    {!Smart_serve.Store} provides the content-addressed on-disk
    implementation the serve daemon uses. *)
module Store : sig
  type t = {
    find : string -> string option;  (** digest → blob *)
    save : string -> string -> unit;  (** must be atomic per key *)
  }
end

val set_store : t -> Store.t option -> unit
(** Attach (or detach) a persistent backing store.  Only consulted while
    caching is enabled ([cache_capacity > 0]). *)

val cache_version : unit -> string
(** The solver/model version stamp folded into every solve-cache digest. *)

val set_cache_version : string -> unit
(** Replace the stamp.  Every existing entry — memory or store — keys
    under the old stamp and can no longer be served: bump this whenever
    solver or model semantics change.  Exposed so tests can flip it and
    assert the miss. *)

module Pool : sig
  val recommended : unit -> int
  (** [Domain.recommended_domain_count ()] — the width an engine created
      with [workers:0] gets.  Exposed so benches and callers provisioning
      explicit pools can anchor on the runtime's recommendation. *)
end

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map over the engine's worker pool.  Falls back to
    [List.map] when the pool width is 1.  If [f] raises, remaining items
    still run and the first exception (in input order) is re-raised with
    the worker domain's backtrace; {!Smart_util.Err.Smart_error}
    messages are prefixed with the failing item's index. *)

val size :
  t ->
  ?label:string ->
  options:Sizer.options ->
  Tech.t ->
  Netlist.t ->
  Constraints.spec ->
  (Sizer.outcome, Err.t) result
(** Memoized {!Sizer.size_typed}: {!size_robust}'s sizing over the
    one-corner set {!Corners.of_tech}[ tech], its verifies sequential,
    projected to the joint outcome.  Emits one {!Trace.Sizing} span
    labelled [<name>]. *)

val size_robust :
  t ->
  ?label:string ->
  ?pooled_verify:bool ->
  options:Sizer.options ->
  Corners.set ->
  Netlist.t ->
  Constraints.spec ->
  (Sizer.robust_outcome, Err.t) result
(** Memoized {!Sizer.size_robust_typed} — the engine's one sizing path.
    The per-round per-corner golden STA verifies are fanned across this
    engine's worker pool unless [pooled_verify] is [false] (set by
    {!size_robust_all}, whose candidates already saturate the pool).
    Cache keys digest the full corner list — names, cumulative
    [rc_scale] and each corner's scaled technology — alongside the
    structural solve identity, so a typ-only entry never serves a
    multi-corner request (or vice versa).  Emits one {!Trace.Sizing} span
    labelled [<name>[<corners>]]. *)

val minimize_delay :
  t ->
  ?label:string ->
  options:Sizer.options ->
  Tech.t ->
  Netlist.t ->
  Constraints.spec ->
  (Sizer.min_delay, Err.t) result
(** Memoized {!Sizer.minimize_delay_typed}. *)

val size_all :
  t ->
  options:Sizer.options ->
  Tech.t ->
  Constraints.spec ->
  (string * Netlist.t) list ->
  (string * (Sizer.outcome, Err.t) result) list
(** Size every named candidate against one spec across the pool, each
    through {!size} — {!size_robust_all} over {!Corners.of_tech}[ tech],
    projected and labelled [<name>].  Results are returned in input
    order.  A worker that raises
    {!Smart_util.Err.Smart_error} on one item degrades to
    [Error (Worker_crash _)] in that item's slot; the rest of the batch
    is unaffected. *)

val size_robust_all :
  t ->
  options:Sizer.options ->
  Corners.set ->
  Constraints.spec ->
  (string * Netlist.t) list ->
  (string * (Sizer.robust_outcome, Err.t) result) list
(** {!size_all}'s robust counterpart: every named candidate jointly sized
    over the corner set across the pool (per-candidate corner verifies
    sequential — the batch already saturates the workers).  Same ordering
    and per-item degradation guarantees. *)
