module Err = Smart_util.Err
module Tracepoint = Smart_util.Tracepoint
module Json = Smart_util.Json
module Tech = Smart_tech.Tech
module Netlist = Smart_circuit.Netlist
module Constraints = Smart_constraints.Constraints
module Corners = Smart_corners.Corners
module Sizer = Smart_sizer.Sizer

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type cache_status = Hit | Disk | Miss | Bypass

  type event =
    | Sizing of {
        label : string;
        wall_s : float;
        iterations : int;
        gp_newton : int;
        sta_verifies : int;
        cache : cache_status;
        ok : bool;
      }
    | Min_delay of { label : string; wall_s : float; cache : cache_status }
    | Analysis of { label : string; wall_s : float; cache : cache_status }
    | Gp_solve of {
        wall_s : float;
        newton : int;
        centering : int;
        status : string;
        warm : bool;
      }
    | Sta_verify of {
        wall_s : float;
        mode : string;
        netlist : string;
        max_delay_ps : float;
      }
    | Sizer_span of {
        wall_s : float;
        netlist : string;
        target_ps : float;
        ok : bool;
      }
    | Lint_span of {
        wall_s : float;
        netlist : string;
        rules : int;
        errors : int;
        warnings : int;
      }
    | Raw of Tracepoint.event

  type sink = event -> unit

  let null _ = ()

  let cache_name = function
    | Hit -> "hit"
    | Disk -> "disk"
    | Miss -> "miss"
    | Bypass -> "bypass"

  let to_string = function
    | Sizing s ->
      Printf.sprintf
        "sizing %-34s %8.3fs iters=%d newton=%d sta=%d cache=%s %s" s.label
        s.wall_s s.iterations s.gp_newton s.sta_verifies (cache_name s.cache)
        (if s.ok then "ok" else "rejected")
    | Min_delay m ->
      Printf.sprintf "min-delay %-31s %8.3fs cache=%s" m.label m.wall_s
        (cache_name m.cache)
    | Analysis a ->
      Printf.sprintf "absint %-34s %8.3fs cache=%s" a.label a.wall_s
        (cache_name a.cache)
    | Gp_solve g ->
      Printf.sprintf "gp-solve %8.3fs newton=%d centering=%d status=%s %s"
        g.wall_s g.newton g.centering g.status
        (if g.warm then "warm" else "cold")
    | Sta_verify v ->
      Printf.sprintf "sta-verify %-30s %8.3fs mode=%s max=%.1fps" v.netlist
        v.wall_s v.mode v.max_delay_ps
    | Sizer_span s ->
      Printf.sprintf "sizer %-35s %8.3fs target=%.1fps %s" s.netlist s.wall_s
        s.target_ps
        (if s.ok then "ok" else "rejected")
    | Lint_span l ->
      Printf.sprintf "lint %-36s %8.3fs rules=%d errors=%d warnings=%d"
        l.netlist l.wall_s l.rules l.errors l.warnings
    | Raw e ->
      Printf.sprintf "%s %8.3fs %s" e.Tracepoint.span e.Tracepoint.dur_s
        (String.concat " "
           (List.map
              (fun (k, v) -> k ^ "=" ^ Tracepoint.value_to_string v)
              e.Tracepoint.attrs))

  let json_fields fields =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Json.quote k ^ ":" ^ v) fields)
    ^ "}"

  let jstr = Json.quote
  let jfloat f = Printf.sprintf "%.6g" f
  let jbool b = if b then "true" else "false"

  let to_json = function
    | Sizing s ->
      json_fields
        [
          ("event", jstr "sizing"); ("label", jstr s.label);
          ("wall_s", jfloat s.wall_s);
          ("iterations", string_of_int s.iterations);
          ("gp_newton", string_of_int s.gp_newton);
          ("sta_verifies", string_of_int s.sta_verifies);
          ("cache", jstr (cache_name s.cache)); ("ok", jbool s.ok);
        ]
    | Min_delay m ->
      json_fields
        [
          ("event", jstr "min_delay"); ("label", jstr m.label);
          ("wall_s", jfloat m.wall_s); ("cache", jstr (cache_name m.cache));
        ]
    | Analysis a ->
      json_fields
        [
          ("event", jstr "absint"); ("label", jstr a.label);
          ("wall_s", jfloat a.wall_s); ("cache", jstr (cache_name a.cache));
        ]
    | Gp_solve g ->
      json_fields
        [
          ("event", jstr "gp_solve"); ("wall_s", jfloat g.wall_s);
          ("newton", string_of_int g.newton);
          ("centering", string_of_int g.centering);
          ("status", jstr g.status); ("warm", jbool g.warm);
        ]
    | Sta_verify v ->
      json_fields
        [
          ("event", jstr "sta_verify"); ("netlist", jstr v.netlist);
          ("wall_s", jfloat v.wall_s); ("mode", jstr v.mode);
          ("max_delay_ps", jfloat v.max_delay_ps);
        ]
    | Sizer_span s ->
      json_fields
        [
          ("event", jstr "sizer"); ("netlist", jstr s.netlist);
          ("wall_s", jfloat s.wall_s); ("target_ps", jfloat s.target_ps);
          ("ok", jbool s.ok);
        ]
    | Lint_span l ->
      json_fields
        [
          ("event", jstr "lint"); ("netlist", jstr l.netlist);
          ("wall_s", jfloat l.wall_s); ("rules", string_of_int l.rules);
          ("errors", string_of_int l.errors);
          ("warnings", string_of_int l.warnings);
        ]
    | Raw e ->
      json_fields
        (("event", jstr "raw")
        :: ("span", jstr e.Tracepoint.span)
        :: ("wall_s", jfloat e.Tracepoint.dur_s)
        :: List.map
             (fun (k, v) ->
               ( k,
                 match v with
                 | Tracepoint.Int i -> string_of_int i
                 | Tracepoint.Float f -> jfloat f
                 | Tracepoint.Str s -> jstr s
                 | Tracepoint.Bool b -> jbool b ))
             e.Tracepoint.attrs)

  let stderr_line e = Printf.eprintf "trace: %s\n%!" (to_string e)

  let memory () =
    (* Worker domains emit concurrently; the cons is a read-modify-write
       that would lose events unguarded, so both the sink and the drain
       take the lock. *)
    let lock = Mutex.create () in
    let events = ref [] in
    let locked f =
      Mutex.lock lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
    in
    ( (fun e -> locked (fun () -> events := e :: !events)),
      fun () -> locked (fun () -> List.rev !events) )

  let json_lines oc =
    (* One lock per sink: a line is rendered outside the lock, then
       written and flushed atomically — concurrent domains can never
       interleave bytes within a line, and a consumer tailing the channel
       sees every completed line immediately. *)
    let lock = Mutex.create () in
    fun e ->
      let line = to_json e in
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          output_string oc line;
          output_char oc '\n';
          flush oc)

  let attr_int attrs k =
    match List.assoc_opt k attrs with Some (Tracepoint.Int i) -> i | _ -> 0

  let attr_float attrs k =
    match List.assoc_opt k attrs with Some (Tracepoint.Float f) -> f | _ -> 0.

  let attr_str attrs k =
    match List.assoc_opt k attrs with Some (Tracepoint.Str s) -> s | _ -> ""

  let attr_bool attrs k =
    match List.assoc_opt k attrs with
    | Some (Tracepoint.Bool b) -> b
    | _ -> false

  let of_tracepoint (e : Tracepoint.event) =
    let a = e.Tracepoint.attrs in
    match e.Tracepoint.span with
    | "gp.solve" ->
      Gp_solve
        {
          wall_s = e.Tracepoint.dur_s;
          newton = attr_int a "newton";
          centering = attr_int a "centering";
          status = attr_str a "status";
          warm = attr_bool a "warm";
        }
    | "sta.analyze" ->
      Sta_verify
        {
          wall_s = e.Tracepoint.dur_s;
          mode = attr_str a "mode";
          netlist = attr_str a "netlist";
          max_delay_ps = attr_float a "max_delay_ps";
        }
    | "sizer.size" ->
      Sizer_span
        {
          wall_s = e.Tracepoint.dur_s;
          netlist = attr_str a "netlist";
          target_ps = attr_float a "target_ps";
          ok = attr_bool a "ok";
        }
    | "lint.run" ->
      Lint_span
        {
          wall_s = e.Tracepoint.dur_s;
          netlist = attr_str a "netlist";
          rules = attr_int a "rules";
          errors = attr_int a "errors";
          warnings = attr_int a "warnings";
        }
    | _ -> Raw e

  let install_global sink =
    Tracepoint.set_sink (Some (fun e -> sink (of_tracepoint e)))

  let uninstall_global () = Tracepoint.set_sink None
end

(* ------------------------------------------------------------------ *)
(* Solve cache                                                         *)
(* ------------------------------------------------------------------ *)

type cache_stats = {
  hits : int;
  store_hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

module Cache = struct
  type cached =
    | Sized of (Sizer.robust_outcome, Err.t) result
    | Min of (Sizer.min_delay, Err.t) result

  type entry = { mutable last_use : int; value : cached }

  type t = {
    capacity : int;
    table : (string, entry) Hashtbl.t;
    lock : Mutex.t;
    mutable tick : int;
    mutable hits : int;
    mutable store_hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create capacity =
    {
      capacity;
      table = Hashtbl.create (max 16 capacity);
      lock = Mutex.create ();
      tick = 0;
      hits = 0;
      store_hits = 0;
      misses = 0;
      evictions = 0;
    }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let find t key =
    locked t (fun () ->
        t.tick <- t.tick + 1;
        match Hashtbl.find_opt t.table key with
        | Some e ->
          e.last_use <- t.tick;
          t.hits <- t.hits + 1;
          Some e.value
        | None ->
          t.misses <- t.misses + 1;
          None)

  (* Evict the least-recently-used entry.  A linear scan: capacities are
     small (hundreds) and eviction only runs when the cache is full.
     Equal ages tie-break on the smaller key so the victim — and thus the
     cache contents after any request sequence — is independent of
     [Hashtbl.iter] order (which varies with insertion history and hash
     seeding). *)
  let evict_lru t =
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        match !victim with
        | Some (vk, age)
          when e.last_use < age || (e.last_use = age && String.compare k vk < 0)
          ->
          victim := Some (k, e.last_use)
        | Some _ -> ()
        | None -> victim := Some (k, e.last_use))
      t.table;
    match !victim with
    | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1
    | None -> ()

  let add t key value =
    if t.capacity > 0 then
      locked t (fun () ->
          if not (Hashtbl.mem t.table key) then begin
            if Hashtbl.length t.table >= t.capacity then evict_lru t;
            t.tick <- t.tick + 1;
            Hashtbl.replace t.table key { last_use = t.tick; value }
          end)

  (* A persistent-store hit: reclassify the miss the caller's memory
     lookup already counted as a store hit (guarded so misses can never
     go negative), and promote the entry so repeats hit memory. *)
  let store_promote t key value =
    locked t (fun () ->
        if t.misses > 0 then begin
          t.misses <- t.misses - 1;
          t.store_hits <- t.store_hits + 1
        end;
        if t.capacity > 0 && not (Hashtbl.mem t.table key) then begin
          if Hashtbl.length t.table >= t.capacity then evict_lru t;
          t.tick <- t.tick + 1;
          Hashtbl.replace t.table key { last_use = t.tick; value }
        end)

  let stats t =
    locked t (fun () ->
        {
          hits = t.hits;
          store_hits = t.store_hits;
          misses = t.misses;
          evictions = t.evictions;
          entries = Hashtbl.length t.table;
          capacity = t.capacity;
        })
end

(* The solver/model version stamp folded into every cache key.  Bump it
   whenever the sizer, the GP solver or the timing models change meaning:
   a persisted entry written under another stamp then simply never
   matches, so a newer binary can never be served an older binary's
   solution (and vice versa).  Settable so tests can flip it and assert
   the miss, and so embedders can namespace their own model changes. *)
let version_stamp = Atomic.make "smart-solve-3"
let cache_version () = Atomic.get version_stamp
let set_cache_version v = Atomic.set version_stamp v

(* Pluggable persistent backing store for the solve cache (the serve
   daemon plugs a content-addressed on-disk store in here).  Keys are the
   same digests the in-memory cache uses; values are opaque blobs. *)
module Store = struct
  type t = {
    find : string -> string option;
    save : string -> string -> unit;
  }
end

(* The cache key digests the structural identity of a solve: netlist
   wiring and size-label set (the name is dropped so structurally equal
   candidates share entries), the delay specification, the technology —
   and, for sizings, the full corner list (names, cumulative rc_scale and
   each corner's scaled technology), so a typ-only entry can never serve
   a 3-corner request and vice versa — and the full sizer options.  All
   components are plain data, so a Marshal digest is a faithful
   structural hash. *)
let solve_key ~tag ?corners ~(options : Sizer.options) tech (nl : Netlist.t) spec =
  let structure =
    ( Array.map (fun n -> (n.Netlist.net_name, n.Netlist.net_kind)) nl.Netlist.nets,
      Array.map
        (fun (i : Netlist.instance) ->
          (i.Netlist.group, i.Netlist.cell, i.Netlist.conns, i.Netlist.clk,
           i.Netlist.out))
        nl.Netlist.instances,
      nl.Netlist.inputs,
      nl.Netlist.outputs,
      nl.Netlist.clock,
      nl.Netlist.ext_loads,
      Netlist.labels nl )
  in
  let corner_key =
    match corners with
    | None -> None
    | Some set ->
      Some
        (List.map
           (fun (c : Corners.corner) ->
             (c.Corners.corner_name, c.Corners.rc_scale, c.Corners.tech))
           (Corners.to_list set))
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (cache_version (), tag, corner_key, structure, spec, tech, options)
          []))

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  let recommended () = Domain.recommended_domain_count ()

  (* Work-stealing over a shared index: each domain repeatedly claims the
     next unprocessed item.  Results land in their input slot, so order is
     preserved whatever the interleaving. *)
  let map ~workers f xs =
    let n = List.length xs in
    let w = min workers n in
    if w <= 1 then List.map f xs
    else begin
      let input = Array.of_list xs in
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            results.(i) <-
              Some
                (try Ok (f input.(i))
                 with e -> Error (e, Printexc.get_raw_backtrace ()));
            loop ()
          end
        in
        loop ()
      in
      let domains = List.init (w - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join domains;
      Array.to_list results
      |> List.mapi (fun i -> function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) ->
             (* Re-raise with the worker domain's backtrace, naming the
                failing item; a bare [raise] here would replace the trace
                with this collection loop's. *)
             let e =
               match e with
               | Err.Smart_error msg ->
                 Err.Smart_error (Printf.sprintf "item %d: %s" i msg)
               | e -> e
             in
             Printexc.raise_with_backtrace e bt
           | None -> assert false)
    end
end

(* ------------------------------------------------------------------ *)
(* Engine instances                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  pool_width : int;
  cache : Cache.t;
  store : Store.t option Atomic.t;
  sink_lock : Mutex.t;
  mutable sink : Trace.sink;
}

let create ?(workers = 0) ?(cache_capacity = 256) ?(sink = Trace.null) () =
  (* An explicit width is honoured even above the core count (the pool
     just oversubscribes); only [0] asks the runtime. *)
  let width = if workers <= 0 then Pool.recommended () else workers in
  {
    pool_width = max 1 width;
    cache = Cache.create (max 0 cache_capacity);
    store = Atomic.make None;
    sink_lock = Mutex.create ();
    sink;
  }

let default_engine = lazy (create ())
let default () = Lazy.force default_engine
let workers t = t.pool_width
let parallelism_available () = Pool.recommended () > 1
let set_sink t sink =
  (* [emit] reads the sink under [sink_lock]; writing it unguarded would
     race with in-flight emits from worker domains. *)
  Mutex.lock t.sink_lock;
  t.sink <- sink;
  Mutex.unlock t.sink_lock
let cache_stats t = Cache.stats t.cache
let set_store t store = Atomic.set t.store store

let hit_rate s =
  let served = s.hits + s.store_hits in
  let total = served + s.misses in
  if total = 0 then 0. else float_of_int served /. float_of_int total

(* Persisted entries are Marshal blobs (with [Closures] — outcomes carry
   the [sizing_fn] lookup closure).  Closure marshalling ties a blob to
   the exact producing binary: a blob written by another build fails to
   decode and is treated as a miss, which is precisely the invalidation
   the version stamp promises.  Store failures of any kind degrade to
   miss/no-persist — a broken cache directory must never fail a solve. *)
let encode_entry (v : Cache.cached) =
  try Some (Marshal.to_string v [ Marshal.Closures ]) with _ -> None

let decode_entry blob : Cache.cached option =
  try Some (Marshal.from_string blob 0) with _ -> None

(* Two-level lookup: memory first, then the persistent store; a store hit
   is promoted into the memory LRU so repeats are pure memory hits. *)
let lookup t key =
  if t.cache.Cache.capacity <= 0 then ("", None)
  else begin
    let key = Lazy.force key in
    match Cache.find t.cache key with
    | Some v -> (key, Some (v, Trace.Hit))
    | None -> (
      match Atomic.get t.store with
      | None -> (key, None)
      | Some (store : Store.t) -> (
        match (try store.Store.find key with _ -> None) with
        | None -> (key, None)
        | Some blob -> (
          match decode_entry blob with
          | None -> (key, None)
          | Some v ->
            Cache.store_promote t.cache key v;
            (key, Some (v, Trace.Disk)))))
  end

(* Memoize an [Ok] outcome in memory and, when a store is plugged in,
   persist it.  Error outcomes are never published anywhere — a transient
   failure must not replay as a hit, in memory or across restarts. *)
let publish t key v =
  if t.cache.Cache.capacity > 0 && key <> "" then begin
    Cache.add t.cache key v;
    match Atomic.get t.store with
    | None -> ()
    | Some (store : Store.t) -> (
      match encode_entry v with
      | Some blob -> ( try store.Store.save key blob with _ -> ())
      | None -> ())
  end

(* A sizing's key: the corner set, digested alongside its nominal
   technology. *)
let sizing_key ~options corners netlist spec =
  solve_key ~tag:"size" ~corners ~options (Corners.nominal corners).Corners.tech
    netlist spec

let emit t event =
  Mutex.lock t.sink_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.sink_lock)
    (fun () -> t.sink event)

let map t f xs = Pool.map ~workers:t.pool_width f xs

let caching t = t.cache.Cache.capacity > 0

(* The engine's verify fan-out for robust sizing: each respecification
   round's per-corner golden STA runs land on the worker pool. *)
let pool_mapper t =
  { Sizer.map = (fun f xs -> Pool.map ~workers:t.pool_width f xs) }

(* The one sizing path: a corner-set sizing, memoized under the set's
   digest, traced as one [Sizing] event labelled [label]. *)
let size_set t ~label ~mapper ~options corners netlist spec =
  let emit_sizing ~wall_s ~cache r =
    let iterations, gp_newton, sta_verifies =
      match (r, cache) with
      | Ok { Sizer.robust = o; _ }, (Trace.Miss | Trace.Bypass) ->
        (o.Sizer.iterations, o.Sizer.gp_newton_iterations, o.Sizer.sta_verifies)
      | Ok { Sizer.robust = o; _ }, (Trace.Hit | Trace.Disk) ->
        (* Served, not run: no golden STA ran for it. *)
        (o.Sizer.iterations, o.Sizer.gp_newton_iterations, 0)
      | Error _, _ -> (0, 0, 0)
    in
    emit t
      (Trace.Sizing
         {
           label;
           wall_s;
           iterations;
           gp_newton;
           sta_verifies;
           cache;
           ok = Result.is_ok r;
         })
  in
  match lookup t (lazy (sizing_key ~options corners netlist spec)) with
  | _, Some (Cache.Sized r, status) ->
    emit_sizing ~wall_s:0. ~cache:status r;
    r
  | key, _ ->
    let t0 = Unix.gettimeofday () in
    let r =
      (* Fault site: lets tests crash a worker domain mid-batch or force
         a failed result without touching the sizer. *)
      match Smart_util.Fault.fire "engine.worker" with
      | Some (Smart_util.Fault.Raise msg) -> raise (Err.Smart_error msg)
      | Some (Smart_util.Fault.Error_result msg) -> Error (Err.Gp_failure msg)
      | Some (Smart_util.Fault.Scale _) | None ->
        Sizer.size_robust_typed ~options ~mapper corners netlist spec
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let cache =
      if caching t then begin
        (* Only successful outcomes are memoized: a transient failure
           cached here would replay as a Hit on every retry. *)
        if Result.is_ok r then publish t key (Cache.Sized r);
        Trace.Miss
      end
      else Trace.Bypass
    in
    emit_sizing ~wall_s ~cache r;
    r

let size_robust t ?label ?(pooled_verify = true) ~options corners netlist spec =
  let base = match label with Some l -> l | None -> netlist.Netlist.name in
  let mapper =
    if pooled_verify && t.pool_width > 1 then pool_mapper t
    else Sizer.sequential_mapper
  in
  size_set t
    ~label:(Printf.sprintf "%s[%s]" base (Corners.to_string corners))
    ~mapper ~options corners netlist spec

let size t ?label ~options tech netlist spec =
  let label = match label with Some l -> l | None -> netlist.Netlist.name in
  Result.map
    (fun ro -> ro.Sizer.robust)
    (size_set t ~label ~mapper:Sizer.sequential_mapper ~options
       (Corners.of_tech tech) netlist spec)

let minimize_delay t ?label ~options tech netlist spec =
  let label = match label with Some l -> l | None -> netlist.Netlist.name in
  match lookup t (lazy (solve_key ~tag:"min-delay" ~options tech netlist spec)) with
  | _, Some (Cache.Min r, status) ->
    emit t (Trace.Min_delay { label; wall_s = 0.; cache = status });
    r
  | key, _ ->
    let t0 = Unix.gettimeofday () in
    let r = Sizer.minimize_delay_typed ~options tech netlist spec in
    let wall_s = Unix.gettimeofday () -. t0 in
    let cache =
      if caching t then begin
        if Result.is_ok r then publish t key (Cache.Min r);
        Trace.Miss
      end
      else Trace.Bypass
    in
    emit t (Trace.Min_delay { label; wall_s; cache });
    r

(* Size every named candidate across the pool.  A worker that raises
   degrades to a structured error in its slot instead of killing the
   whole batch. *)
let batch t size named =
  map t
    (fun (i, (name, nl)) ->
      ( name,
        try size name nl
        with Err.Smart_error msg ->
          Error (Err.Worker_crash { item = i; detail = msg }) ))
    (List.mapi (fun i nv -> (i, nv)) named)

let size_robust_all t ~options corners spec named =
  (* Candidates already saturate the pool; the per-candidate corner
     verifies stay sequential to avoid nested domain spawns. *)
  batch t
    (fun name nl ->
      size_robust t ~label:name ~pooled_verify:false ~options corners nl spec)
    named

let size_all t ~options tech spec named =
  batch t (fun name nl -> size t ~label:name ~options tech nl spec) named
