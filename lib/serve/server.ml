module Engine = Smart_engine.Engine
module Smart = Smart_core.Smart
module Err = Smart_util.Err
module Fault = Smart_util.Fault

type job = { line : string; reply : string -> unit }

type t = {
  engine : Engine.t;
  store : Store.t option;
  max_queue : int;
  queue : job Queue.t;
  m : Mutex.t;
  not_empty : Condition.t;
  idle : Condition.t;
  mutable in_flight : int;
  mutable running : bool;
  mutable domains : unit Domain.t list;
  stop : bool Atomic.t;  (** a wire [shutdown] op was received *)
  listen_fd : Unix.file_descr option Atomic.t;
  served : int Atomic.t;
  failed : int Atomic.t;
  refused : int Atomic.t;
}

let engine t = t.engine
let store t = t.store
let shutdown_requested t = Atomic.get t.stop

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let stats t =
  let cs = Engine.cache_stats t.engine in
  let num i = Jsonx.Num (float_of_int i) in
  Jsonx.Obj
    [
      ("served", num (Atomic.get t.served));
      ("failed", num (Atomic.get t.failed));
      ("refused", num (Atomic.get t.refused));
      ("queued", num (Mutex.protect t.m (fun () -> Queue.length t.queue)));
      ("workers", num (List.length t.domains));
      ( "cache",
        Jsonx.Obj
          [
            ("memory_hits", num cs.Engine.hits);
            ("disk_hits", num cs.Engine.store_hits);
            ("misses", num cs.Engine.misses);
            ("entries", num cs.Engine.entries);
            ("hit_rate", Jsonx.Num (Engine.hit_rate cs));
          ] );
      ( "store_dir",
        match t.store with
        | None -> Jsonx.Null
        | Some s -> Jsonx.Str (Store.dir s) );
    ]

(* Classify how an advisory was served from the cache-counter movement
   around the solve.  Exact for sequential traffic; under concurrent
   load a neighbour's solve can be attributed, which the interface
   documents as approximate. *)
let cache_label ~(before : Engine.cache_stats) ~(after : Engine.cache_stats) =
  if after.Engine.store_hits > before.Engine.store_hits then "disk"
  else if after.Engine.hits > before.Engine.hits then "memory"
  else "solved"

let advise t (req : Wire.Request.t) =
  match Fault.fire "serve.worker" with
  | Some (Fault.Error_result msg) ->
    Wire.Response.error ?id:req.Wire.Request.id
      (Err.Worker_crash { item = 0; detail = msg })
  | Some (Fault.Raise msg) -> raise (Err.Smart_error msg)
  | Some (Fault.Scale _) | None -> (
    match Wire.Request.elaborate req with
    | Error e -> Wire.Response.error ?id:req.Wire.Request.id e
    | Ok library_req -> (
      let library_req = Smart.Request.with_engine t.engine library_req in
      let t0 = Unix.gettimeofday () in
      let before = Engine.cache_stats t.engine in
      match Smart.run library_req with
      | Error e -> Wire.Response.error ?id:req.Wire.Request.id e
      | Ok advice ->
        let after = Engine.cache_stats t.engine in
        let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
        (* Lint sidecar: every unwaived lint finding of the menu.  Lines,
           not structure — the wire field is for humans and logs;
           structured data stays in the advice payload. *)
        let diagnostics =
          List.concat_map
            (fun (rep : Smart.Lint.report) ->
              List.filter_map
                (fun (d : Smart.Lint_report.diag) ->
                  if d.Smart.Lint_report.waived then None
                  else
                    Some
                      (Printf.sprintf "%s: %s" rep.Smart.Lint.netlist
                         (Smart.Lint_report.to_text d)))
                rep.Smart.Lint.diags)
            advice.Smart.lints
        in
        Wire.Response.ok ?id:req.Wire.Request.id
          ~cache:(cache_label ~before ~after) ~wall_ms ~diagnostics
          (Wire.Advice.of_advice advice)))

let dispatch t (req : Wire.Request.t) =
  match req.Wire.Request.op with
  | Wire.Request.Ping ->
    {
      Wire.Response.v = Wire.version;
      id = req.Wire.Request.id;
      cache = None;
      wall_ms = None;
      diagnostics = [];
      payload = Wire.Response.Pong;
    }
  | Wire.Request.Stats ->
    {
      Wire.Response.v = Wire.version;
      id = req.Wire.Request.id;
      cache = None;
      wall_ms = None;
      diagnostics = [];
      payload = Wire.Response.Stats (stats t);
    }
  | Wire.Request.Shutdown ->
    Atomic.set t.stop true;
    (* Unblock a socket accept loop so the front end can wind down.  A
       [close] would not wake a thread already blocked in [accept];
       [shutdown] does (EINVAL).  The loop's epilogue owns the close. *)
    (match Atomic.get t.listen_fd with
    | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
    | None -> ());
    {
      Wire.Response.v = Wire.version;
      id = req.Wire.Request.id;
      cache = None;
      wall_ms = None;
      diagnostics = [];
      payload = Wire.Response.Pong;
    }
  | Wire.Request.Advise -> advise t req

let handle_line t line =
  let response =
    match Wire.Request.of_line line with
    | Error e -> Wire.Response.error e
    | Ok req -> (
      try dispatch t req
      with e ->
        Wire.Response.error ?id:req.Wire.Request.id
          (Err.Worker_crash { item = 0; detail = Printexc.to_string e }))
  in
  (match response.Wire.Response.payload with
  | Wire.Response.Failed _ -> Atomic.incr t.failed
  | _ -> Atomic.incr t.served);
  Wire.Response.to_line response

(* ------------------------------------------------------------------ *)
(* The worker pool                                                     *)
(* ------------------------------------------------------------------ *)

let worker_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && t.running do
      Condition.wait t.not_empty t.m
    done;
    if Queue.is_empty t.queue then begin
      (* Stopped and drained. *)
      Mutex.unlock t.m;
      Condition.broadcast t.idle
    end
    else begin
      let job = Queue.pop t.queue in
      t.in_flight <- t.in_flight + 1;
      Mutex.unlock t.m;
      let response = handle_line t job.line in
      (try job.reply response with _ -> ());
      Mutex.lock t.m;
      t.in_flight <- t.in_flight - 1;
      if Queue.is_empty t.queue && t.in_flight = 0 then
        Condition.broadcast t.idle;
      Mutex.unlock t.m;
      loop ()
    end
  in
  loop ()

let create ?(workers = 1) ?(max_queue = 64) ?cache_dir ?engine () =
  let engine =
    (* Solves run one per worker domain; intra-solve parallelism would
       oversubscribe the machine, so the private engine is single-domain
       and throughput comes from concurrent requests. *)
    match engine with Some e -> e | None -> Engine.create ~workers:1 ()
  in
  let store =
    match cache_dir with
    | None -> None
    | Some dir ->
      let s = Store.create ~dir () in
      ignore (Store.warm_up s);
      Engine.set_store engine (Some (Store.engine_store s));
      Some s
  in
  let t =
    {
      engine;
      store;
      max_queue = max 1 max_queue;
      queue = Queue.create ();
      m = Mutex.create ();
      not_empty = Condition.create ();
      idle = Condition.create ();
      in_flight = 0;
      running = true;
      domains = [];
      stop = Atomic.make false;
      listen_fd = Atomic.make None;
      served = Atomic.make 0;
      failed = Atomic.make 0;
      refused = Atomic.make 0;
    }
  in
  t.domains <-
    List.init (max 1 workers) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t ~reply line =
  let refusal =
    Mutex.protect t.m (fun () ->
        if not t.running then
          Some (Err.Invalid_request "server is shutting down")
        else if Queue.length t.queue >= t.max_queue then
          Some
            (Err.Overloaded
               { queued = Queue.length t.queue; limit = t.max_queue })
        else begin
          Queue.push { line; reply } t.queue;
          Condition.signal t.not_empty;
          None
        end)
  in
  match refusal with
  | None -> ()
  | Some e ->
    Atomic.incr t.refused;
    (try reply (Wire.Response.to_line (Wire.Response.error e)) with _ -> ())

let drain t =
  Mutex.lock t.m;
  while not (Queue.is_empty t.queue && t.in_flight = 0) do
    Condition.wait t.idle t.m
  done;
  Mutex.unlock t.m

let shutdown t =
  drain t;
  let domains =
    Mutex.protect t.m (fun () ->
        t.running <- false;
        Condition.broadcast t.not_empty;
        let ds = t.domains in
        t.domains <- [];
        ds)
  in
  List.iter Domain.join domains

(* ------------------------------------------------------------------ *)
(* Front ends                                                          *)
(* ------------------------------------------------------------------ *)

let serve_channels t ic oc =
  let out = Mutex.create () in
  let reply line =
    Mutex.protect out (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
  in
  let rec pump () =
    if not (shutdown_requested t) then
      match input_line ic with
      | line ->
        if String.trim line <> "" then submit t ~reply line;
        pump ()
      | exception End_of_file -> ()
  in
  pump ();
  drain t

let serve_socket t path =
  (try Unix.unlink path with _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  Atomic.set t.listen_fd (Some fd);
  let rec accept_loop () =
    if not (shutdown_requested t) then
      match Unix.accept fd with
      | client, _ ->
        let _ : Thread.t =
          Thread.create
            (fun () ->
              let ic = Unix.in_channel_of_descr client in
              let oc = Unix.out_channel_of_descr client in
              (try serve_channels t ic oc with _ -> ());
              try Unix.close client with _ -> ())
            ()
        in
        accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* The shutdown op closed the listening socket under us. *)
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ();
  (match Atomic.exchange t.listen_fd None with
  | Some fd -> ( try Unix.close fd with _ -> ())
  | None -> ());
  (try Unix.unlink path with _ -> ());
  drain t
