(** The long-lived advisory daemon.

    One {!t} owns a sizing engine, an optional persistent solve cache
    ({!Store}) and a pool of worker domains draining a bounded FIFO of
    wire requests.  Requests beyond the queue bound are answered
    immediately with a structured [Overloaded] error — the daemon applies
    backpressure instead of buffering without limit.  A worker that
    crashes on a request answers that request with [Worker_crash] and the
    daemon stays up.

    Front ends: {!serve_channels} speaks newline-delimited JSON over a
    channel pair (stdio), {!serve_socket} over a Unix-domain socket with
    one thread per connection.  Both share the same queue and workers. *)

type t

val create :
  ?workers:int ->
  ?max_queue:int ->
  ?cache_dir:string ->
  ?engine:Smart_engine.Engine.t ->
  unit ->
  t
(** [workers] (default 1): worker domains — parallelism is across
    requests; each solve runs on a single-domain engine.  [max_queue]
    (default 64): FIFO bound beyond which requests are refused with
    [Overloaded].  [cache_dir]: attach a persistent {!Store} there (the
    store is warmed up and stale entries evicted).  [engine] overrides
    the private single-domain engine. *)

val engine : t -> Smart_engine.Engine.t
val store : t -> Store.t option

val handle_line : t -> string -> string
(** Decode, dispatch and encode one request synchronously: every outcome
    — including malformed JSON, crashes and fault injection at the
    ["serve.worker"] site — is a response line, never an exception. *)

val submit : t -> reply:(string -> unit) -> string -> unit
(** Enqueue a request line; [reply] is called with the response line from
    a worker domain.  Called with an [Overloaded] error line immediately
    when the queue is full (or the daemon is shutting down). *)

val shutdown : t -> unit
(** Drain, stop and join the worker domains.  Idempotent. *)

val shutdown_requested : t -> bool
(** Whether a wire [shutdown] op was received (front-end loops poll
    this). *)

val stats : t -> Jsonx.t
(** Daemon counters: requests served / failed / refused, queue state and
    the engine's cache statistics. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Pump newline-delimited requests from the input channel until EOF or a
    [shutdown] op, then drain.  Responses are written (and flushed) one
    per line under an output lock. *)

val serve_socket : t -> string -> unit
(** Listen on a Unix-domain socket at the given path (replacing any stale
    socket file), serving each connection on its own thread.  Returns
    after a [shutdown] op; the socket file is removed on exit. *)
