(** The versioned JSON wire protocol of the serve daemon.

    One request per line, one response per line, both JSON objects
    carrying a ["v"] protocol-version field.  Decoders are {b tolerant of
    unknown fields} (a newer client may send fields an older daemon does
    not know; they are ignored) and {b strict about known fields} (a
    malformed value is a structured {!Smart_core.Smart.Error.t}
    [Bad_request] naming the field — never an exception).

    The parts of {!Smart_core.Smart.Request.t} that are not naively
    serializable have explicit wire encodings:
    {ul
    {- the technology travels as a named base plus overrides
       ([{"base":"default","rc_scale":1.2,"name":"hot"}]) rather than a
       parameter dump;}
    {- corner sets travel in {!Smart_corners.Corners.of_string} syntax
       (["fast,typ,slow"] or ["typ,hot:1.6"]);}
    {- metric / lint levels are tagged strings, sizer options a partial
       record overlaid on {!Smart_sizer.Sizer.default_options}.}}

    {!Request.elaborate} turns a decoded wire request into a full
    {!Smart_core.Smart.Request.t}; {!Advice.of_advice} projects a
    {!Smart_core.Smart.advice} onto its wire summary. *)

module Smart = Smart_core.Smart

val version : int
(** Current protocol version (1).  Requests carrying a larger ["v"] are
    rejected with [Bad_request]; absent ["v"] means 1. *)

(** {1 Requests} *)

module Request : sig
  type op = Advise | Ping | Stats | Shutdown

  type tech_spec = {
    base : string;  (** named base technology; only ["default"] today *)
    rc_scale : float option;  (** RC-product excursion of the base *)
    tech_name : string option;  (** name for the scaled technology *)
  }

  type options_spec = {
    max_iterations : int option;
    tolerance : float option;
    damping : float option;
    gp_warm_start : bool option;
    certify : bool option;
  }
  (** Partial sizer options; unset fields keep
      {!Smart_sizer.Sizer.default_options}. *)

  type t = {
    v : int;
    id : string option;  (** echoed on the response, for correlation *)
    op : op;
    kind : string;  (** macro kind; required when [op] is [Advise] *)
    bits : int;
    ext_load : float option;
    strongly_mutexed_selects : bool option;
    allow_dynamic : bool option;
    delay : float option;
    metric : string option;  (** ["area"] / ["power"] / ["clock"] *)
    lint : string option;  (** ["off"] / ["warn"] / ["strict"] *)
    corners : string option;  (** {!Smart_corners.Corners.of_string} syntax *)
    tech : tech_spec option;
    options : options_spec option;
  }

  val make :
    ?id:string ->
    ?op:op ->
    ?ext_load:float ->
    ?strongly_mutexed_selects:bool ->
    ?allow_dynamic:bool ->
    ?delay:float ->
    ?metric:string ->
    ?lint:string ->
    ?corners:string ->
    ?tech:tech_spec ->
    ?options:options_spec ->
    kind:string ->
    bits:int ->
    unit ->
    t
  (** A current-version wire request; optional fields default to absent
      (the daemon's defaults apply). *)

  val encode : t -> Jsonx.t
  val decode : Jsonx.t -> (t, Smart.Error.t) result
  (** Unknown fields are ignored; known fields of the wrong shape, an
      unsupported ["v"] or an unknown ["op"] are [Bad_request]. *)

  val of_line : string -> (t, Smart.Error.t) result
  (** Parse + decode one request line ([Bad_request] on malformed JSON —
      never an exception). *)

  val to_line : t -> string

  val elaborate : t -> (Smart.Request.t, Smart.Error.t) result
  (** Validate and translate to the library request: metric/lint tags,
      corner-set syntax, technology base + overrides and option overlays
      are checked here, each failure a [Bad_request] naming the field.
      The engine is left unset (the daemon attaches its own). *)
end

(** {1 Advice} *)

module Advice : sig
  type corner = {
    corner : string;
    delay_ps : float;
    slack_ps : float;
  }

  type candidate = {
    entry : string;
    delay_ps : float;
    width_um : float;
    clock_um : float;
    power_uw : float;
    score : float;
    iterations : int;
    binding_corner : string option;
    corners : corner list;
    sizing : (string * float) list;  (** width per label, µm *)
  }

  type t = {
    v : int;
    winner : string;
    metric : string;
    target_ps : float;
    ranked : candidate list;  (** best first *)
    rejected : (string * string) list;  (** entry, reason *)
  }

  val of_advice : Smart.advice -> t
  val encode : t -> Jsonx.t
  val decode : Jsonx.t -> (t, Smart.Error.t) result
end

(** {1 Errors} *)

module Error : sig
  val encode : Smart.Error.t -> Jsonx.t
  (** The same [{"code","message","data"}] object
      {!Smart_core.Smart.Error.to_json} prints. *)

  val decode : Jsonx.t -> (Smart.Error.t, Smart.Error.t) result
  (** Rebuild the structured error from its code + data ([Bad_request] on
      unknown codes or missing payload fields). *)
end

(** {1 Response envelope} *)

module Response : sig
  type payload =
    | Advice of Advice.t
    | Failed of Smart.Error.t
    | Pong
    | Stats of Jsonx.t  (** daemon counters, opaque to the codec *)

  type t = {
    v : int;
    id : string option;  (** the request's id, echoed *)
    cache : string option;
        (** how the advisory was served: ["memory"] / ["disk"] /
            ["solved"] (approximate under concurrent load) *)
    wall_ms : float option;
    diagnostics : string list;
        (** human-readable lint findings, one line each, attached to
            the response.  Omitted from the wire when empty, and an
            absent field decodes as [[]] — a v1 peer on either side of
            the field's introduction interoperates unchanged. *)
    payload : payload;
  }

  val ok :
    ?id:string ->
    ?cache:string ->
    ?wall_ms:float ->
    ?diagnostics:string list ->
    Advice.t ->
    t

  val error : ?id:string -> ?diagnostics:string list -> Smart.Error.t -> t
  val encode : t -> Jsonx.t
  val decode : Jsonx.t -> (t, Smart.Error.t) result
  val to_line : t -> string
  val of_line : string -> (t, Smart.Error.t) result
end
