(** Technology parameters.

    SMART's paper evaluates on a proprietary Intel process; this synthetic
    180 nm-class technology plays that role.  Only *relative* results
    (normalised widths, delays, powers) are reported by the paper, so any
    self-consistent RC parameter set reproduces them.

    Unit system: widths in µm, resistance in kΩ, capacitance in fF,
    time in ps (kΩ · fF = ps), energy in fJ, voltage in V. *)

type t = {
  name : string;
  vdd : float;  (** supply, V *)
  freq_ghz : float;  (** nominal clock frequency for power estimates *)
  rn : float;  (** NMOS effective resistance × width, kΩ·µm *)
  rp : float;  (** PMOS effective resistance × width, kΩ·µm *)
  cg : float;  (** gate capacitance per width, fF/µm *)
  cd : float;  (** drain (diffusion) capacitance per width, fF/µm *)
  w_min : float;  (** minimum drawn transistor width, µm *)
  w_max : float;  (** maximum single-finger width, µm *)
  slope_max : float;  (** reliability cap on any internal slope, ps *)
  default_input_slope : float;  (** assumed slope at primary inputs, ps *)
  pass_r_penalty : float;
      (** extra resistance factor of an NMOS pass device passing a weak
          high (threshold drop) *)
  beta : float;  (** default PMOS/NMOS width ratio for balanced skew *)
  self_cap_fraction : float;
      (** fraction of a cell's total device width whose diffusion loads
          its own output node *)
  wire_cap_per_fanout : float;  (** fixed wire capacitance per fanout, fF *)
  logic_delay_fit : float;  (** Elmore-to-50% fitting factor (ln 2) *)
  slope_sensitivity : float;
      (** contribution of input slope to stage delay (dimensionless) *)
  gate_fit : (string * float) list;
      (** per-gate-class delay-model calibration multipliers, keyed by
          [Cell.gate_name] — the "model building for sizing" step of the
          paper's Figure 3 flow for bringing a new macro into SMART.
          Unlisted gates use 1.0. *)
  rc_scale : float;
      (** cumulative RC-product factor applied by {!scaled} relative to
          the process this record was derived from (1.0 for {!default}).
          Corner caches digest this field, so two technologies reached by
          different scaling histories never alias. *)
}

val default : t
(** The synthetic 180 nm-class process used throughout the benches. *)

val scaled : ?rc_scale:float -> ?name:string -> t -> t
(** Uniformly scale the RC products — the process-corner model.  The
    factor is split as [sqrt rc_scale] across the resistances ([rn],
    [rp]) and the capacitances ([cg], [cd]), so every RC product — hence
    every delay — scales by exactly [rc_scale] while R-only and C-only
    quantities move by only its square root.  The cumulative factor is
    recorded in {!type-t.rc_scale} ([t.rc_scale *. rc_scale]).  Without
    [name] the result is named [<base>-scaled], where [<base>] strips any
    previous ["-scaled"] suffix — repeated anonymous scaling never
    compounds the name. *)

val res_n : t -> float -> float
(** [res_n t w] is the NMOS on-resistance (kΩ) at width [w] µm. *)

val res_p : t -> float -> float
val cap_gate : t -> float -> float
(** Gate capacitance (fF) of a device of the given width. *)

val cap_drain : t -> float -> float

val gate_fit_of : t -> string -> float
(** Calibration multiplier for a gate class (1.0 when unlisted). *)

val calibrate : t -> (string * float) list -> t
(** [calibrate t fits] overlays per-gate-class multipliers (replacing
    earlier entries for the same class). *)

val fo4_delay : t -> float
(** Delay of a fanout-of-4 inverter in this technology (ps) — the
    customary unit for quoting datapath stage budgets. *)
