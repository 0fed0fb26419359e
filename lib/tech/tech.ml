type t = {
  name : string;
  vdd : float;
  freq_ghz : float;
  rn : float;
  rp : float;
  cg : float;
  cd : float;
  w_min : float;
  w_max : float;
  slope_max : float;
  default_input_slope : float;
  pass_r_penalty : float;
  beta : float;
  self_cap_fraction : float;
  wire_cap_per_fanout : float;
  logic_delay_fit : float;
  slope_sensitivity : float;
  gate_fit : (string * float) list;
  rc_scale : float;
}

let default =
  {
    name = "smart180";
    vdd = 1.8;
    freq_ghz = 1.0;
    rn = 2.0;
    rp = 4.2;
    cg = 2.0;
    cd = 1.0;
    w_min = 0.4;
    w_max = 60.0;
    slope_max = 120.0;
    default_input_slope = 40.0;
    pass_r_penalty = 1.5;
    beta = 2.0;
    self_cap_fraction = 0.5;
    wire_cap_per_fanout = 0.8;
    logic_delay_fit = 0.69;
    slope_sensitivity = 0.06;
    gate_fit = [];
    rc_scale = 1.0;
  }

let scaled_suffix = "-scaled"

let scaled ?(rc_scale = 1.) ?name t =
  (* The uniform scale is split as sqrt across R and C so that every RC
     product (delay) moves by exactly [rc_scale] while R-only and C-only
     quantities drift as little as possible. *)
  let s = sqrt rc_scale in
  let name =
    match name with
    | Some n -> n
    | None ->
      (* Normalize: repeated anonymous scaling must not compound the
         suffix ("typ-scaled-scaled"); the cumulative factor lives in
         [rc_scale], not the name. *)
      let base =
        let sl = String.length scaled_suffix and nl = String.length t.name in
        if nl >= sl && String.sub t.name (nl - sl) sl = scaled_suffix then
          String.sub t.name 0 (nl - sl)
        else t.name
      in
      base ^ scaled_suffix
  in
  {
    t with
    name;
    rn = t.rn *. s;
    rp = t.rp *. s;
    cg = t.cg *. s;
    cd = t.cd *. s;
    rc_scale = t.rc_scale *. rc_scale;
  }

let gate_fit_of t name =
  match List.assoc_opt name t.gate_fit with Some f -> f | None -> 1.0

let calibrate t fits =
  let keys = List.map fst fits in
  { t with gate_fit = fits @ List.filter (fun (k, _) -> not (List.mem k keys)) t.gate_fit }

let res_n t w = t.rn /. w
let res_p t w = t.rp /. w
let cap_gate t w = t.cg *. w
let cap_drain t w = t.cd *. w

let fo4_delay t =
  (* Inverter of total width w driving four copies of itself: the width
     cancels, leaving an RC product characteristic of the process. *)
  let w = 1. +. t.beta in
  let r = (res_n t 1. +. res_p t t.beta) /. 2. in
  let c = cap_drain t (w *. t.self_cap_fraction) +. (4. *. cap_gate t w) in
  t.logic_delay_fit *. r *. c
