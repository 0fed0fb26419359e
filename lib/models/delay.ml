module Err = Smart_util.Err
module Cell = Smart_circuit.Cell
module Tech = Smart_tech.Tech
module Posy = Smart_posy.Posy
module Monomial = Smart_posy.Monomial

let intrinsic = 2.4
let slope_gain = 2.0
let slope_feedthrough = 0.2

let resistance tech segs =
  Posy.of_monomials
    (List.map
       (fun { Drive.seg_label; seg_mult; seg_is_p } ->
         let r = if seg_is_p then tech.Tech.rp else tech.Tech.rn in
         Monomial.make (r *. seg_mult) [ (seg_label, -1.) ])
       segs)

let cap_of_widths coeff widths =
  Posy.of_monomials
    (List.map (fun (l, m) -> Monomial.make (coeff *. m) [ (l, 1.) ]) widths)

let self_cap tech cell =
  cap_of_widths
    (tech.Tech.cd *. tech.Tech.self_cap_fraction)
    (Drive.self_cap_widths cell)

(* One RC stage: fit * R * (load + self). *)
let rc tech r c = Posy.scale tech.Tech.logic_delay_fit (Posy.mul r c)

let domino_node_cap tech cell =
  let { Drive.gate_widths; diff_widths } = Drive.domino_node_cap_widths cell in
  Posy.add
    (cap_of_widths tech.Tech.cg gate_widths)
    (cap_of_widths tech.Tech.cd diff_widths)

(* Local fixed-ratio select/enable inverter of a pass gate or tri-state:
   a small stage whose R and C are monomials of the cell's labels. *)
let local_inverter_delay tech cell =
  match cell with
  | Cell.Passgate { style = Cell.Cmos_tgate; label } ->
    let r =
      Posy.of_monomial
        (Monomial.make (tech.Tech.rn /. Cell.passgate_inv_n_ratio) [ (label, -1.) ])
    in
    (* The inverter drives the complementary pass device's gate. *)
    let c = Posy.of_monomial (Monomial.make tech.Tech.cg [ (label, 1.) ]) in
    Some (rc tech r c)
  | Cell.Tristate { p_label; n_label } ->
    let r =
      Posy.of_monomial
        (Monomial.make (tech.Tech.rn /. Cell.tristate_inv_n_ratio) [ (n_label, -1.) ])
    in
    let c = Posy.of_monomial (Monomial.make tech.Tech.cg [ (p_label, 1.) ]) in
    Some (rc tech r c)
  | Cell.Passgate _ | Cell.Static _ | Cell.Domino _ -> None

let stage_core tech cell ~pin ~out_sense ~load =
  let with_self chain =
    rc tech (resistance tech chain) (Posy.add load (self_cap tech cell))
  in
  match cell with
  | Cell.Static _ -> with_self (Drive.static_chain cell ~pin ~out_sense)
  | Cell.Passgate _ ->
    let base = with_self (Drive.pass_chain tech cell ~out_sense) in
    if pin = "s" then
      match local_inverter_delay tech cell with
      | Some d -> Posy.add d base
      | None -> base
    else base
  | Cell.Tristate _ ->
    let base = with_self (Drive.tristate_chain cell ~out_sense) in
    if pin = "en" then
      match local_inverter_delay tech cell with
      | Some d -> Posy.add d base
      | None -> base
    else base
  | Cell.Domino _ ->
    let node_c = domino_node_cap tech cell in
    let first =
      if pin = "clk" then rc tech (resistance tech (Drive.domino_precharge_chain cell)) node_c
      else rc tech (resistance tech (Drive.domino_node_chain cell ~pin)) node_c
    in
    let inv =
      rc tech
        (resistance tech (Drive.domino_inverter_chain cell ~out_sense))
        (Posy.add load (self_cap tech cell))
    in
    (* Second-stage slope penalty: the inverter sees the node's slope,
       itself proportional to the first-stage RC. *)
    let node_slope_term =
      Posy.scale (tech.Tech.slope_sensitivity *. slope_gain) first
    in
    Posy.sum [ first; inv; node_slope_term ]

let stage_delay tech cell ~pin ~out_sense ~load ~in_slope =
  if not (List.mem pin (Cell.input_pins cell)) && pin <> "clk" then
    Err.fail "Delay.stage_delay: cell %s has no pin %s" (Cell.gate_name cell) pin;
  let fit = Tech.gate_fit_of tech (Cell.gate_name cell) in
  Posy.sum
    [
      Posy.const intrinsic;
      Posy.scale fit (stage_core tech cell ~pin ~out_sense ~load);
      Posy.scale tech.Tech.slope_sensitivity in_slope;
    ]

let stage_out_slope tech cell ~pin ~out_sense ~load ~in_slope =
  let last_stage =
    match cell with
    | Cell.Domino _ ->
      rc tech
        (resistance tech (Drive.domino_inverter_chain cell ~out_sense))
        (Posy.add load (self_cap tech cell))
    | Cell.Static _ | Cell.Passgate _ | Cell.Tristate _ ->
      stage_core tech cell ~pin ~out_sense ~load
  in
  Posy.add
    (Posy.scale slope_gain last_stage)
    (Posy.scale slope_feedthrough in_slope)
