module Err = Smart_util.Err
module Tech = Smart_tech.Tech
module Constraints = Smart_constraints.Constraints
module Problem = Smart_gp.Problem

type corner = { corner_name : string; rc_scale : float; tech : Tech.t }

(* Invariants (enforced by [of_corners]): non-empty, distinct names, no
   '@' in names (reserved by the merged-constraint tagging). *)
type set = corner list

let corner ?(base = Tech.default) ~name ~rc_scale () =
  if not (rc_scale > 0.) then
    Err.fail "Corners: rc_scale must be positive (%s: %g)" name rc_scale;
  { corner_name = name; rc_scale; tech = Tech.scaled ~rc_scale ~name base }

let of_corners cs =
  if cs = [] then Err.fail "Corners: empty corner set";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if String.contains c.corner_name '@' || String.contains c.corner_name ','
      then Err.fail "Corners: invalid corner name %s" c.corner_name;
      if Hashtbl.mem seen c.corner_name then
        Err.fail "Corners: duplicate corner %s" c.corner_name;
      Hashtbl.replace seen c.corner_name ())
    cs;
  cs

(* The canonical three-corner set.  0.6 / 1.0 / 1.4 matches the +-40%
   RC-product excursion the robustness tests have always exercised. *)
let builtin_scales = [ ("fast", 0.6); ("typ", 1.0); ("slow", 1.4) ]

let default_set ?(base = Tech.default) () =
  of_corners
    (List.map
       (fun (name, rc_scale) -> corner ~base ~name ~rc_scale ())
       builtin_scales)

let typ_only ?(base = Tech.default) () =
  of_corners [ corner ~base ~name:"typ" ~rc_scale:1.0 () ]

(* One corner timing against [tech] as given (no rescale), named after
   it.  Its program is never tagged, so the name needs no validation. *)
let of_tech (tech : Tech.t) =
  [ { corner_name = tech.Tech.name; rc_scale = 1.0; tech } ]

let of_string ?(base = Tech.default) s =
  let tokens =
    List.filter (fun t -> t <> "") (String.split_on_char ',' (String.trim s))
  in
  if tokens = [] then Error "empty corner list"
  else
    let parse tok =
      match List.assoc_opt tok builtin_scales with
      | Some sc -> Ok (corner ~base ~name:tok ~rc_scale:sc ())
      | None -> (
        match String.index_opt tok ':' with
        | None ->
          Error
            (Printf.sprintf
               "unknown corner %s (builtins: fast, typ, slow; custom: \
                name:rc_scale)"
               tok)
        | Some i -> (
          let name = String.sub tok 0 i in
          let scale = String.sub tok (i + 1) (String.length tok - i - 1) in
          match float_of_string_opt scale with
          | Some sc when sc > 0. -> Ok (corner ~base ~name ~rc_scale:sc ())
          | _ -> Error (Printf.sprintf "bad rc_scale in corner %s" tok)))
    in
    let rec go acc = function
      | [] -> (
        try Ok (of_corners (List.rev acc))
        with Err.Smart_error msg -> Error msg)
      | tok :: rest -> (
        match parse tok with
        | Ok c -> go (c :: acc) rest
        | Error msg -> Error msg)
    in
    go [] tokens

let to_list (s : set) = s
let names s = List.map (fun c -> c.corner_name) s
let to_string s = String.concat "," (names s)

let nominal s =
  (* The corner closest to the unscaled process — the reference for
     robust-vs-typ overheads. *)
  match s with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun best c ->
        if Float.abs (c.rc_scale -. 1.) < Float.abs (best.rc_scale -. 1.) then c
        else best)
      first rest

(* ------------------------------------------------------------------ *)
(* Joint robust constraint generation                                  *)
(* ------------------------------------------------------------------ *)

let tag_of_index i = Printf.sprintf "c%d" i

let index_of_tag tag =
  let l = String.length tag in
  if l >= 2 && tag.[0] = 'c' then int_of_string_opt (String.sub tag 1 (l - 1))
  else None

type merged = {
  generated : Constraints.result;
  per_corner : (corner * Constraints.result) list;
}

let merge_generated per_corner =
  match per_corner with
  | [] -> Err.fail "Corners: merge_generated on empty list"
  | [ (_, generated) ] ->
    (* One corner: its own program, untagged — exactly what a
       single-technology sizing compiles. *)
    { generated; per_corner }
  | (_, (first : Constraints.result)) :: _ ->
    (* The objective (area / weighted width) is a pure function of the
       netlist's size labels — identical across corners; take any copy. *)
    let problem =
      Problem.merge ~objective:first.Constraints.problem.Problem.objective
        (List.mapi
           (fun i (_, (r : Constraints.result)) ->
             (tag_of_index i, r.Constraints.problem))
           per_corner)
    in
    let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 per_corner in
    let generated =
      {
        Constraints.problem;
        area = first.Constraints.area;
        path_count = first.Constraints.path_count;
        timing_constraints = sum (fun r -> r.Constraints.timing_constraints);
        slope_constraints = sum (fun r -> r.Constraints.slope_constraints);
        precharge_constraints = sum (fun r -> r.Constraints.precharge_constraints);
        stage_constraints = sum (fun r -> r.Constraints.stage_constraints);
        dominated_pruned = sum (fun r -> r.Constraints.dominated_pruned);
      }
    in
    { generated; per_corner }

let generate_robust (s : set) netlist spec =
  merge_generated
    (List.map (fun c -> (c, Constraints.generate c.tech netlist spec)) s)

let rescale_factors ~timing ~precharge name =
  if Array.length timing = 1 then
    (* A one-corner program is untagged ([merge_generated]). *)
    Constraints.rescale_factors ~timing:timing.(0) ~precharge:precharge.(0) name
  else
    match Problem.split_scenario name with
    | None -> 1.
    | Some (tag, rest) -> (
      match index_of_tag tag with
      | Some i when i >= 0 && i < Array.length timing ->
        Constraints.rescale_factors ~timing:timing.(i) ~precharge:precharge.(i)
          rest
      | _ -> 1.)
