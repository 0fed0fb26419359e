(* Generation freeze: canonical digests of generated geometric programs,
   compared against a committed snapshot (data/generate_freeze.txt).

   Cases:
   - every candidate of the advice freeze's 12-template advise menu at
     each band's low, middle and high delay;
   - the 64-bit adder at 600 ps, at the typical tech and at
     [Tech.scaled ~rc_scale:1.4];
   - the 14x16-column, tail-6 datapath at 2150 ps.

   For each case the area program ([Constraints.generate]) is pinned
   whole: constraint names in order, every term's exponent list and
   coefficient bits ([Int64.bits_of_float]), the bounds and the
   objective.  The min-delay program ([Constraints.generate_min_delay])
   is pinned on names, exponents (terms sorted by exponent list), bounds,
   objective and the coefficients of its slope and precharge
   constraints; its timing and stage coefficients must equal the area
   program's times the target within 1e-12 relative.

   Programs are read through [Posy.monomials], [Monomial.coeff] and
   [Monomial.exponents] only, so the digests do not depend on how a
   monomial is laid out in memory.  Regenerate the snapshot only for an
   intended change to the generated programs:
     dune exec test/test_generate.exe -- --write test/data/generate_freeze.txt *)

module Smart = Smart_core.Smart
module Tech = Smart.Tech
module C = Smart.Constraints
module P = Smart.Gp_problem
module Posy = Smart.Posy
module Monomial = Smart.Monomial

let snapshot_file = "data/generate_freeze.txt"
let tech = Tech.default

(* (kind, bits, band low, band high) — the advise menu of
   test_freeze.ml and perf/workloads.ml. *)
let menu =
  [
    ("mux", 4, 31., 43.);
    ("mux", 8, 31., 43.);
    ("decoder", 4, 69., 96.);
    ("comparator", 16, 103., 143.);
    ("shifter", 8, 151., 210.);
    ("encoder", 4, 77., 107.);
    ("register-file", 8, 99., 138.);
    ("zero-detect", 16, 71., 99.);
    ("incrementor", 8, 214., 297.);
    ("incrementor", 16, 295., 410.);
    ("adder", 8, 222., 309.);
    ("adder", 16, 265., 368.);
  ]

(* A case: its id, and a thunk giving the tech, netlist and target it
   generates at. *)
let menu_cases () =
  let db = Smart.Database.builtins () in
  List.concat_map
    (fun (kind, bits, lo, hi) ->
      let built = Smart.Database.build_all db ~kind (Smart.Database.requirements bits) in
      List.concat_map
        (fun d ->
          List.map
            (fun ((e : Smart.Database.entry), (info : Smart.Macro.info)) ->
              ( Printf.sprintf "menu/%s%d/%s@%g" kind bits e.Smart.Database.entry_name d,
                fun () -> (tech, info.Smart.Macro.netlist, d) ))
            built)
        [ lo; 0.5 *. (lo +. hi); hi ])
    menu

let big_cases () =
  let adder64 () = (Smart.Cla_adder.generate ~bits:64 ()).Smart.Macro.netlist in
  [
    ("adder64/typ@600", fun () -> (tech, adder64 (), 600.));
    ( "adder64/slow@600",
      fun () -> (Tech.scaled ~rc_scale:1.4 ~name:"slow" tech, adder64 (), 600.) );
    ( "datapath14x16t6@2150",
      fun () ->
        ( tech,
          (Smart.Datapath.generate ~columns:14 ~stages:16 ~tail:6 ()).Smart.Macro.netlist,
          2150. ) );
  ]

let cases () = menu_cases () @ big_cases ()

let bits x = Int64.bits_of_float x

let add_term ~coeff b m =
  Buffer.add_char b '[';
  List.iter (fun (v, e) -> Printf.bprintf b "%s^%Lx " v (bits e)) (Monomial.exponents m);
  if coeff then Printf.bprintf b "*%Lx" (bits (Monomial.coeff m));
  Buffer.add_char b ']'

let add_posy ~coeff ~sorted b p =
  let terms = Posy.monomials p in
  let terms =
    if sorted then
      List.sort (fun m n -> compare (Monomial.exponents m) (Monomial.exponents n)) terms
    else terms
  in
  List.iter (add_term ~coeff b) terms;
  Buffer.add_char b '\n'

let add_bounds b (p : P.t) =
  List.iter
    (fun (v, lo, hi) -> Printf.bprintf b "bound %s %Lx %Lx\n" v (bits lo) (bits hi))
    p.P.bounds

let add_objective b (p : P.t) =
  Buffer.add_string b "objective ";
  add_posy ~coeff:true ~sorted:false b p.P.objective

(* The area program whole, in its own term order. *)
let area_digest (p : P.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, q) ->
      Printf.bprintf b "%s " name;
      add_posy ~coeff:true ~sorted:false b q)
    p.P.inequalities;
  add_bounds b p;
  add_objective b p;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The min-delay program without its timing and stage coefficients,
   which [check_min_delay] ties to the area program's instead. *)
let min_delay_digest (p : P.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, q) ->
      Printf.bprintf b "%s " name;
      let coeff = C.budget_class name <> C.Timing in
      add_posy ~coeff ~sorted:true b q)
    p.P.inequalities;
  add_bounds b p;
  add_objective b p;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every min-delay timing and stage term is the area program's term at
   the same exponents (less [delay$^-1]) times the target. *)
let check_min_delay id ~target (area : P.t) (md : P.t) =
  Alcotest.(check (list string))
    (id ^ " min-delay constraint names")
    (List.map fst area.P.inequalities)
    (List.map fst md.P.inequalities);
  List.iter2
    (fun (name, a) (_, m) ->
      if C.budget_class name = C.Timing then begin
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun t -> Hashtbl.replace tbl (Monomial.exponents t) (Monomial.coeff t))
          (Posy.monomials a);
        if Posy.num_terms a <> Posy.num_terms m then
          Alcotest.failf "%s/%s: %d area terms, %d min-delay terms" id name
            (Posy.num_terms a) (Posy.num_terms m);
        List.iter
          (fun t ->
            let exps = Monomial.exponents t in
            if List.assoc_opt C.delay_variable exps <> Some (-1.) then
              Alcotest.failf "%s/%s: a term lacks %s^-1" id name C.delay_variable;
            let rest = List.filter (fun (v, _) -> v <> C.delay_variable) exps in
            match Hashtbl.find_opt tbl rest with
            | None -> Alcotest.failf "%s/%s: min-delay term not in the area program" id name
            | Some c ->
              let want = c *. target and got = Monomial.coeff t in
              if Float.abs (got -. want) > 1e-12 *. Float.abs want then
                Alcotest.failf "%s/%s: coefficient %.17g, area x target %.17g" id name
                  got want)
          (Posy.monomials m)
      end)
    area.P.inequalities md.P.inequalities

type digests = { n_ineq : int; area : string; min_delay : string }

let run (id, case) =
  let tech, nl, target = case () in
  let spec = C.spec target in
  let area = (C.generate tech nl spec).C.problem in
  let md = (C.generate_min_delay tech nl spec).C.problem in
  ( {
      n_ineq = List.length area.P.inequalities;
      area = area_digest area;
      min_delay = min_delay_digest md;
    },
    fun () -> check_min_delay id ~target area md )

(* Snapshot format: one line [<id> <inequalities> <area digest>
   <min-delay digest>] per case. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun ((id, _) as c) ->
      let d, _ = run c in
      Printf.fprintf oc "%s %d %s %s\n" id d.n_ineq d.area d.min_delay)
    (cases ());
  close_out oc

let read path =
  let ic = open_in path in
  let rec go acc =
    match String.split_on_char ' ' (input_line ic) with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | [ id; n; area; min_delay ] ->
      go ((id, { n_ineq = int_of_string n; area; min_delay }) :: acc)
    | _ -> failwith "generation snapshot: malformed line"
  in
  go []

let check_case expected ((id, _) as c) () =
  match List.assoc_opt id expected with
  | None -> Alcotest.fail (id ^ ": not in the snapshot")
  | Some want ->
    let got, check_ratio = run c in
    Alcotest.(check int) (id ^ " inequalities") want.n_ineq got.n_ineq;
    Alcotest.(check string) (id ^ " area program") want.area got.area;
    Alcotest.(check string) (id ^ " min-delay program") want.min_delay got.min_delay;
    check_ratio ()

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write"; path ] -> write path
  | _ ->
    let expected = read snapshot_file in
    let cases = cases () in
    let same_ids () =
      Alcotest.(check (list string)) "case ids" (List.map fst expected) (List.map fst cases)
    in
    let tc c = Alcotest.test_case (fst c) `Quick (check_case expected c) in
    let group prefix =
      List.filter (fun (id, _) -> String.starts_with ~prefix id) cases |> List.map tc
    in
    Alcotest.run "generate_freeze"
      [
        ("snapshot", [ Alcotest.test_case "covers every case" `Quick same_ids ]);
        ("menu", group "menu/");
        ("adder64", group "adder64/");
        ("datapath", group "datapath");
      ]
