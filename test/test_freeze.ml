(* Advice freeze: the widths and Ok/Error class of a fixed set of sizings,
   compared against a committed snapshot (data/advice_freeze.txt).

   Three groups:
   - every candidate of the benchmark's 12-template advise menu at each
     band's low, middle and high delay;
   - the 16-bit adder sized with a [min_delay_hint] at 1.1, 1.25 and 1.4x
     its golden minimum, and the 64-bit adder at 1.25x;
   - seven fast/typ/slow corner-set sizings at 1.2-1.3x the slow-corner
     minimum, the 64-bit adder among them.

   Every width must stay within 1e-6 relative of the snapshot and every
   case must keep its class.  Regenerate the snapshot only for an
   intended advice change:
     dune exec test/test_freeze.exe -- --write test/data/advice_freeze.txt *)

module Smart = Smart_core.Smart
module Tech = Smart.Tech
module Sizer = Smart.Sizer
module Corners = Smart.Corners
module C = Smart.Constraints

let snapshot_file = "data/advice_freeze.txt"
let tech = Tech.default

(* (kind, bits, band low, band high) — the advise menu of perf/workloads.ml. *)
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

type result = Sized of (string * float) list | Failed of string

let of_result = function
  | Ok (o : Sizer.outcome) -> Sized o.Sizer.sizing
  | Error e -> Failed (Smart.Error.code e)

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
                fun () -> of_result (Sizer.size_typed tech info.Smart.Macro.netlist (C.spec d)) ))
            built)
        [ lo; 0.5 *. (lo +. hi); hi ])
    menu

let golden_min t nl =
  match Sizer.minimize_delay_typed t nl (C.spec 1e6) with
  | Ok md -> md
  | Error e -> Alcotest.fail ("min-delay: " ^ Smart.Error.to_string e)

let hint_cases () =
  List.map
    (fun (bits, k) ->
      ( Printf.sprintf "hint/adder%d@%gx" bits k,
        fun () ->
          let nl = (Smart.Cla_adder.generate ~bits ()).Smart.Macro.netlist in
          let md = golden_min tech nl in
          let options =
            { Sizer.default_options with Sizer.min_delay_hint = Some md.Sizer.model_min }
          in
          of_result
            (Sizer.size_typed ~options tech nl (C.spec (k *. md.Sizer.golden_min))) ))
    [ (16, 1.1); (16, 1.25); (16, 1.4); (64, 1.25) ]

let corner_cases () =
  let set = Corners.default_set () in
  let slow = (List.nth (Corners.to_list set) 2).Corners.tech in
  let netlist (i : Smart.Macro.info) = i.Smart.Macro.netlist in
  List.map
    (fun (name, nl, k) ->
      ( Printf.sprintf "corners/%s@%gx" name k,
        fun () ->
          let target = k *. (golden_min slow nl).Sizer.golden_min in
          of_result
            (Result.map
               (fun (ro : Sizer.robust_outcome) -> ro.Sizer.robust)
               (Sizer.size_robust_typed set nl (C.spec target))) ))
    [
      ("mux4-sm", netlist (Smart.Mux.generate Smart.Mux.Strongly_mutexed ~n:4), 1.25);
      ("mux4-domino", netlist (Smart.Mux.generate Smart.Mux.Domino_unsplit ~n:4), 1.3);
      ("adder8", netlist (Smart.Cla_adder.generate ~bits:8 ()), 1.2);
      ("adder16", netlist (Smart.Cla_adder.generate ~bits:16 ()), 1.25);
      ("zero-detect16", netlist (Smart.Zero_detect.generate ~bits:16 ()), 1.3);
      ("incrementor16", netlist (Smart.Incrementor.generate ~bits:16 ()), 1.2);
      ("adder64", netlist (Smart.Cla_adder.generate ~bits:64 ()), 1.25);
    ]

let cases () = menu_cases () @ hint_cases () @ corner_cases ()

(* Snapshot format: a [case <id> ok <n>] or [case <id> error <code>]
   line, followed for [ok] by [n] lines [<label> <width>]. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun (id, run) ->
      match run () with
      | Sized sizing ->
        Printf.fprintf oc "case %s ok %d\n" id (List.length sizing);
        List.iter (fun (l, w) -> Printf.fprintf oc "%s %.17g\n" l w) sizing
      | Failed code -> Printf.fprintf oc "case %s error %s\n" id code)
    (cases ());
  close_out oc

let read path =
  let ic = open_in path in
  let line () = String.split_on_char ' ' (input_line ic) in
  let rec widths n acc =
    if n = 0 then List.rev acc
    else
      match line () with
      | [ l; w ] -> widths (n - 1) ((l, float_of_string w) :: acc)
      | _ -> failwith "advice snapshot: malformed width line"
  in
  let rec go acc =
    match line () with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | [ "case"; id; "ok"; n ] -> go ((id, Sized (widths (int_of_string n) [])) :: acc)
    | [ "case"; id; "error"; code ] -> go ((id, Failed code) :: acc)
    | _ -> failwith "advice snapshot: malformed case line"
  in
  go []

let describe = function Sized _ -> "ok" | Failed code -> "error " ^ code

let check_case expected (id, run) () =
  match (List.assoc_opt id expected, run ()) with
  | None, _ -> Alcotest.fail (id ^ ": not in the snapshot")
  | Some want, got -> (
    match (want, got) with
    | Sized w, Sized g ->
      Alcotest.(check (list string)) (id ^ " labels") (List.map fst w) (List.map fst g);
      List.iter2
        (fun (l, a) (_, b) ->
          if Float.abs (a -. b) > 1e-6 *. Float.abs a then
            Alcotest.failf "%s: %s moved %.9g -> %.9g" id l a b)
        w g
    | Failed a, Failed b -> Alcotest.(check string) (id ^ " error class") a b
    | _ -> Alcotest.failf "%s: class %s -> %s" id (describe want) (describe got))

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write"; path ] -> write path
  | _ ->
    let expected = read snapshot_file in
    let cases = cases () in
    let same_ids () =
      Alcotest.(check (list string)) "case ids" (List.map fst expected) (List.map fst cases)
    in
    let tc (id, run) = Alcotest.test_case id `Quick (check_case expected (id, run)) in
    let group prefix =
      List.filter (fun (id, _) -> String.starts_with ~prefix id) cases |> List.map tc
    in
    Alcotest.run "advice_freeze"
      [
        ("snapshot", [ Alcotest.test_case "covers every case" `Quick same_ids ]);
        ("menu", group "menu/");
        ("hint", group "hint/");
        ("corners", group "corners/");
      ]
