(* [compare BASE.jsonl NEW.jsonl]: the regression check between two sets
   of runs (records written by [run --json], or ledger rows), per
   workload and end-to-end metric:

   - each side's median and quartiles;
   - the win fraction over runs paired by seed (ties count for neither);
   - the change in the median against the metric's bound.

   A metric is unresolved when the base runs' own quartile spread
   exceeds its bound, unless every new run beats every base run.  A gain
   needs wins in at least nine pairs in ten and a median shift larger
   than the base quartile spread.  The accepted width must repeat per
   seed within 1e-6, and the failure ratio must not grow.  Exits 1 on any
   regression. *)

module Jsonx = Smart_serve.Jsonx
open Harness

type row = { workload : string; seed : int; metrics : metric list }

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let load file =
  List.filter_map
    (fun line ->
      match Jsonx.parse line with
      | Error _ -> None
      | Ok j -> (
        let traced = Option.bind (Jsonx.member "trace" j) Jsonx.to_bool = Some true in
        match
          ( Option.bind (Jsonx.member "workload" j) Jsonx.to_str,
            Option.bind (Jsonx.member "seed" j) Jsonx.to_int,
            Jsonx.member "metrics" j )
        with
        | Some workload, Some seed, Some m when not traced ->
          Some { workload; seed; metrics = metrics_of_json m }
        | _ -> None))
    (read_lines file)

type bound = { name : string; lower_better : bool; bound : float }

let bounds_of_benchmark file =
  let text = String.concat "\n" (read_lines file) in
  match Jsonx.parse text with
  | Error e -> failwith (file ^ ": " ^ e)
  | Ok j ->
    List.filter_map
      (fun m ->
        match
          ( Option.bind (Jsonx.member "name" m) Jsonx.to_str,
            Option.bind (Jsonx.member "better" m) Jsonx.to_str,
            Option.bind (Jsonx.member "bound" m) Jsonx.to_float )
        with
        | Some name, Some better, Some bound ->
          Some { name; lower_better = better = "lower"; bound }
        | _ -> None)
      (Option.value ~default:[] (Option.bind (Jsonx.member "end_to_end" j) Jsonx.to_list))

let values name rows =
  List.filter_map (fun r -> Option.map (fun m -> m.value) (find_metric name r.metrics)) rows

(* (base, new) values of runs with the same seed, in file order. *)
let pairs name base neu =
  let seeds = List.sort_uniq compare (List.map (fun r -> r.seed) base) in
  List.concat_map
    (fun seed ->
      let side rows = values name (List.filter (fun r -> r.seed = seed) rows) in
      let rec zip a b =
        match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
      in
      zip (side base) (side neu))
    seeds

let run ~benchmark base_file new_file =
  let bounds = bounds_of_benchmark benchmark in
  let base = load base_file and neu = load new_file in
  let workloads =
    List.fold_left
      (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] base
  in
  let regressions = ref 0 in
  let report w name verdict detail =
    if String.length verdict > 0 && verdict.[0] = '!' then incr regressions;
    Printf.printf "%-16s %-16s %s  %s\n" w name detail verdict
  in
  List.iter
    (fun w ->
      let b = List.filter (fun r -> r.workload = w) base in
      let n = List.filter (fun r -> r.workload = w) neu in
      List.iter
        (fun { name; lower_better; bound } ->
          match (values name b, values name n) with
          | [], _ | _, [] -> report w name "missing" ""
          | bv, nv ->
            let q1b, mb, q3b = quartiles bv and q1n, mn, q3n = quartiles nv in
            let better x y = if lower_better then x < y else x > y in
            let worse = if lower_better then ratio mn mb -. 1. else 1. -. ratio mn mb in
            let spread = ratio (q3b -. q1b) mb in
            let ps = pairs name b n in
            let wins = List.length (List.filter (fun (x, y) -> better y x) ps) in
            let all_better =
              List.for_all (fun y -> List.for_all (fun x -> better y x) bv) nv
            in
            let verdict =
              if spread > bound then if all_better then "gain" else "unresolved"
              else if worse > bound then "!regression"
              else if
                10 * wins >= 9 * List.length ps
                && ps <> []
                && Float.abs (mn -. mb) > q3b -. q1b
                && better mn mb
              then "gain"
              else "ok"
            in
            report w name verdict
              (Printf.sprintf
                 "base %.6g [%.6g %.6g]  new %.6g [%.6g %.6g]  worse %+.1f%%  wins %d/%d  \
                  spread %.1f%%  bound %.0f%%"
                 mb q1b q3b mn q1n q3n (100. *. worse) wins (List.length ps) (100. *. spread)
                 (100. *. bound)))
        bounds;
      (* Quality: the advice itself, per seed. *)
      let widths = pairs "width_um" b n in
      let drift =
        List.fold_left
          (fun a (x, y) -> Float.max a (Float.abs (y -. x) /. Float.max 1e-12 (Float.abs x)))
          0. widths
      in
      report w "width_um"
        (if drift <= 1e-6 then "ok" else "!advice changed")
        (Printf.sprintf "max relative change %.2g over %d seed pairs" drift
           (List.length widths));
      let fail_max rows = List.fold_left Float.max 0. (values "fail_ratio" rows) in
      report w "fail_ratio"
        (if fail_max n > fail_max b then "!regression" else "ok")
        (Printf.sprintf "base max %g  new max %g" (fail_max b) (fail_max n)))
    workloads;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s)\n" !regressions;
    exit 1
  end
