(* Shared experiment plumbing for the paper-reproduction benches.

   Every §6 comparison follows the same protocol:
     1. find the macro's fastest achievable delay (GP min-delay, golden
        verified) -- the performance level a high-performance design works
        at;
     2. produce the "original design": the manual baseline sized toward an
        aggressive target (fastest x slack), with margins, grid snapping
        and uniform clock habits;
     3. run SMART at the original design's achieved performance;
     4. compare width / clock load / power.  *)

module Smart = Smart_core.Smart
module Macro = Smart.Macro
module Tech = Smart.Tech
module Netlist = Smart.Circuit
module Constraints = Smart.Constraints
module Sizer = Smart.Sizer
module Baseline = Smart.Baseline
module Power = Smart.Power
module Tab = Smart_util.Tab
module Stats = Smart_util.Stats

let tech = Tech.default

(* Pool width for the parallel benches.  [Engine.create ()] asks the
   runtime, which collapses to one worker on a single-core runner and
   silently voids every seq-vs-pooled comparison (the artifact then
   records [workers: 1] and a ~1.0 speedup that looks like a defect).
   Benches that mean "the pool" must provision at least two workers —
   an explicit width oversubscribes a narrow machine, which these
   solve-bound workloads tolerate — and record the width they got.
   SMART_BENCH_WORKERS overrides for scaling studies. *)
let workers () =
  match Option.bind (Sys.getenv_opt "SMART_BENCH_WORKERS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> max 2 (Smart.Engine.Pool.recommended ())

type comparison = {
  label : string;
  baseline : Baseline.result;
  smart : Sizer.outcome;
  power_baseline : Power.report;
  power_smart : Power.report;
}

let width_ratio c = c.smart.Sizer.total_width /. c.baseline.Baseline.total_width
let width_saving c = 100. *. (1. -. width_ratio c)

let clock_saving c =
  if c.baseline.Baseline.clock_load_width <= 0. then 0.
  else
    100.
    *. (1.
       -. (c.smart.Sizer.clock_load_width /. c.baseline.Baseline.clock_load_width))

let power_saving c =
  Power.saving ~original:c.power_baseline ~improved:c.power_smart

(* Compare SMART against the manual baseline on one macro.  [baseline]
   overrides step 2 (used by Table 1's shared-clock-template variant). *)
let compare_macro ?(slack = 1.2) ?baseline ~label (info : Macro.info) =
  let nl = info.Macro.netlist in
  match Sizer.minimize_delay_typed tech nl (Constraints.spec 1e6) with
  | Error e ->
    Error (Printf.sprintf "%s: min-delay failed: %s" label (Smart.Error.to_string e))
  | Ok md ->
    let bl =
      match baseline with
      | Some b -> b
      | None -> Baseline.size ~target:(slack *. md.Sizer.golden_min) tech nl
    in
    let options =
      { Sizer.default_options with Sizer.min_delay_hint = Some md.Sizer.model_min }
    in
    let spec = Constraints.spec bl.Baseline.achieved_delay in
    (match Sizer.size_typed ~options tech nl spec with
    | Error e ->
      Error (Printf.sprintf "%s: sizing failed: %s" label (Smart.Error.to_string e))
    | Ok smart ->
      Ok
        {
          label;
          baseline = bl;
          smart;
          power_baseline = Power.estimate tech nl ~sizing:bl.Baseline.sizing_fn;
          power_smart = Power.estimate tech nl ~sizing:smart.Sizer.sizing_fn;
        })

let heading title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

let note fmt = Printf.printf fmt

(* Every shape-check verdict printed so far, newest first: the paper
   smoke gates on them. *)
let verdicts = ref []

let shape_check ~name ok =
  verdicts := (name, ok) :: !verdicts;
  Printf.printf "  shape check: %-44s %s\n" name (if ok then "HOLDS" else "DIVERGES")

(* Machine-readable bench artifacts (BENCH_*.json): one flat object of
   numeric fields, written to the invocation directory so successive PRs
   can track the perf trajectory. *)
let write_json ~file fields =
  let oc = open_out file in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  \"%s\": %.6g%s\n" k v
        (if i = List.length fields - 1 then "" else ","))
    fields;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "  wrote %s\n" file

(* Shape check for the written artifacts: every expected key present with
   a parseable numeric value.  The files are our own flat one-field-per-
   line format, so a line scan is a full parse. *)
let json_has_fields ~file keys =
  match
    let ic = open_in file in
    let fields = Hashtbl.create 16 in
    (try
       while true do
         let line = input_line ic in
         try
           Scanf.sscanf (String.trim line) " \"%[^\"]\": %f" (fun k v ->
               Hashtbl.replace fields k v)
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
       done
     with End_of_file -> close_in ic);
    fields
  with
  | exception Sys_error e ->
    Printf.printf "  shape check: %-44s MISSING (%s)\n" file e;
    false
  | fields ->
    List.for_all
      (fun k ->
        let ok = Hashtbl.mem fields k in
        if not ok then
          Printf.printf "  shape check: %s lacks field %-20s DIVERGES\n" file k;
        ok)
      keys
