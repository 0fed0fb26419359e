(* The SMART benchmark.  See README.md.

     main.exe --workload W --seed N --seconds S --trace 0|1
         one workload in this process; the last stdout line is the JSON
         result {correct, attempted, failed, metrics}
     main.exe run [--seed N] [--workload W] [--seconds S] [--trace]
                  [--json FILE] [--ledger]
         every workload (or one), each in its own child process, one at
         a time; prints "workload metric value unit" lines
     main.exe compare BASE.jsonl NEW.jsonl
         regression check between two sets of [run --json] records
     main.exe --smoke
         every workload at toy size, traced and untraced, gate on *)

module Smart = Smart_core.Smart
module Trace = Smart.Engine.Trace
open Harness

let end_to_end (o : Obs.t) =
  let lat = Obs.measured_latencies o in
  let n = float_of_int (max 1 (List.length lat)) in
  [
    metric "setup_s" "s" (median o.Obs.setups);
    metric "latency_p50_ms" "ms" (1000. *. quantile 0.5 lat);
    metric "throughput_ops" "1/s" (ratio n o.Obs.window_s);
    metric "cpu_per_op_s" "s" (o.Obs.cpu_s /. n);
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

(* Advice quality and correctness: recorded and compared, but not
   end-to-end bounds (the accepted width moves with the seed's targets). *)
let quality (o : Obs.t) =
  [
    metric "width_um" "um" o.Obs.width_um;
    metric "fail_ratio" "ratio"
      (ratio (float_of_int (List.length o.Obs.failures)) (float_of_int o.Obs.attempted));
  ]

type outcome = {
  attempted : int;
  failures : string list;
  reported : metric list;  (** the result line's metrics *)
  recorded : metric list;  (** everything, for [--record] *)
}

let workload name =
  match List.assoc_opt name Workloads.all with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %s; known: %s\n" name
      (String.concat ", " (List.map fst Workloads.all));
    exit 2

(* One workload in this process.  Untraced: one timed pass.  Traced: an
   untraced one-deck pass, the same deck with every sink installed, then
   the replays; the spans go to [out/<workload>.<seed>.spans.jsonl]. *)
let measure ~out ~toy ~name ~seed ~seconds ~trace =
  let w = workload name in
  let scratch = Filename.concat out (Printf.sprintf "%s.%d" name seed) in
  rm_rf scratch;
  mkdir_p scratch;
  let ctx sub one_deck sink =
    let dir = Filename.concat scratch sub in
    mkdir_p dir;
    { Workloads.seed; seconds; toy; one_deck; sink; scratch = dir }
  in
  if not trace then begin
    let o = w (ctx "run" false Trace.null) in
    let e2e = end_to_end o in
    {
      attempted = o.Obs.attempted;
      failures = o.Obs.failures;
      reported = e2e;
      recorded = e2e @ quality o;
    }
  end
  else begin
    let base = w (ctx "base" true Trace.null) in
    let top_heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
    in
    let tracer = Tracer.create () in
    let sink = Tracer.sink tracer in
    let t0 = now () in
    Trace.install_global sink;
    let traced =
      Fun.protect ~finally:Trace.uninstall_global (fun () -> w (ctx "traced" true sink))
    in
    let spans = Tracer.spans tracer in
    let costs = List.map Replay.input_cost traced.Obs.inputs in
    let wire = Replay.wire traced.Obs.wire in
    let store =
      Replay.store ~scratch:(Filename.concat scratch "traced") ~run_dir:traced.Obs.store_dir
        traced.Obs.wire
    in
    let layers =
      Layers.compute { Layers.base; traced; spans; costs; wire; store; top_heap_mb }
    in
    Tracer.write_file
      (Filename.concat out (Printf.sprintf "%s.%d.spans.jsonl" name seed))
      ~t0 ~ops:traced.Obs.ops ~bench:(List.rev !Replay.span_log) spans;
    {
      attempted = base.Obs.attempted + traced.Obs.attempted;
      failures = base.Obs.failures @ traced.Obs.failures;
      reported = layers;
      recorded = end_to_end base @ quality traced @ layers;
    }
  end

let result_line o =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool (o.failures = []));
         ("attempted", Jsonx.Num (float_of_int (max 1 o.attempted)));
         ("failed", Jsonx.Num (float_of_int (List.length o.failures)));
         ("metrics", metrics_json o.reported);
       ])

let record ~name ~seed ~seconds ~trace o =
  Jsonx.Obj
    [
      ("workload", Jsonx.Str name);
      ("seed", Jsonx.Num (float_of_int seed));
      ("seconds", Jsonx.Num seconds);
      ("trace", Jsonx.Bool trace);
      ("correct", Jsonx.Bool (o.failures = []));
      ("attempted", Jsonx.Num (float_of_int o.attempted));
      ("failed", Jsonx.Num (float_of_int (List.length o.failures)));
      ("metrics", metrics_json o.recorded);
    ]

let write_file path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc line;
      output_char oc '\n')

let print_metrics name ms =
  List.iter
    (fun m ->
      Printf.printf "%s %s %s %s\n" name m.name (Jsonx.float_to_string m.value) m.unit_)
    ms

(* ------------------------------------------------------------------ *)
(* Argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

type args = {
  mutable workload_ : string option;
  mutable seed_ : int;
  mutable seconds_ : float;
  mutable trace_ : bool;
  mutable record_ : string option;
  mutable out_ : string;
  mutable json_ : string option;
  mutable ledger_ : bool;
  mutable benchmark_ : string;
  mutable smoke_ : bool;
  mutable positional : string list;
}

let parse argv =
  let a =
    {
      workload_ = None;
      seed_ = 1;
      seconds_ = 15.;
      trace_ = false;
      record_ = None;
      out_ = Filename.concat "perf" "out";
      json_ = None;
      ledger_ = false;
      benchmark_ = "BENCHMARK.json";
      smoke_ = false;
      positional = [];
    }
  in
  let bad msg =
    prerr_endline msg;
    exit 2
  in
  let int_of s =
    match int_of_string_opt s with Some i -> i | None -> bad ("not an integer: " ^ s)
  in
  let float_of s =
    match float_of_string_opt s with Some f -> f | None -> bad ("not a number: " ^ s)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a.workload_ <- Some v; go rest
    | "--seed" :: v :: rest -> a.seed_ <- int_of v; go rest
    | "--seconds" :: v :: rest -> a.seconds_ <- float_of v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> a.trace_ <- v = "1"; go rest
    | "--trace" :: rest -> a.trace_ <- true; go rest
    | "--record" :: v :: rest -> a.record_ <- Some v; go rest
    | "--out" :: v :: rest -> a.out_ <- v; go rest
    | "--json" :: v :: rest -> a.json_ <- Some v; go rest
    | "--ledger" :: rest -> a.ledger_ <- true; go rest
    | "--benchmark" :: v :: rest -> a.benchmark_ <- v; go rest
    | "--smoke" :: rest -> a.smoke_ <- true; go rest
    | v :: rest when String.length v > 0 && v.[0] <> '-' ->
      a.positional <- a.positional @ [ v ];
      go rest
    | v :: _ -> bad ("unknown argument " ^ v)
  in
  go (List.tl (Array.to_list argv));
  a

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let single a name =
  mkdir_p a.out_;
  let o =
    measure ~out:a.out_ ~toy:false ~name ~seed:a.seed_ ~seconds:a.seconds_ ~trace:a.trace_
  in
  List.iteri (fun i f -> if i < 10 then prerr_endline ("FAIL " ^ name ^ ": " ^ f)) o.failures;
  Option.iter
    (fun path ->
      write_file path
        (Jsonx.to_string (record ~name ~seed:a.seed_ ~seconds:a.seconds_ ~trace:a.trace_ o)))
    a.record_;
  print_endline (result_line o);
  exit (if o.failures = [] then 0 else 1)

let command_output cmd =
  match Unix.open_process_args_in cmd.(0) cmd with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    (match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None)

let host () =
  let cpu =
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> "unknown"
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> "unknown"
            | l -> (
              match String.index_opt l ':' with
              | Some i when String.trim (String.sub l 0 i) = "model name" ->
                String.trim (String.sub l (i + 1) (String.length l - i - 1))
              | _ -> scan ())
          in
          scan ())
  in
  Jsonx.Obj
    [
      ("nproc", Jsonx.Num (float_of_int (Domain.recommended_domain_count ())));
      ("cpu", Jsonx.Str cpu);
      ("ocaml", Jsonx.Str Sys.ocaml_version);
    ]

(* Each workload in a child process of this executable, one at a time. *)
let run_all a =
  mkdir_p a.out_;
  let names =
    match a.workload_ with
    | Some w ->
      ignore (workload w : Workloads.ctx -> Obs.t);
      [ w ]
    | None -> List.map fst Workloads.all
  in
  let rev =
    if a.ledger_ then
      Option.value ~default:"unknown"
        (command_output [| "git"; "describe"; "--always"; "--dirty" |])
    else ""
  in
  let all_ok = ref true in
  let child name trace =
    let path =
      Filename.concat a.out_
        (Printf.sprintf "%s.%d.%s.json" name a.seed_ (if trace then "trace" else "run"))
    in
    (try Sys.remove path with Sys_error _ -> ());
    let args =
      [|
        Sys.executable_name; "--workload"; name; "--seed"; string_of_int a.seed_;
        "--seconds"; Printf.sprintf "%g" a.seconds_; "--trace"; (if trace then "1" else "0");
        "--record"; path; "--out"; a.out_;
      |]
    in
    let pid =
      Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr
    in
    let _, status = Unix.waitpid [] pid in
    let parsed =
      match Jsonx.parse (String.concat "\n" (Compare.read_lines path)) with
      | Ok j -> Some j
      | Error _ -> None
      | exception Sys_error _ -> None
    in
    match (status, parsed) with
    | Unix.WEXITED 0, Some j ->
      print_metrics name
        (metrics_of_json (Option.value ~default:Jsonx.Null (Jsonx.member "metrics" j)));
      Printf.printf "%s correct true\n%!" name;
      Option.iter (fun f -> append_line f (Jsonx.to_string j)) a.json_;
      if a.ledger_ && not trace then
        append_line (Filename.concat "perf" "ledger.jsonl")
          (Jsonx.to_string
             (match j with
             | Jsonx.Obj fields ->
               Jsonx.Obj
                 (("rev", Jsonx.Str rev) :: ("host", host ())
                 :: ("workers", Jsonx.Num (float_of_int Workloads.workers))
                 :: fields)
             | other -> other))
    | _ ->
      all_ok := false;
      Printf.printf "%s correct false\n%!" name
  in
  List.iter
    (fun name ->
      child name false;
      if a.trace_ then child name true)
    names;
  exit (if !all_ok then 0 else 1)

let benchmark_names file =
  let j =
    match Jsonx.parse (String.concat "\n" (Compare.read_lines file)) with
    | Ok j -> j
    | Error e -> failwith (file ^ ": " ^ e)
  in
  let names key =
    List.filter_map
      (fun m -> Option.bind (Jsonx.member "name" m) Jsonx.to_str)
      (Option.value ~default:[] (Option.bind (Jsonx.member key j) Jsonx.to_list))
  in
  (names "end_to_end", names "per_layer")

(* Every workload at toy size, untraced and traced: the gate must pass and
   the metric names must be exactly BENCHMARK.json's. *)
let smoke a =
  let e2e_names, layer_names = benchmark_names a.benchmark_ in
  mkdir_p a.out_;
  let ok = ref true in
  let same_names what expected (ms : metric list) =
    let got = List.map (fun m -> m.name) ms in
    let missing = List.filter (fun n -> not (List.mem n got)) expected in
    let extra = List.filter (fun n -> not (List.mem n expected)) got in
    if missing <> [] || extra <> [] then begin
      ok := false;
      Printf.printf "  %s metrics: missing [%s] unlisted [%s]\n" what
        (String.concat " " missing) (String.concat " " extra)
    end
  in
  List.iter
    (fun (name, _) ->
      let (run, traced), dt =
        time (fun () ->
            ( measure ~out:a.out_ ~toy:true ~name ~seed:1 ~seconds:0. ~trace:false,
              measure ~out:a.out_ ~toy:true ~name ~seed:1 ~seconds:0. ~trace:true ))
      in
      let failures = run.failures @ traced.failures in
      Printf.printf "smoke %-16s %3d ops  %5.2f s  %s\n%!" name
        (run.attempted + traced.attempted) dt
        (if failures = [] then "ok" else "FAILED");
      List.iter (fun f -> Printf.printf "  %s\n" f) failures;
      if failures <> [] then ok := false;
      same_names "end-to-end" e2e_names run.reported;
      same_names "per-layer" layer_names traced.reported)
    Workloads.all;
  exit (if !ok then 0 else 1)

let () =
  let a = parse Sys.argv in
  match (a.positional, a.workload_) with
  | [ "compare"; base; neu ], _ -> Compare.run ~benchmark:a.benchmark_ base neu
  | [ "run" ], _ -> run_all a
  | [], _ when a.smoke_ -> smoke a
  | [], Some name -> single a name
  | _ ->
    prerr_endline
      "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
      \       main.exe run [--seed N] [--workload W] [--seconds S] [--trace]\n\
      \                        [--json FILE] [--ledger]\n\
      \       main.exe compare BASE.jsonl NEW.jsonl\n\
      \       main.exe --smoke";
    exit 2
