(* Replays: timed calls to public layer functions on exactly the distinct
   inputs a traced pass saw, after it finished.  They time the layers the
   program does not span yet (path extraction, constraint generation,
   interval precheck, GP compilation, corner generation, hierarchy
   planning, macro generation, wire codec, store I/O). *)

module Smart = Smart_core.Smart
module Wire = Smart_serve.Wire
module Store = Smart_serve.Store
module Constraints = Smart.Constraints
module Absint = Smart.Absint
module Gp = Smart.Gp

let tech = Smart.Tech.default

(* [f]'s result and its mean wall seconds per call; calls cheaper than
   [min_s] are repeated until [min_s] of work has been timed. *)
let timed ?(min_s = 0.01) f =
  let r, dt = Harness.time f in
  let rec more n total =
    if total >= min_s || n >= 1000 then total /. float_of_int n
    else more (n + 1) (total +. snd (Harness.time f))
  in
  (r, more 1 dt)

let span_log = ref []

(* Time one replay and log it as a bench span ([replay.<layer>]). *)
let replay layer ?min_s f =
  let start = Harness.now () in
  let r, per_call = timed ?min_s f in
  span_log := (layer, start, Harness.now ()) :: !span_log;
  (r, per_call)

type netlist_cost = {
  key : string;  (** the label the program's sizing spans carry *)
  lint_s : float;
  paths_s : float;
  reduced : int;
  generate_s : float;
  inequalities : int;
  min_delay_generate_s : float;
  absint_s : float;  (** [Absint.infeasibility], sizer classification *)
  prepare_s : float;
  robust_generate_s : float;
  robust_absint_s : float;
  robust_prepare_s : float;
  families : int;
  plan_s : float;
}

type input_cost = {
  build_s : float;  (** [Database.build_all] or the macro generator *)
  netlists : netlist_cost list;
}

let netlist_cost ~key nl spec =
  let target_ps = spec.Constraints.target_delay in
  let _, lint_s = replay "lint" (fun () -> Smart.Lint.run ~tech ~spec nl) in
  let (_, stats), paths_s = replay "paths" (fun () -> Smart.Paths.extract nl) in
  let g, generate_s = replay "constraints" (fun () -> Constraints.generate tech nl spec) in
  let _, min_delay_generate_s =
    replay "constraints" (fun () -> Constraints.generate_min_delay tech nl spec)
  in
  let _, absint_s =
    replay "absint" (fun () ->
        Absint.infeasibility ~options:(Absint.sizer_options ~robust:false) ~target_ps
          g.Constraints.problem)
  in
  let _, prepare_s = replay "gp" (fun () -> Gp.prepare g.Constraints.problem) in
  let set = Smart.Corners.default_set () in
  let merged, robust_generate_s =
    replay "corners" (fun () -> Smart.Corners.generate_robust set nl spec)
  in
  let robust = merged.Smart.Corners.generated.Constraints.problem in
  let _, robust_absint_s =
    replay "absint" (fun () ->
        Absint.infeasibility ~options:(Absint.sizer_options ~robust:true) ~target_ps robust)
  in
  let prepared, robust_prepare_s = replay "gp" (fun () -> Gp.prepare robust) in
  let _, plan_s = replay "hier" (fun () -> Smart.Hier.plan nl) in
  {
    key;
    lint_s;
    paths_s;
    reduced = stats.Smart.Paths.reduced_paths;
    generate_s;
    inequalities = List.length g.Constraints.problem.Smart.Gp_problem.inequalities;
    min_delay_generate_s;
    absint_s;
    prepare_s;
    robust_generate_s;
    robust_absint_s;
    robust_prepare_s;
    families = (Gp.structure_stats prepared).Gp.families;
    plan_s;
  }

let input_cost = function
  | Obs.Template { kind; bits; delay } ->
    let db = Smart.Database.builtins () in
    let built, build_s =
      replay "macros" (fun () ->
          Smart.Database.build_all db ~kind (Smart.Database.requirements bits))
    in
    let spec = Constraints.spec delay in
    {
      build_s;
      netlists =
        List.map
          (fun ((e : Smart.Database.entry), (info : Smart.Macro.info)) ->
            netlist_cost ~key:e.Smart.Database.entry_name info.Smart.Macro.netlist spec)
          built;
    }
  | Obs.Netlist { build; spec } ->
    let info, build_s = replay "macros" build in
    let nl = info.Smart.Macro.netlist in
    { build_s; netlists = [ netlist_cost ~key:nl.Smart.Circuit.name nl spec ] }

(* Mean seconds per (request, response) pair to decode both lines, and
   to encode the decoded values again. *)
let wire pairs =
  let costs =
    List.filter_map
      (fun (q, p) ->
        match (Wire.Request.of_line q, Wire.Response.of_line p) with
        | Ok rq, Ok rp ->
          let _, dec =
            replay "wire" ~min_s:0.002 (fun () ->
                ignore (Wire.Request.of_line q);
                ignore (Wire.Response.of_line p))
          in
          let _, enc =
            replay "wire" ~min_s:0.002 (fun () ->
                ignore (Wire.Request.to_line rq);
                ignore (Wire.Response.to_line rp))
          in
          Some (dec, enc)
        | _ -> None)
      pairs
  in
  (Harness.mean (List.map fst costs), Harness.mean (List.map snd costs))

(* Keys of a store directory laid out as [dir/ab/<30 hex digits>]. *)
let store_keys dir =
  let entries d = try Array.to_list (Sys.readdir d) with Sys_error _ -> [] in
  List.concat_map
    (fun ab ->
      let sub = Filename.concat dir ab in
      if String.length ab = 2 && Sys.is_directory sub then
        List.filter_map
          (fun rest -> if String.length rest = 30 then Some (ab ^ rest) else None)
          (entries sub)
      else [])
    (entries dir)

type store_cost = { find_s : float; save_s : float; entries : int; bytes : int }

(* Store I/O on the pass's own persistent store when it had one, read
   back entry by entry and written into a scratch store; otherwise on the
   pass's response lines, written and read back. *)
let store ~scratch ~run_dir pairs =
  let dir = Filename.concat scratch "replay-store" in
  Harness.rm_rf dir;
  let dst = Store.create ~stamp:"perf-replay" ~dir () in
  let save blobs =
    List.map
      (fun (k, b) -> snd (replay "store" ~min_s:0.002 (fun () -> Store.save dst k b)))
      blobs
  in
  match run_dir with
  | Some run_dir ->
    let src = Store.create ~dir:run_dir () in
    let keys = store_keys run_dir in
    let found =
      List.filter_map
        (fun k ->
          match replay "store" ~min_s:0.002 (fun () -> Store.find src k) with
          | Some b, dt -> Some ((k, b), dt)
          | None, _ -> None)
        keys
    in
    let bytes =
      List.fold_left
        (fun acc k ->
          let path =
            Filename.concat run_dir (Filename.concat (String.sub k 0 2) (String.sub k 2 30))
          in
          acc + try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0)
        0 keys
    in
    {
      find_s = Harness.mean (List.map snd found);
      save_s = Harness.mean (save (List.map fst found));
      entries = List.length keys;
      bytes;
    }
  | None ->
    let blobs = List.map (fun (_, p) -> (Digest.to_hex (Digest.string p), p)) pairs in
    let save_s = Harness.mean (save blobs) in
    let finds =
      List.map
        (fun (k, _) -> snd (replay "store" ~min_s:0.002 (fun () -> Store.find dst k)))
        blobs
    in
    { find_s = Harness.mean finds; save_s; entries = 0; bytes = 0 }
