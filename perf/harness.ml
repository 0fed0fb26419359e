(* Shared plumbing of the benchmark: clocks, order statistics, process
   counters, metric records and their JSON form. *)

module Jsonx = Smart_serve.Jsonx

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let domain_id () = (Domain.self () :> int)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method): the quartiles the spread rule is stated in. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0. then 0. else a /. b
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = ratio (sum xs) (float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Process counters                                                    *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of this process ([VmHWM]), MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %f kB"
            (fun kb -> kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.) }

let metrics_json ms =
  Jsonx.Obj
    (List.map
       (fun m ->
         (m.name, Jsonx.Obj [ ("value", Jsonx.Num m.value); ("unit", Jsonx.Str m.unit_) ]))
       ms)

let metrics_of_json j =
  match j with
  | Jsonx.Obj fields ->
    List.filter_map
      (fun (name, v) ->
        match
          (Option.bind (Jsonx.member "value" v) Jsonx.to_float,
           Option.bind (Jsonx.member "unit" v) Jsonx.to_str)
        with
        | Some value, Some unit_ -> Some { name; value; unit_ }
        | _ -> None)
      fields
  | _ -> []

let find_metric name ms = List.find_opt (fun m -> m.name = name) ms
