type severity = Error | Warn | Info

let severity_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warn -> 1 | Info -> 2

type loc = Net of string | Inst of string | Label of string | Whole_netlist

let loc_name = function
  | Net n | Inst n | Label n -> n
  | Whole_netlist -> "<netlist>"

let loc_to_string = function
  | Net n -> "net " ^ n
  | Inst n -> "inst " ^ n
  | Label n -> "label " ^ n
  | Whole_netlist -> "netlist"

type diag = {
  rule : string;
  severity : severity;
  loc : loc;
  message : string;
  hint : string option;
  waived : bool;
}

let diag ?hint ~rule ~severity ~loc message =
  { rule; severity; loc; message; hint; waived = false }

let compare_diag a b =
  let c = compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = compare a.waived b.waived in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare (loc_name a.loc) (loc_name b.loc)

let to_text d =
  Printf.sprintf "%-5s %-24s @ %-18s %s%s%s"
    (severity_to_string d.severity)
    d.rule (loc_to_string d.loc) d.message
    (match d.hint with None -> "" | Some h -> Printf.sprintf " (hint: %s)" h)
    (if d.waived then " [waived]" else "")

let jstr = Smart_util.Json.quote

let loc_kind = function
  | Net _ -> "net"
  | Inst _ -> "inst"
  | Label _ -> "label"
  | Whole_netlist -> "netlist"

let to_json d =
  let fields =
    [
      ("rule", jstr d.rule);
      ("severity", jstr (severity_to_string d.severity));
      ("loc_kind", jstr (loc_kind d.loc));
      ("loc", jstr (loc_name d.loc));
      ("message", jstr d.message);
    ]
    @ (match d.hint with None -> [] | Some h -> [ ("hint", jstr h) ])
    @ [ ("waived", if d.waived then "true" else "false") ]
  in
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
  ^ "}"

let count sev ~live ds =
  List.length
    (List.filter (fun d -> d.severity = sev && (not live || not d.waived)) ds)

let summary_line ~netlist ds =
  Printf.sprintf "%s: %d error%s (%d waived), %d warning%s, %d info" netlist
    (count Error ~live:true ds)
    (if count Error ~live:true ds = 1 then "" else "s")
    (count Error ~live:false ds - count Error ~live:true ds)
    (count Warn ~live:true ds)
    (if count Warn ~live:true ds = 1 then "" else "s")
    (count Info ~live:true ds)

let list_to_text ~netlist ds =
  let ds = List.sort compare_diag ds in
  String.concat "\n" (summary_line ~netlist ds :: List.map to_text ds)

let list_to_json ~netlist ds =
  let ds = List.sort compare_diag ds in
  Printf.sprintf
    "{\"netlist\": %s, \"summary\": {\"errors\": %d, \"waived_errors\": %d, \
     \"warnings\": %d, \"infos\": %d}, \"diagnostics\": [%s]}"
    (jstr netlist)
    (count Error ~live:true ds)
    (count Error ~live:false ds - count Error ~live:true ds)
    (count Warn ~live:true ds) (count Info ~live:true ds)
    (String.concat ", " (List.map to_json ds))
