exception Smart_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Smart_error s)) fmt

let invalid_arg_if cond fmt =
  Format.kasprintf (fun s -> if cond then raise (Smart_error s)) fmt

type t =
  | No_applicable_topology of { kind : string }
  | Infeasible_spec of { target_ps : float; detail : string }
  | Gp_failure of string
  | Sta_disagreement of { target_ps : float; iterations : int }
  | Invalid_request of string
  | Worker_crash of { item : int; detail : string }
  | Lint_failed of {
      netlist : string;
      diagnostics : (string * string * string) list;
    }
  | Bad_request of { field : string option; detail : string }
  | Overloaded of { queued : int; limit : int }

let to_string = function
  | No_applicable_topology { kind } ->
    Printf.sprintf "no applicable %s topology in database" kind
  | Infeasible_spec { target_ps; detail } ->
    Printf.sprintf "specification %.1f ps infeasible (%s)" target_ps detail
  | Gp_failure msg -> "GP failure: " ^ msg
  | Sta_disagreement { target_ps; iterations } ->
    Printf.sprintf
      "no golden-feasible sizing found for %.1f ps in %d iterations"
      target_ps iterations
  | Invalid_request msg -> "invalid request: " ^ msg
  | Worker_crash { item; detail } ->
    Printf.sprintf "worker crashed on item %d: %s" item detail
  | Lint_failed { netlist; diagnostics } ->
    Printf.sprintf "lint failed on %s: %s" netlist
      (String.concat "; "
         (List.map
            (fun (rule, loc, msg) -> Printf.sprintf "[%s] %s: %s" rule loc msg)
            diagnostics))
  | Bad_request { field; detail } -> (
    match field with
    | Some f -> Printf.sprintf "bad request: field %s: %s" f detail
    | None -> "bad request: " ^ detail)
  | Overloaded { queued; limit } ->
    Printf.sprintf "server overloaded: %d requests queued (limit %d)" queued
      limit

let pp fmt e = Format.pp_print_string fmt (to_string e)

let code = function
  | No_applicable_topology _ -> "no-applicable-topology"
  | Infeasible_spec _ -> "infeasible-spec"
  | Gp_failure _ -> "gp-failure"
  | Sta_disagreement _ -> "sta-disagreement"
  | Invalid_request _ -> "invalid-request"
  | Worker_crash _ -> "worker-crash"
  | Lint_failed _ -> "lint-failed"
  | Bad_request _ -> "bad-request"
  | Overloaded _ -> "overloaded"

let jstr = Json.quote
let jfloat = Json.number

let jobj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let data_fields = function
  | No_applicable_topology { kind } -> [ ("kind", jstr kind) ]
  | Infeasible_spec { target_ps; detail } ->
    [ ("target_ps", jfloat target_ps); ("detail", jstr detail) ]
  | Gp_failure detail -> [ ("detail", jstr detail) ]
  | Sta_disagreement { target_ps; iterations } ->
    [ ("target_ps", jfloat target_ps);
      ("iterations", string_of_int iterations) ]
  | Invalid_request detail -> [ ("detail", jstr detail) ]
  | Worker_crash { item; detail } ->
    [ ("item", string_of_int item); ("detail", jstr detail) ]
  | Lint_failed { netlist; diagnostics } ->
    [ ("netlist", jstr netlist);
      ( "diagnostics",
        "["
        ^ String.concat ","
            (List.map
               (fun (rule, loc, msg) ->
                 jobj
                   [ ("rule", jstr rule); ("loc", jstr loc);
                     ("message", jstr msg) ])
               diagnostics)
        ^ "]" ) ]
  | Bad_request { field; detail } ->
    (match field with Some f -> [ ("field", jstr f) ] | None -> [])
    @ [ ("detail", jstr detail) ]
  | Overloaded { queued; limit } ->
    [ ("queued", string_of_int queued); ("limit", string_of_int limit) ]

let to_json e =
  jobj
    [ ("code", jstr (code e)); ("message", jstr (to_string e));
      ("data", jobj (data_fields e)) ]
