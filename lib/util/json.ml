let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let quote s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_char b '"';
  escape_into b s;
  Buffer.add_char b '"';
  Buffer.contents b

(* %.15g suffices for most values, %.17g always does. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
