type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

module Json = Smart_util.Json

let float_to_string = Json.number

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f ->
      if Float.is_finite f then Buffer.add_string b (float_to_string f)
      else Buffer.add_string b "null"
    | Str s ->
      Buffer.add_char b '"';
      Json.escape_into b s;
      Buffer.add_char b '"'
    | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        xs;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Json.escape_into b k;
          Buffer.add_string b "\":";
          go x)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of int * string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (!pos, msg)) in
  let skip_ws () =
    while
      !pos < n
      && match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match input.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let utf8_add b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match input.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         match input.[!pos] with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'u' ->
           advance ();
           utf8_add b (hex4 ())
         | _ -> fail "unknown escape");
        loop ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char b c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char input.[!pos] do
      advance ()
    done;
    let s = String.sub input start (!pos - start) in
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> f
    | _ ->
      pos := start;
      fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        items_loop ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 2. ** 53. ->
    Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
