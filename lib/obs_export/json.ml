type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg pos))

(* Recursive-descent parser over (string, position ref). *)

let skip_ws s pos =
  let n = String.length s in
  while
    !pos < n
    && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr pos
  done

let expect s pos c =
  if !pos >= String.length s || s.[!pos] <> c then
    fail !pos (Printf.sprintf "expected %C" c);
  incr pos

let utf8_of_code b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
  end

let parse_string s pos =
  expect s pos '"';
  let b = Buffer.create 16 in
  let n = String.length s in
  let rec go () =
    if !pos >= n then fail !pos "unterminated string";
    match s.[!pos] with
    | '"' -> incr pos
    | '\\' ->
        incr pos;
        if !pos >= n then fail !pos "unterminated escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            if !pos + 4 >= n then fail !pos "truncated \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code -> utf8_of_code b code
            | None -> fail !pos "bad \\u escape");
            pos := !pos + 4
        | c -> fail !pos (Printf.sprintf "bad escape \\%c" c));
        incr pos;
        go ()
    | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number s pos =
  let start = !pos in
  let n = String.length s in
  let num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while !pos < n && num_char s.[!pos] do
    incr pos
  done;
  match float_of_string_opt (String.sub s start (!pos - start)) with
  | Some f -> f
  | None -> fail start "bad number"

let parse_literal s pos lit v =
  let n = String.length lit in
  if !pos + n <= String.length s && String.sub s !pos n = lit then begin
    pos := !pos + n;
    v
  end
  else fail !pos ("expected " ^ lit)

let rec parse_value s pos =
  skip_ws s pos;
  if !pos >= String.length s then fail !pos "unexpected end of input";
  match s.[!pos] with
  | '"' -> Str (parse_string s pos)
  | '{' ->
      incr pos;
      skip_ws s pos;
      if !pos < String.length s && s.[!pos] = '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let members = ref [] in
        let rec go () =
          skip_ws s pos;
          let key = parse_string s pos in
          skip_ws s pos;
          expect s pos ':';
          let v = parse_value s pos in
          members := (key, v) :: !members;
          skip_ws s pos;
          if !pos < String.length s && s.[!pos] = ',' then begin
            incr pos;
            go ()
          end
          else expect s pos '}'
        in
        go ();
        Obj (List.rev !members)
      end
  | '[' ->
      incr pos;
      skip_ws s pos;
      if !pos < String.length s && s.[!pos] = ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec go () =
          let v = parse_value s pos in
          items := v :: !items;
          skip_ws s pos;
          if !pos < String.length s && s.[!pos] = ',' then begin
            incr pos;
            go ()
          end
          else expect s pos ']'
        in
        go ();
        Arr (List.rev !items)
      end
  | 't' -> parse_literal s pos "true" (Bool true)
  | 'f' -> parse_literal s pos "false" (Bool false)
  | 'n' -> parse_literal s pos "null" Null
  | _ -> Num (parse_number s pos)

let parse s =
  let pos = ref 0 in
  let v = parse_value s pos in
  skip_ws s pos;
  if !pos <> String.length s then fail !pos "trailing garbage";
  v

let parse_many s =
  let pos = ref 0 in
  let values = ref [] in
  skip_ws s pos;
  while !pos < String.length s do
    values := parse_value s pos :: !values;
    skip_ws s pos
  done;
  List.rev !values

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_num = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_arr = function Arr l -> Some l | _ -> None
let to_obj = function Obj m -> Some m | _ -> None

let quote s = "\"" ^ Zipchannel_obs.Obs.json_escape s ^ "\""

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f ->
      if Float.is_nan f || Float.abs f = Float.infinity then
        Buffer.add_char b '0'
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.0f" f)
      else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s -> Buffer.add_string b (quote s)
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        items;
      Buffer.add_char b ']'
  | Obj members ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (quote k);
          Buffer.add_char b ':';
          write b v)
        members;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b
