(** A minimal JSON representation used by the diagnostics/trace renderers.

    Deliberately dependency-free: the observability layer must be available
    in every build configuration, so this module provides just enough JSON —
    a value type, a serializer and a strict parser (used by the end-to-end
    tests to validate the machine-readable output of [otd-opt]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec pp fmt = function
  | Null -> Fmt.string fmt "null"
  | Bool b -> Fmt.bool fmt b
  | Int n -> Fmt.int fmt n
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Fmt.pf fmt "%.1f" f
    else Fmt.pf fmt "%.17g" f
  | String s -> Fmt.pf fmt "\"%s\"" (escape_string s)
  | List xs ->
    Fmt.pf fmt "[@[<hv>%a@]]" (Fmt.list ~sep:(Fmt.any ",@ ") pp) xs
  | Obj kvs ->
    let member fmt (k, v) =
      Fmt.pf fmt "\"%s\":@ %a" (escape_string k) pp v
    in
    Fmt.pf fmt "{@[<hv>%a@]}" (Fmt.list ~sep:(Fmt.any ",@ ") member) kvs

let to_string j = Fmt.str "%a" pp j

(** Compact single-line rendering — for JSONL outputs (one value per
    line), where the pretty-printer's line breaks would corrupt framing. *)
let to_line j =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf "\":";
          go v)
        kvs;
      Buffer.add_char buf '}'
  in
  go j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string * int

let parse (src : string) : (t, string) result =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub src !pos m = word then begin
      pos := !pos + m;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match src.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match src.[!pos] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape";
               let hex = String.sub src (!pos + 1) 4 in
               (match int_of_string_opt ("0x" ^ hex) with
               | None -> fail "invalid \\u escape"
               | Some cp ->
                 (* encode the code point as UTF-8 *)
                 if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
                 else if cp < 0x800 then begin
                   Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                   Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                 end
                 else begin
                   Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                   Buffer.add_char buf
                     (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                   Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                 end);
               pos := !pos + 4
             | c -> fail (Printf.sprintf "invalid escape '\\%c'" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub src start (!pos - start) in
    match int_of_string_opt text with
    | Some v -> Int v
    | None -> (
      match float_of_string_opt text with
      | Some v -> Float v
      | None -> fail "invalid number")
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
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, at) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors (for tests and light consumers)                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_list = function List xs -> Some xs | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int n -> Some n | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None

(** [member] chained through an optional value — for nested lookups like
    [obj |> get "error" |> get "class"]. *)
let get key = function None -> None | Some j -> member key j
