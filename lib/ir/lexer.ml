(** Hand-written lexer for the generic MLIR textual format.

    The lexer is pull-based with one token of lookahead. The current token
    lives in mutable fields of {!t} — its kind, its span in the source and,
    for numbers, its value — so scanning punctuation, identifiers and
    decimal integers allocates nothing. Identifiers the parser only
    compares against keywords are matched against the source in place
    ({!ident_is}); only text the parser keeps is copied out ({!text}).

    The lexer also exposes *raw mode* access to the underlying characters.
    Raw mode is needed to lex dimension lists such as [4x?xf32] inside
    shaped types, where [x] acts as a separator — mirroring how MLIR's own
    parser switches lexing modes inside [tensor<...>]. *)

type kind =
  | INT
  | FLOATLIT
  | STRING
  | IDENT  (** bare identifier, including keywords *)
  | PCT_IDENT  (** [%foo] *)
  | CARET_IDENT  (** [^bb0] *)
  | AT_IDENT  (** [@foo] *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | LT
  | GT
  | COMMA
  | COLON
  | DCOLON  (** [::] *)
  | EQUAL
  | ARROW  (** [->] *)
  | QUESTION
  | STAR
  | PLUS
  | MINUS
  | HASH  (** [#] *)
  | BANG  (** [!] *)
  | EOF

(** Name of a token kind in "expected ..." diagnostics. *)
let kind_name = function
  | INT -> "integer"
  | FLOATLIT -> "float"
  | STRING -> "string"
  | IDENT -> "identifier"
  | PCT_IDENT -> "%identifier"
  | CARET_IDENT -> "^identifier"
  | AT_IDENT -> "@identifier"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LT -> "<"
  | GT -> ">"
  | COMMA -> ","
  | COLON -> ":"
  | DCOLON -> "::"
  | EQUAL -> "="
  | ARROW -> "->"
  | QUESTION -> "?"
  | STAR -> "*"
  | PLUS -> "+"
  | MINUS -> "-"
  | HASH -> "#"
  | BANG -> "!"
  | EOF -> "<eof>"

exception Error of string * int (* message, offset *)

(* ---------------------------------------------------------------- *)
(* Tables keyed by a span of the source                              *)
(* ---------------------------------------------------------------- *)

(** A hash table keyed by a span of a string. Neither a probe nor an
    insertion copies the span: an entry's key is the span of the string it
    was added with, so that string must not change while the table lives
    (the parser's keys are spans of its immutable source). *)
module Span_table = struct
  type 'a bucket =
    | Empty
    | Entry of {
        src : string;
        off : int;
        len : int;  (** the key is [src.[off .. off + len - 1]] *)
        hash : int;  (** of the key, so a resize never rehashes *)
        value : 'a;
        mutable next : 'a bucket;
      }

  type 'a t = {
    mutable buckets : 'a bucket array;  (** length a power of 2 *)
    mutable size : int;
  }

  (** A table of [n] buckets, [n] a power of 2; it doubles as it fills. *)
  let create n = { buckets = Array.make n Empty; size = 0 }

  (* FNV-1a over the bytes of the span *)
  let rec hash_bytes s stop h i =
    if i < stop then
      hash_bytes s stop
        ((h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3)
        (i + 1)
    else h land max_int

  let hash_span s off len = hash_bytes s (off + len) 0x3f29ce484222325 off

  let rec chars_match a aoff b boff i len =
    i = len
    || String.unsafe_get a (aoff + i) = String.unsafe_get b (boff + i)
       && chars_match a aoff b boff (i + 1) len

  let key_matches key s off len =
    String.length key = len && chars_match key 0 s off 0 len

  let rec find_in h s off len = function
    | Empty -> raise Not_found
    | Entry e ->
      if e.hash = h && e.len = len && chars_match e.src e.off s off 0 len
      then e.value
      else find_in h s off len e.next

  (** The value bound to [s.[off .. off + len - 1]], whose {!hash_span}
      is [h]; raises [Not_found]. *)
  let find_hashed t h s off len =
    find_in h s off len t.buckets.(h land (Array.length t.buckets - 1))

  let rec relink buckets = function
    | Empty -> ()
    | Entry e as entry ->
      let rest = e.next in
      let i = e.hash land (Array.length buckets - 1) in
      e.next <- buckets.(i);
      buckets.(i) <- entry;
      relink buckets rest

  (** Bind [src.[off .. off + len - 1]], whose {!hash_span} is [h] and
      which must not be bound yet, to [value]. *)
  let add t h src off len value =
    if t.size >= Array.length t.buckets then begin
      let old = t.buckets in
      t.buckets <- Array.make (2 * Array.length old) Empty;
      Array.iter (relink t.buckets) old
    end;
    let i = h land (Array.length t.buckets - 1) in
    t.buckets.(i) <-
      Entry { src; off; len; hash = h; value; next = t.buckets.(i) };
    t.size <- t.size + 1

  (** [f src off len value] for each binding of the key
      [src.[off .. off + len - 1]]. *)
  let rec iter_bucket f = function
    | Empty -> ()
    | Entry e ->
      f e.src e.off e.len e.value;
      iter_bucket f e.next

  let iter f t = Array.iter (iter_bucket f) t.buckets
end

(* ---------------------------------------------------------------- *)
(* Lexer state                                                       *)
(* ---------------------------------------------------------------- *)

type t = {
  src : string;
  mutable pos : int;
      (** end of the text consumed so far; the lookahead token, when
          scanned, starts at or after it *)
  mutable ready : bool;  (** the token fields below describe the lookahead *)
  mutable kind : kind;
  mutable start : int;  (** the lookahead's span is [[start, stop)] *)
  mutable stop : int;
  mutable int_value : int;  (** value of an [INT] token *)
  mutable float_value : float;  (** value of a [FLOATLIT] token *)
  mutable escaped : bool;  (** a [STRING] token holds a backslash escape *)
  types : Typ.t Span_table.t;
  dicts : Attr.dict Span_table.t;
      (** the parser's per-parse memo of types and attribute dictionaries,
          keyed by their source text (see [Parser.parse_type]) *)
  names : string Span_table.t;
      (** op names by their quoted spelling: the ops of one name share one
          string *)
}

let create src =
  {
    src;
    pos = 0;
    ready = false;
    kind = EOF;
    start = 0;
    stop = 0;
    int_value = 0;
    float_value = 0.0;
    escaped = false;
    types = Span_table.create 64;
    dicts = Span_table.create 16;
    names = Span_table.create 16;
  }

(* The character classes run once per character of every name, so they
   are inlined: as calls they took a quarter of the lexing time. *)
let[@inline] is_id_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let[@inline] is_digit c = c >= '0' && c <= '9'

(** Characters after the first of a bare identifier. *)
let[@inline] is_ident_char c = is_id_start c || is_digit c || c = '.'

(** Characters of a [%], [^] or [@] suffix identifier. *)
let[@inline] is_id_char c = is_ident_char c || c = '-' || c = '$'

let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(** Line/column of an offset, for diagnostics. *)
let line_col t off =
  let line = ref 1 and col = ref 1 in
  for i = 0 to min (off - 1) (String.length t.src - 1) do
    if t.src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

let rec skip_ws_from src pos =
  let n = String.length src in
  if pos >= n then pos
  else
    match src.[pos] with
    | ' ' | '\t' | '\n' | '\r' -> skip_ws_from src (pos + 1)
    | '/' when pos + 1 < n && src.[pos + 1] = '/' ->
      let rec eol p = if p >= n || src.[p] = '\n' then p else eol (p + 1) in
      skip_ws_from src (eol (pos + 2))
    | _ -> pos

let rec ident_end src p =
  if p < String.length src && is_ident_char src.[p] then ident_end src (p + 1)
  else p

let rec suffix_id_end src p =
  if p < String.length src && is_id_char src.[p] then suffix_id_end src (p + 1)
  else p

(** End of the identifier after a [%], [^], [@] sigil at [pos - 1]. *)
let scan_suffix_id src pos =
  let stop = suffix_id_end src pos in
  if stop = pos then raise (Error ("expected identifier", pos));
  stop

(* ---------------------------------------------------------------- *)
(* Token scanning                                                    *)
(* ---------------------------------------------------------------- *)

let set t kind stop =
  t.kind <- kind;
  t.stop <- stop

(* value of the digits [src.[p .. stop - 1]], or -1 if one is not a
   decimal digit *)
let rec decimal src stop p acc =
  if p = stop then acc
  else if is_digit src.[p] then
    decimal src stop (p + 1) ((acc * 10) + Char.code src.[p] - 48)
  else -1

(* decimal literals of up to 18 digits cannot overflow an OCaml int, so
   their value is read in place; longer and hex literals go through
   [int_of_string], which also detects overflow *)
let set_int t pos stop =
  let src = t.src in
  let neg = src.[pos] = '-' in
  let dstart = if neg then pos + 1 else pos in
  let magnitude =
    if stop - dstart <= 18 then decimal src stop dstart 0 else -1
  in
  let v =
    if magnitude >= 0 then if neg then -magnitude else magnitude
    else
      match int_of_string_opt (String.sub src pos (stop - pos)) with
      | Some v -> v
      | None -> raise (Error ("integer literal out of range", pos))
  in
  t.int_value <- v;
  set t INT stop

let set_float t pos stop =
  match float_of_string_opt (String.sub t.src pos (stop - pos)) with
  | Some v ->
    t.float_value <- v;
    set t FLOATLIT stop
  | None -> raise (Error ("invalid numeric literal", pos))

(* the end of the run of digits (hex digits) of [src] from [p], short of
   [n]; top level, so that scanning a number allocates nothing *)
let rec digits_end src n p =
  if p < n && is_digit src.[p] then digits_end src n (p + 1) else p

let rec hex_end src n p =
  if p < n && is_hex src.[p] then hex_end src n (p + 1) else p

let scan_number t pos =
  let src = t.src in
  let n = String.length src in
  (* [pos] may sit on a '-' sign: the sign must be part of the literal so
     that min_int (the memref dynamic-dim sentinel) round-trips — its
     magnitude alone does not fit in an OCaml int *)
  let dstart = if pos < n && src.[pos] = '-' then pos + 1 else pos in
  if
    dstart + 1 < n
    && src.[dstart] = '0'
    && (src.[dstart + 1] = 'x' || src.[dstart + 1] = 'X')
  then begin
    (* hex integer or hex float *)
    let p1 = hex_end src n (dstart + 2) in
    let is_float =
      (p1 < n && src.[p1] = '.')
      || (p1 < n && (src.[p1] = 'p' || src.[p1] = 'P'))
    in
    if not is_float then set_int t pos p1
    else begin
      let p2 = if p1 < n && src.[p1] = '.' then hex_end src n (p1 + 1) else p1 in
      let p3 =
        if p2 < n && (src.[p2] = 'p' || src.[p2] = 'P') then begin
          let p = p2 + 1 in
          let p = if p < n && (src.[p] = '+' || src.[p] = '-') then p + 1 else p in
          let stop = digits_end src n p in
          (* exponent marker without digits is not part of the literal *)
          if stop = p then p2 else stop
        end
        else p2
      in
      set_float t pos p3
    end
  end
  else begin
    let p1 = digits_end src n dstart in
    let has_frac = p1 < n && src.[p1] = '.' && p1 + 1 < n && is_digit src.[p1 + 1] in
    let p2 = if has_frac then digits_end src n (p1 + 1) else p1 in
    let p3 =
      if p2 < n && (src.[p2] = 'e' || src.[p2] = 'E') then begin
        let p = p2 + 1 in
        let p = if p < n && (src.[p] = '+' || src.[p] = '-') then p + 1 else p in
        let stop = digits_end src n p in
        (* "9E" / "9e+" are the integer/fraction followed by an identifier *)
        if stop = p then p2 else stop
      end
      else p2
    in
    if p3 > p1 then set_float t pos p3 else set_int t pos p1
  end

(* a string literal from the '"' at [pos] to its closing quote; the
   contents are decoded only when the parser asks for them *)
let rec scan_string t pos p escaped =
  let src = t.src in
  if p >= String.length src then raise (Error ("unterminated string", pos + 1))
  else
    match src.[p] with
    | '"' ->
      t.escaped <- escaped;
      set t STRING (p + 1)
    | '\\' when p + 1 < String.length src -> scan_string t pos (p + 2) true
    | _ -> scan_string t pos (p + 1) escaped

let scan t =
  let src = t.src in
  let n = String.length src in
  let pos = skip_ws_from src t.pos in
  t.start <- pos;
  (if pos >= n then set t EOF pos
   else
     match src.[pos] with
     | '(' -> set t LPAREN (pos + 1)
     | ')' -> set t RPAREN (pos + 1)
     | '{' -> set t LBRACE (pos + 1)
     | '}' -> set t RBRACE (pos + 1)
     | '[' -> set t LBRACKET (pos + 1)
     | ']' -> set t RBRACKET (pos + 1)
     | '<' -> set t LT (pos + 1)
     | '>' -> set t GT (pos + 1)
     | ',' -> set t COMMA (pos + 1)
     | '=' -> set t EQUAL (pos + 1)
     | '?' -> set t QUESTION (pos + 1)
     | '*' -> set t STAR (pos + 1)
     | '+' -> set t PLUS (pos + 1)
     | '#' -> set t HASH (pos + 1)
     | '!' -> set t BANG (pos + 1)
     | ':' ->
       if pos + 1 < n && src.[pos + 1] = ':' then set t DCOLON (pos + 2)
       else set t COLON (pos + 1)
     | '-' ->
       if pos + 1 < n && src.[pos + 1] = '>' then set t ARROW (pos + 2)
       else if
         pos + 1 < n
         && (is_digit src.[pos + 1]
            || (pos + 2 < n && src.[pos + 1] = '.' && is_digit src.[pos + 2]))
       then scan_number t pos
       else set t MINUS (pos + 1)
     | '"' -> scan_string t pos (pos + 1) false
     | '%' -> set t PCT_IDENT (scan_suffix_id src (pos + 1))
     | '^' -> set t CARET_IDENT (scan_suffix_id src (pos + 1))
     | '@' -> set t AT_IDENT (scan_suffix_id src (pos + 1))
     | c when is_digit c -> scan_number t pos
     | c when is_id_start c -> set t IDENT (ident_end src pos)
     | c -> raise (Error (Fmt.str "unexpected character %C" c, pos)));
  t.ready <- true

(* ---------------------------------------------------------------- *)
(* The lookahead token                                               *)
(* ---------------------------------------------------------------- *)

let peek t =
  if not t.ready then scan t;
  t.kind

(** [peek t == k], without polymorphic comparison. *)
let at t k = peek t == k

let token_start t =
  if not t.ready then scan t;
  t.start

let token_stop t =
  if not t.ready then scan t;
  t.stop

let source t = t.src

let advance t =
  if not t.ready then scan t;
  t.pos <- t.stop;
  t.ready <- false

(** The lookahead is the identifier [s], compared in place. *)
let ident_is t s =
  peek t == IDENT
  && t.stop - t.start = String.length s
  && Span_table.key_matches s t.src t.start (t.stop - t.start)

(** Width [N] of an [iN] identifier lookahead, or [-1]. *)
let int_type_width t =
  if peek t != IDENT || t.stop - t.start < 2 || t.src.[t.start] <> 'i' then -1
  else begin
    let rec go p acc =
      if p = t.stop then acc
      else if is_digit t.src.[p] && acc < 1 lsl 40 then
        go (p + 1) ((acc * 10) + Char.code t.src.[p] - 48)
      else -1
    in
    go (t.start + 1) 0
  end

let decode_string src start stop =
  let buf = Buffer.create (stop - start) in
  let rec go p =
    if p < stop then
      match src.[p] with
      | '\\' ->
        Buffer.add_char buf
          (match src.[p + 1] with
          | 'n' -> '\n'
          | 't' -> '\t'
          | 'r' -> '\r'
          | '0' -> '\000'
          | c -> c);
        go (p + 2)
      | c ->
        Buffer.add_char buf c;
        go (p + 1)
  in
  go start;
  Buffer.contents buf

(** Text of an identifier or string lookahead: the identifier without its
    sigil, or the decoded string contents. *)
let text t =
  match peek t with
  | STRING ->
    if t.escaped then decode_string t.src (t.start + 1) (t.stop - 1)
    else String.sub t.src (t.start + 1) (t.stop - t.start - 2)
  | PCT_IDENT | CARET_IDENT | AT_IDENT ->
    String.sub t.src (t.start + 1) (t.stop - t.start - 1)
  | _ -> String.sub t.src t.start (t.stop - t.start)

(** The lookahead as diagnostics name it: "integer 5", "identifier foo",
    "%x", "(" and so on. *)
let describe t =
  match peek t with
  | INT -> Fmt.str "integer %d" t.int_value
  | FLOATLIT -> Fmt.str "float %g" t.float_value
  | STRING -> Fmt.str "string %S" (text t)
  | IDENT -> "identifier " ^ text t
  | PCT_IDENT -> "%" ^ text t
  | CARET_IDENT -> "^" ^ text t
  | AT_IDENT -> "@" ^ text t
  | k -> kind_name k

(* ---------------------------------------------------------------- *)
(* Type spans                                                        *)
(* ---------------------------------------------------------------- *)

(* The bracket scans below stop at [lim], at most [max_memo_span] past
   the lookahead: real type spellings stay under 100 characters, and the
   cap keeps the scans linear in the input even on text built to defeat
   them (an unclosed bracket, or a "->" in an opaque body). A longer span
   parses without the memo. *)
let max_memo_span = 512

let rec close_paren src lim p depth =
  if p >= lim then -1
  else
    match src.[p] with
    | '(' -> close_paren src lim (p + 1) (depth + 1)
    | ')' ->
      if depth = 1 then p + 1 else close_paren src lim (p + 1) (depth - 1)
    | _ -> close_paren src lim (p + 1) depth

(* raw bodies of [!dialect<...>] count every angle bracket, as the
   parser's raw loop does; builtin bodies skip the '>' of "->" *)
let rec close_angle ~raw src lim p depth =
  if p >= lim then -1
  else
    match src.[p] with
    | '<' -> close_angle ~raw src lim (p + 1) (depth + 1)
    | '>' when raw || src.[p - 1] <> '-' ->
      if depth = 1 then p + 1 else close_angle ~raw src lim (p + 1) (depth - 1)
    | _ -> close_angle ~raw src lim (p + 1) depth

let with_body ~raw src lim q =
  let r = skip_ws_from src q in
  if r < lim && src.[r] = '<' then close_angle ~raw src lim (r + 1) 1
  else q

let non_function_extent src lim p =
  if p >= lim then -1
  else if src.[p] = '!' then
    let q = ident_end src (p + 1) in
    if q = p + 1 then -1 else with_body ~raw:true src lim q
  else if is_id_start src.[p] then
    with_body ~raw:false src lim (ident_end src p)
  else -1

let memo_limit t start = min (String.length t.src) (start + max_memo_span)

(** End offset of the type spelled at the lookahead, found by scanning
    characters without building anything, or [-1] when the text does not
    look like a type or runs past {!max_memo_span}. It stops where
    [Parser.parse_type] stops: after a maximal identifier, after the
    [<...>] body an identifier or [!dialect] type may carry (across
    whitespace, as the parser's lookahead does), after the matching [)] of
    a function type's inputs and its result. The parser memoizes types by
    this span and checks, before recording, that the parse consumed
    exactly it. *)
let type_extent t =
  let src = t.src in
  let start = token_start t in
  let lim = memo_limit t start in
  let stop =
    if start < lim && src.[start] = '(' then begin
      let q = close_paren src lim (start + 1) 1 in
      let q = if q < 0 then q else skip_ws_from src q in
      if q >= 0 && q + 1 < lim && src.[q] = '-' && src.[q + 1] = '>' then
        let r = skip_ws_from src (q + 2) in
        if r < lim && src.[r] = '(' then close_paren src lim (r + 1) 1
        else non_function_extent src lim r
      else -1
    end
    else non_function_extent src lim start
  in
  if stop > lim then -1 else stop

(* from just after a '"' to just after its closing quote, or -1 *)
let rec close_string src lim p =
  if p >= lim then -1
  else
    match src.[p] with
    | '"' -> p + 1
    | '\\' -> close_string src lim (p + 2)
    | _ -> close_string src lim (p + 1)

let rec close_brace src lim p depth =
  if p < 0 || p >= lim then -1
  else
    match src.[p] with
    | '{' -> close_brace src lim (p + 1) (depth + 1)
    | '}' ->
      if depth = 1 then p + 1 else close_brace src lim (p + 1) (depth - 1)
    | '"' -> close_brace src lim (close_string src lim (p + 1)) depth
    | _ -> close_brace src lim (p + 1) depth

(** End offset of the attribute dictionary [{...}] at the lookahead, or
    [-1] (also past {!max_memo_span}). Braces inside string literals do
    not count. *)
let dict_extent t =
  let start = token_start t in
  let lim = memo_limit t start in
  if start < lim && t.src.[start] = '{' then close_brace t.src lim (start + 1) 1
  else -1

(** [parse t], memoized in [table] by the source text from the lookahead
    to [stop]. A hit jumps the cursor to [stop]; a miss parses and records
    the result if the parse consumed exactly that text. A negative [stop]
    parses without the memo. The caller must ensure that a parse reads
    nothing past the text it consumes, so that equal text parses equal. *)
let memoized t table stop parse =
  let start = token_start t in
  if stop < 0 then parse t
  else
    let h = Span_table.hash_span t.src start (stop - start) in
    match Span_table.find_hashed table h t.src start (stop - start) with
    | v ->
      t.pos <- stop;
      t.ready <- false;
      v
    | exception Not_found ->
      let v = parse t in
      if t.pos = stop then Span_table.add table h t.src start (stop - start) v;
      v

(* ---------------------------------------------------------------- *)
(* Raw mode: character-level access for dimension lists              *)
(* ---------------------------------------------------------------- *)

(** Enter raw mode: un-memoize the lookahead (if any), positioning the cursor
    just before it, skipping leading whitespace. *)
let enter_raw t =
  if t.ready then begin
    t.pos <- t.start;
    t.ready <- false
  end;
  t.pos <- skip_ws_from t.src t.pos

let raw_peek_char t =
  if t.pos < String.length t.src then Some t.src.[t.pos] else None

let raw_advance_char t = t.pos <- t.pos + 1

(** Lex the dimension-list prefix of a shaped type body: a (possibly empty)
    sequence of [<dim>x] items where dim is an integer, [?] or [*]. Returns
    the dims; the cursor is positioned at the element type. [*x] yields
    [`Unranked]. *)
let raw_dimension_list t =
  enter_raw t;
  let src = t.src in
  let n = String.length src in
  let dims = ref [] in
  let unranked = ref false in
  let continue_ = ref true in
  while !continue_ do
    let p = t.pos in
    if p < n && src.[p] = '?' && p + 1 < n && src.[p + 1] = 'x' then begin
      dims := Typ.Dynamic :: !dims;
      t.pos <- p + 2
    end
    else if p < n && src.[p] = '*' && p + 1 < n && src.[p + 1] = 'x' then begin
      unranked := true;
      t.pos <- p + 2
    end
    else if p < n && is_digit src.[p] then begin
      let rec digits q = if q < n && is_digit src.[q] then digits (q + 1) else q in
      let stop = digits p in
      if stop < n && src.[stop] = 'x' then begin
        (match int_of_string_opt (String.sub src p (stop - p)) with
        | Some d -> dims := Typ.Static d :: !dims
        | None -> raise (Error ("dimension out of range", p)));
        t.pos <- stop + 1
      end
      else continue_ := false
    end
    else continue_ := false
  done;
  if !unranked then `Unranked else `Ranked (List.rev !dims)
