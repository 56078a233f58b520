(** Crash-reproducer files: the one header format every writer shares and
    the reader that replays it.

    A reproducer is a [// title] line, one [// key: value] line per note
    (each flattened to a single line), then the module text. The lexer
    skips [//] comments, so the file re-parses as the module; a
    {!pipeline_note} in the header lets [otd-opt FILE] replay the failing
    pipeline with no [-p]. *)

let oneline s = String.map (function '\n' | '\r' -> ' ' | c -> c) s
let pipeline_prefix = "configuration: --pass-pipeline="

(** The note that embeds [pipeline] for replay. *)
let pipeline_note pipeline = pipeline_prefix ^ pipeline

(** The reproducer text: [// title], each of [notes] as a one-line [//]
    comment, then [body] and a final newline. *)
let text ~title notes body =
  String.concat ""
    (List.map (fun line -> "// " ^ oneline line ^ "\n") (title :: notes)
    @ [ body; "\n" ])

let write ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(** The pipeline of the first {!pipeline_note} in the leading [//] comment
    block of [src], if any. *)
let pipeline src =
  let marker = "// " ^ pipeline_prefix in
  let rec scan = function
    | [] -> None
    | line :: rest ->
      let line = String.trim line in
      if String.starts_with ~prefix:marker line then
        let n = String.length marker in
        Some (String.sub line n (String.length line - n))
      else if String.starts_with ~prefix:"//" line then scan rest
      else None
  in
  scan (String.split_on_char '\n' src)
