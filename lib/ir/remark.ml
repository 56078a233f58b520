(** Optimization remarks: structured reports of what a transformation did
    ([Passed]), declined to do and why ([Missed]), or learned about the
    payload ([Analysis]) — LLVM's [-Rpass]/[-Rpass-missed] family, with the
    payload {!Loc.t} attribution and structured key/value arguments of the
    serialized remark format.

    Remarks are notes in the ambient {!Action} context ({!Action.remark}),
    next to the trace events and the journal of the actions that produced
    them. Emission sites guard message formatting behind
    {!Action.enabled} so the disabled path allocates nothing. *)

type kind = Passed | Missed | Analysis

type arg = Int of int | Float of float | String of string

type t = {
  r_kind : kind;
  r_pass : string;  (** the transform/pass that reports, e.g. [loop-tile] *)
  r_loc : Loc.t;  (** location of the payload op the remark is about *)
  r_message : string;
  r_args : (string * arg) list;  (** structured key/value arguments *)
}

let kind_to_string = function
  | Passed -> "passed"
  | Missed -> "missed"
  | Analysis -> "analysis"

let kind_of_string = function
  | "passed" -> Some Passed
  | "missed" -> Some Missed
  | "analysis" -> Some Analysis
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let make ?(loc = Loc.Unknown) ?(args = []) kind ~pass fmt =
  Fmt.kstr
    (fun m ->
      { r_kind = kind; r_pass = pass; r_loc = loc; r_message = m; r_args = args })
    fmt

let passed ?loc ?args ~pass fmt = make ?loc ?args Passed ~pass fmt
let missed ?loc ?args ~pass fmt = make ?loc ?args Missed ~pass fmt
let analysis ?loc ?args ~pass fmt = make ?loc ?args Analysis ~pass fmt

(* ------------------------------------------------------------------ *)
(* Filtering                                                           *)
(* ------------------------------------------------------------------ *)

(** Parse a comma-separated kind list ("passed,missed"; "all" or the empty
    string select every kind). Unknown segments are reported as [Error]. *)
let kinds_of_string s =
  let segs =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if segs = [] || List.mem "all" segs then Ok [ Passed; Missed; Analysis ]
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | seg :: rest -> (
        match kind_of_string seg with
        | Some k -> go (k :: acc) rest
        | None -> Error (Fmt.str "unknown remark kind %S" seg))
    in
    go [] segs

(** [matches ?kinds ?filter r]: [r] has one of [kinds] (all, when omitted)
    and [filter] (a {!Str} regexp) matches its pass name or message. *)
let matches ?kinds ?filter r =
  (match kinds with None -> true | Some ks -> List.mem r.r_kind ks)
  && (match filter with
     | None -> true
     | Some re -> (
       let found s =
         try
           ignore (Str.search_forward re s 0);
           true
         with Not_found -> false
       in
       found r.r_pass || found r.r_message))

let filter ?kinds ?filter:re remarks =
  List.filter (fun r -> matches ?kinds ?filter:re r) remarks

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_arg fmt (k, v) =
  match v with
  | Int n -> Fmt.pf fmt "%s=%d" k n
  | Float f -> Fmt.pf fmt "%s=%g" k f
  | String s -> Fmt.pf fmt "%s=%s" k s

let pp fmt r =
  Fmt.pf fmt "remark[%s] %s: %s" (kind_to_string r.r_kind) r.r_pass r.r_message;
  (match r.r_args with
  | [] -> ()
  | args -> Fmt.pf fmt " {%a}" (Fmt.list ~sep:(Fmt.any ", ") pp_arg) args);
  match r.r_loc with
  | Loc.Unknown -> ()
  | l -> Fmt.pf fmt " at %a" Loc.pp l

let to_string r = Fmt.str "%a" pp r

let arg_to_json = function
  | Int n -> Json.Int n
  | Float f -> Json.Float f
  | String s -> Json.String s

let to_json r =
  Json.Obj
    ([
       ("kind", Json.String (kind_to_string r.r_kind));
       ("pass", Json.String r.r_pass);
     ]
    @ (match r.r_loc with
      | Loc.Unknown -> []
      | l -> [ ("loc", Json.String (Loc.to_string l)) ])
    @ [ ("message", Json.String r.r_message) ]
    @
    match r.r_args with
    | [] -> []
    | args ->
      [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) args)) ])
