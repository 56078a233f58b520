(** Rewrite patterns and a process-wide registry of named patterns.

    A pattern matches a root op and, if applicable, rewrites it through the
    given {!Rewriter} and returns [true]. Patterns carry a benefit used by
    the greedy driver to order attempts, and may be restricted to a root op
    name for cheap filtering — mirroring MLIR's [RewritePattern]. *)

type t = {
  name : string;  (** unique pattern name, e.g. ["arith.addi_zero"] *)
  benefit : int;
  root : string option;  (** op name filter; [None] matches any op *)
  rewrite : Rewriter.t -> Ircore.op -> bool;
}

let make ?(benefit = 1) ?root ~name rewrite = { name; benefit; root; rewrite }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(** Named pattern registry: lets the Transform dialect reference individual
    patterns by name inside [transform.apply_patterns] regions (Case Study 3)
    and lets passes assemble pattern sets declaratively. *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 64

let register p =
  if Hashtbl.mem registry p.name then
    invalid_arg (Fmt.str "pattern %s already registered" p.name);
  Hashtbl.replace registry p.name p

let register_make ?benefit ?root ~name rewrite =
  register (make ?benefit ?root ~name rewrite)

let lookup name = Hashtbl.find_opt registry name

let lookup_exn name =
  match lookup name with
  | Some p -> p
  | None -> invalid_arg (Fmt.str "unknown pattern %s" name)
