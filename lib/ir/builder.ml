(** Insertion-point based IR construction, mirroring MLIR's [OpBuilder]. *)

type ip =
  | Detached  (** builder creates ops without inserting them *)
  | At_end of Ircore.block
  | At_start of Ircore.block
  | Before of Ircore.op
  | After of Ircore.op

type t = { mutable ip : ip }

let create ?(ip = Detached) () = { ip }
let before op = { ip = Before op }
let after op = { ip = After op }

let set_ip t ip = t.ip <- ip
let ip t = t.ip

let insert t op =
  (match t.ip with
  | Detached -> ()
  | At_end b -> Ircore.insert_at_end b op
  | At_start b -> Ircore.insert_at_start b op
  | Before anchor -> Ircore.insert_before ~anchor op
  | After anchor ->
    Ircore.insert_after ~anchor op;
    (* keep building after the op we just created *)
    t.ip <- After op);
  op

(** Create an op and insert it at the current insertion point. *)
let build t ?operands ?result_types ?attrs ?regions ?successors ?loc name =
  insert t (Ircore.create ?operands ?result_types ?attrs ?regions ?successors ?loc name)

(** Like {!build} but returns the single result value. *)
let build1 t ?operands ?result_types ?attrs ?regions ?successors ?loc name =
  Ircore.result (build t ?operands ?result_types ?attrs ?regions ?successors ?loc name)
