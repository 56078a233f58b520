(** Insertion points for IR construction, mirroring MLIR's [OpBuilder]
    insertion point; {!Rewriter} holds one and builds ops there. *)

type ip =
  | Detached  (** ops are built without being inserted *)
  | At_end of Ircore.block
  | At_start of Ircore.block
  | Before of Ircore.op
  | After of Ircore.op
