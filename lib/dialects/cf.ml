(** The cf dialect: classical unstructured control flow. *)

open Ir

let br_op = "cf.br"
let cond_br_op = "cf.cond_br"
let switch_op = "cf.switch"
let assert_op = "cf.assert"

let cond_segments op =
  match Ircore.attr op "operand_segment_sizes" with
  | Some (Attr.Int_array [ c; t; f ]) -> (c, t, f)
  | _ -> (1, Ircore.num_operands op - 1, 0)

let branch_like : Context.branch_like =
  {
    Context.br_successor_operands =
      (fun op succ_index ->
        match op.Ircore.op_name with
        | "cf.br" -> Ircore.operands op
        | "cf.cond_br" ->
          let _, t, f = cond_segments op in
          let ops = Array.of_list (Ircore.operands op) in
          if succ_index = 0 then Array.to_list (Array.sub ops 1 t)
          else Array.to_list (Array.sub ops (1 + t) f)
        | _ -> []);
  }

let register ctx =
  let ifaces =
    Util.Univ.add Context.branch_like_key branch_like Util.Univ.empty
  in
  Context.register_op ctx br_op ~summary:"unconditional branch"
    ~traits:[ Context.Terminator ] ~interfaces:ifaces;
  Context.register_op ctx cond_br_op ~summary:"conditional branch"
    ~traits:[ Context.Terminator ] ~interfaces:ifaces
    ~verify:(Verifier.expect_min_operands 1);
  Context.register_op ctx switch_op ~summary:"multiway branch"
    ~traits:[ Context.Terminator ];
  Context.register_op ctx assert_op ~summary:"runtime assertion"
    ~verify:(Verifier.expect_operands 1)

let br rw ~dest ?(args = []) () =
  Rewriter.build0 rw ~operands:(Array.of_list args) ~successors:[| dest |]
    br_op

let cond_br rw ~cond ~true_dest ?(true_args = []) ~false_dest
    ?(false_args = []) () =
  Rewriter.build0 rw
    ~operands:(Array.of_list ((cond :: true_args) @ false_args))
    ~successors:[| true_dest; false_dest |]
    ~attrs:
      [
        ( "operand_segment_sizes",
          Attr.Int_array [ 1; List.length true_args; List.length false_args ] );
      ]
    cond_br_op
