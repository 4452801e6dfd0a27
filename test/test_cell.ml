(* Cell library: arities, names, truth tables over both logic carriers. *)

let all_defined () =
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Netlist.Cell.name kind ^ " valid") true (Netlist.Cell.valid kind);
      Alcotest.(check bool)
        (Netlist.Cell.name kind ^ " cap sane")
        true
        (Netlist.Cell.input_cap kind >= 0.0))
    Netlist.Cell.all_kinds

let name_roundtrip () =
  List.iter
    (fun kind ->
      match Netlist.Cell.of_name (Netlist.Cell.name kind) with
      | Some k -> Alcotest.(check bool) "roundtrip" true (k = kind)
      | None -> Alcotest.failf "of_name failed for %s" (Netlist.Cell.name kind))
    Netlist.Cell.all_kinds;
  Alcotest.(check bool) "unknown name" true
    (Netlist.Cell.of_name "frobnicator" = None)

let reference_eval kind ins =
  let open Netlist.Cell in
  match kind with
  | Const b -> b
  | Buf -> ins.(0)
  | Inv -> not ins.(0)
  | And _ -> Array.for_all Fun.id ins
  | Nand _ -> not (Array.for_all Fun.id ins)
  | Or _ -> Array.exists Fun.id ins
  | Nor _ -> not (Array.exists Fun.id ins)
  | Xor -> ins.(0) <> ins.(1)
  | Xnor -> ins.(0) = ins.(1)
  | Mux -> if ins.(2) then ins.(1) else ins.(0)

let truth_tables () =
  List.iter
    (fun kind ->
      let arity = Netlist.Cell.arity kind in
      List.iter
        (fun ins ->
          Alcotest.(check bool)
            (Printf.sprintf "%s%s" (Netlist.Cell.name kind)
               (String.concat ""
                  (List.map (fun b -> if b then "1" else "0")
                     (Array.to_list ins))))
            (reference_eval kind ins)
            (Netlist.Cell.eval_bool kind ins))
        (Util.assignments arity))
    Netlist.Cell.all_kinds

(* The generic evaluator must agree across carriers: evaluate over 0/1
   ADDs, then evaluate the diagram — same as evaluating over booleans
   directly. *)
let bdd_consistency () =
  let mgr = Dd.Add.manager () in
  let logic = Util.add_logic mgr in
  List.iter
    (fun kind ->
      let arity = Netlist.Cell.arity kind in
      let sym =
        Netlist.Cell.eval logic kind (Array.init arity (Util.var mgr))
      in
      List.iter
        (fun ins ->
          Alcotest.(check bool)
            (Netlist.Cell.name kind ^ " bdd agrees")
            (Netlist.Cell.eval_bool kind ins)
            (Util.holds sym ins))
        (Util.assignments arity))
    Netlist.Cell.all_kinds

let arity_mismatch () =
  Alcotest.check_raises "too few inputs"
    (Invalid_argument "Cell.eval: and2 expects 2 inputs, got 1") (fun () ->
      ignore (Netlist.Cell.eval_bool (Netlist.Cell.And 2) [| true |]))

let invalid_cells () =
  Alcotest.(check bool) "and5 invalid" false
    (Netlist.Cell.valid (Netlist.Cell.And 5));
  Alcotest.(check bool) "nor1 invalid" false
    (Netlist.Cell.valid (Netlist.Cell.Nor 1))

let suite =
  [
    Alcotest.test_case "library is well-formed" `Quick all_defined;
    Alcotest.test_case "name round trip" `Quick name_roundtrip;
    Alcotest.test_case "truth tables" `Quick truth_tables;
    Alcotest.test_case "bdd carrier consistency" `Quick bdd_consistency;
    Alcotest.test_case "arity mismatch raises" `Quick arity_mismatch;
    Alcotest.test_case "invalid cells rejected" `Quick invalid_cells;
  ]
