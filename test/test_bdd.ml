(* Node functions as 0/1 ADDs: the Boolean binops against brute-force
   evaluation, canonicity, Boolean algebra laws, queries. *)

let mgr = Dd.Add.manager ()

let vars = 5

let zero = Util.of_bool mgr false
let one = Util.of_bool mgr true

let check_semantics e =
  let f = Util.add_of_expr mgr e in
  List.for_all
    (fun env -> Util.holds f env = Util.eval_expr env e)
    (Util.assignments vars)

let test_semantics =
  Util.qtest ~count:300 "bdd equals brute-force evaluation"
    (Util.expr_arbitrary ~vars) check_semantics

let test_canonicity =
  (* structurally different but equivalent expressions share the node *)
  Util.qtest ~count:200 "equivalent functions are physically equal"
    (QCheck.pair (Util.expr_arbitrary ~vars) (Util.expr_arbitrary ~vars))
    (fun (e1, e2) ->
      let f1 = Util.add_of_expr mgr e1 and f2 = Util.add_of_expr mgr e2 in
      let equivalent =
        List.for_all
          (fun env -> Util.eval_expr env e1 = Util.eval_expr env e2)
          (Util.assignments vars)
      in
      Dd.Add.equal f1 f2 = equivalent)

let unit_basics () =
  let x = Util.var mgr 0 and y = Util.var mgr 1 in
  let bnot = Dd.Add.bnot mgr in
  Alcotest.(check bool) "x and not x = 0" true
    (Dd.Add.equal zero (Util.band mgr x (bnot x)));
  Alcotest.(check bool) "x or not x = 1" true
    (Dd.Add.equal one (Util.bor mgr x (bnot x)));
  Alcotest.(check bool) "x xor x = 0" true
    (Dd.Add.equal zero (Util.bxor mgr x x));
  Alcotest.(check bool) "involution" true (Dd.Add.equal x (bnot (bnot x)));
  Alcotest.(check bool) "de morgan" true
    (Dd.Add.equal
       (bnot (Util.band mgr x y))
       (Util.bor mgr (bnot x) (bnot y)));
  Alcotest.(check bool) "terminal cases return an operand" true
    (Util.band mgr zero x == zero
    && Util.band mgr x one == x
    && Util.bor mgr one x == one
    && Util.bor mgr x zero == x
    && Util.bxor mgr zero x == x);
  Alcotest.(check bool) "not var is the negated projection" true
    (match bnot (Util.var mgr 3) with
    | Dd.Add.Node
        {
          var = 3;
          low = Dd.Add.Leaf { value = 1.0; _ };
          high = Dd.Add.Leaf { value = 0.0; _ };
          _;
        } ->
      true
    | _ -> false)

let test_sat_fraction =
  (* the uniform-input average of a 0/1 diagram is its satisfying
     fraction *)
  Util.qtest ~count:200 "sat_fraction equals counted fraction"
    (Util.expr_arbitrary ~vars)
    (fun e ->
      let f = Util.add_of_expr mgr e in
      let envs = Util.assignments vars in
      let count =
        List.length (List.filter (fun env -> Util.eval_expr env e) envs)
      in
      Util.close
        (float_of_int count /. float_of_int (List.length envs))
        (Dd.Markov.summary (Dd.Markov.view f)).Dd.Markov.avg.(0))

let unit_size () =
  let x = Util.var mgr 0 in
  Alcotest.(check int) "terminal size" 1 (Dd.Add.size one);
  Alcotest.(check int) "var size" 3 (Dd.Add.size x)

let unit_errors () =
  let f = Util.var mgr 7 in
  Alcotest.check_raises "short env"
    (Invalid_argument "Add.eval: environment too short") (fun () ->
      ignore (Dd.Add.eval f (Array.make 3 false)))

let unit_clear_caches () =
  let x = Util.var mgr 0 and y = Util.var mgr 1 in
  let before = Util.band mgr x y in
  Dd.Add.clear_caches mgr;
  let after = Util.band mgr x y in
  Alcotest.(check bool) "caches cleared, nodes stable" true
    (Dd.Add.equal before after)

let suite =
  [
    Alcotest.test_case "basic laws" `Quick unit_basics;
    Alcotest.test_case "size" `Quick unit_size;
    Alcotest.test_case "errors" `Quick unit_errors;
    Alcotest.test_case "clear caches" `Quick unit_clear_caches;
    test_semantics;
    test_canonicity;
    test_sat_fraction;
  ]
