(* BDD package: semantics against brute-force evaluation, canonicity,
   Boolean algebra laws, queries. *)

let mgr = Dd.Bdd.manager ()

let vars = 5

let check_semantics e =
  let f = Util.bdd_of_expr mgr e in
  List.for_all
    (fun env -> Dd.Bdd.eval f env = Util.eval_expr env e)
    (Util.assignments vars)

let test_semantics =
  Util.qtest ~count:300 "bdd equals brute-force evaluation"
    (Util.expr_arbitrary ~vars) check_semantics

let test_canonicity =
  (* structurally different but equivalent expressions share the node *)
  Util.qtest ~count:200 "equivalent functions are physically equal"
    (QCheck.pair (Util.expr_arbitrary ~vars) (Util.expr_arbitrary ~vars))
    (fun (e1, e2) ->
      let f1 = Util.bdd_of_expr mgr e1 and f2 = Util.bdd_of_expr mgr e2 in
      let equivalent =
        List.for_all
          (fun env -> Util.eval_expr env e1 = Util.eval_expr env e2)
          (Util.assignments vars)
      in
      Dd.Bdd.equal f1 f2 = equivalent)

let unit_basics () =
  let x = Dd.Bdd.var mgr 0 and y = Dd.Bdd.var mgr 1 in
  Alcotest.(check bool) "x and not x = 0" true
    (Dd.Bdd.is_false (Dd.Bdd.band mgr x (Dd.Bdd.bnot mgr x)));
  Alcotest.(check bool) "x or not x = 1" true
    (Dd.Bdd.is_true (Dd.Bdd.bor mgr x (Dd.Bdd.bnot mgr x)));
  Alcotest.(check bool) "x xor x = 0" true
    (Dd.Bdd.is_false (Dd.Bdd.bxor mgr x x));
  Alcotest.(check bool) "involution" true
    (Dd.Bdd.equal x (Dd.Bdd.bnot mgr (Dd.Bdd.bnot mgr x)));
  Alcotest.(check bool) "de morgan" true
    (Dd.Bdd.equal
       (Dd.Bdd.bnot mgr (Dd.Bdd.band mgr x y))
       (Dd.Bdd.bor mgr (Dd.Bdd.bnot mgr x) (Dd.Bdd.bnot mgr y)));
  Alcotest.(check bool) "not var is the negated projection" true
    (match Dd.Bdd.bnot mgr (Dd.Bdd.var mgr 3) with
    | Dd.Bdd.Node { var = 3; low = Dd.Bdd.True; high = Dd.Bdd.False; _ } ->
      true
    | _ -> false)

let test_sat_fraction =
  Util.qtest ~count:200 "sat_fraction equals counted fraction"
    (Util.expr_arbitrary ~vars)
    (fun e ->
      let f = Util.bdd_of_expr mgr e in
      let envs = Util.assignments vars in
      let count =
        List.length (List.filter (fun env -> Util.eval_expr env e) envs)
      in
      Util.close
        (float_of_int count /. float_of_int (List.length envs))
        (Dd.Bdd.sat_fraction f))

let unit_size () =
  let x = Dd.Bdd.var mgr 0 in
  Alcotest.(check int) "terminal size" 1 (Dd.Bdd.size Dd.Bdd.one);
  Alcotest.(check int) "var size" 3 (Dd.Bdd.size x)

let unit_errors () =
  Alcotest.check_raises "negative var" (Invalid_argument "Bdd.var: negative variable")
    (fun () -> ignore (Dd.Bdd.var mgr (-1)));
  let f = Dd.Bdd.var mgr 7 in
  Alcotest.check_raises "short env"
    (Invalid_argument "Bdd.eval: environment too short") (fun () ->
      ignore (Dd.Bdd.eval f (Array.make 3 false)))

let unit_clear_caches () =
  let x = Dd.Bdd.var mgr 0 and y = Dd.Bdd.var mgr 1 in
  let before = Dd.Bdd.band mgr x y in
  Dd.Bdd.clear_caches mgr;
  let after = Dd.Bdd.band mgr x y in
  Alcotest.(check bool) "caches cleared, nodes stable" true
    (Dd.Bdd.equal before after)

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
