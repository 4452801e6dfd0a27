(* Experiment harness: RE/ARE arithmetic, grid feasibility, report
   rendering, and a smoke run of each experiment at toy sizes. *)

let relative_error_cases () =
  Util.check_close "exact" 0.0
    (Experiments.Sweep.relative_error ~estimate:5.0 ~truth:5.0);
  Util.check_close "+100%" 1.0
    (Experiments.Sweep.relative_error ~estimate:10.0 ~truth:5.0);
  Util.check_close "-50%" (-0.5)
    (Experiments.Sweep.relative_error ~estimate:2.5 ~truth:5.0);
  Alcotest.(check bool) "zero truth" true
    (Experiments.Sweep.relative_error ~estimate:1.0 ~truth:0.0 = infinity);
  Util.check_close "both zero" 0.0
    (Experiments.Sweep.relative_error ~estimate:0.0 ~truth:0.0)

let grid_is_feasible () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "st feasible" true
        (p.Experiments.Sweep.st
        <= Stimulus.Generator.feasible_st ~sp:p.Experiments.Sweep.sp
             p.Experiments.Sweep.st
           +. 1e-9))
    Experiments.Sweep.default_grid;
  Alcotest.(check int) "grid size" 9
    (List.length Experiments.Sweep.default_grid)

let are_of_perfect_estimator_is_zero () =
  (* an exact model evaluated through the sweep machinery has ARE ~ 0 *)
  let circuit = Circuits.Decoder.decod () in
  let sim = Gatesim.Simulator.create circuit in
  let model = Powermodel.Model.build circuit in
  let results =
    Experiments.Sweep.run_grid ~vectors:300 ~seed:1 sim
      [ ("exact", Experiments.Estimator.Add_model model) ]
  in
  Util.check_close ~eps:1e-9 "ARE of exact model" 0.0
    (Experiments.Sweep.are_average results "exact");
  Util.check_close ~eps:1e-9 "max ARE of exact model" 0.0
    (Experiments.Sweep.are_maximum results "exact")

let constant_estimator_are () =
  (* a constant estimator equal to the run maximum everywhere has a known
     signed structure: are_constant_maximum compares against sim maxima *)
  let circuit = Circuits.Decoder.decod () in
  let sim = Gatesim.Simulator.create circuit in
  let results =
    Experiments.Sweep.run_grid ~vectors:200 ~seed:2 sim []
  in
  let value = 123.0 in
  let expected =
    List.fold_left
      (fun acc r ->
        acc
        +. Float.abs
             ((value -. r.Experiments.Sweep.sim_maximum)
             /. r.Experiments.Sweep.sim_maximum))
      0.0 results
    /. float_of_int (List.length results)
  in
  Util.check_close "constant maximum ARE" expected
    (Experiments.Sweep.are_constant_maximum results value)

let estimator_dispatch () =
  let circuit = Circuits.Decoder.decod () in
  let sim = Gatesim.Simulator.create circuit in
  let model = Powermodel.Model.build circuit in
  let prng = Stimulus.Prng.create 3 in
  let vectors =
    Stimulus.Generator.sequence prng ~bits:5 ~length:200 ~sp:0.5 ~st:0.5
  in
  let con = Powermodel.Baselines.characterize_con sim vectors in
  let add_est = Experiments.Estimator.Add_model model in
  let con_est = Experiments.Estimator.Characterized con in
  Alcotest.(check string) "names" "ADD" (Experiments.Estimator.name add_est);
  Alcotest.(check string) "names" "Con" (Experiments.Estimator.name con_est);
  let r = Experiments.Estimator.run add_est vectors in
  let srun = Gatesim.Simulator.run sim vectors in
  Util.check_close "exact estimator run = sim run"
    srun.Gatesim.Simulator.average r.Experiments.Estimator.average

let report_rendering () =
  let table =
    Experiments.Report.render
      ~header:[ "name"; "value" ]
      [ [ "a"; "1.0" ]; [ "bb"; "22.5" ] ]
  in
  Alcotest.(check bool) "has header" true
    (String.length table > 0
    &&
    let lines = String.split_on_char '\n' table in
    List.length lines >= 4);
  Alcotest.(check string) "pct" "12.5" (Experiments.Report.pct 0.125)

let fig7a_smoke () =
  let r =
    Experiments.Fig7a.run ~vectors:300 ~char_vectors:300 ~max_size:100
      ~sts:[ 0.2; 0.5; 0.8 ] ()
  in
  Alcotest.(check int) "rows" 3 (List.length r.Experiments.Fig7a.rows);
  Alcotest.(check string) "circuit" "cm85" r.Experiments.Fig7a.circuit;
  Alcotest.(check bool) "model bounded" true
    (r.Experiments.Fig7a.add_size <= 100);
  (* the report renders without raising *)
  Alcotest.(check bool) "report" true
    (String.length (Experiments.Report.fig7a r) > 0)

let fig7b_smoke () =
  let r =
    Experiments.Fig7b.run ~vectors:300 ~char_vectors:300 ~sizes:[ 5; 50 ] ()
  in
  Alcotest.(check int) "rows" 2 (List.length r.Experiments.Fig7b.rows);
  List.iter
    (fun (row : Experiments.Fig7b.row) ->
      Alcotest.(check bool) "bounded" true
        (row.Experiments.Fig7b.actual_size <= row.Experiments.Fig7b.max_size))
    r.Experiments.Fig7b.rows;
  (* more nodes should not be (much) less accurate: check weak monotonicity
     with generous slack, as runs are stochastic *)
  (match r.Experiments.Fig7b.rows with
  | [ small; large ] ->
    Alcotest.(check bool) "larger model not dramatically worse" true
      (large.Experiments.Fig7b.are
      <= (2.0 *. small.Experiments.Fig7b.are) +. 0.05)
  | _ -> ());
  Alcotest.(check bool) "report" true
    (String.length (Experiments.Report.fig7b r) > 0)

let table1_smoke () =
  let config =
    {
      Experiments.Table1.default_config with
      vectors = 200;
      char_vectors = 200;
    }
  in
  let rows = Experiments.Table1.run ~config ~names:[ "decod"; "x2" ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (row : Experiments.Table1.row) ->
      Alcotest.(check bool) "AREs finite" true
        (Float.is_finite row.Experiments.Table1.are_con
        && Float.is_finite row.Experiments.Table1.are_lin
        && Float.is_finite row.Experiments.Table1.are_add);
      (* the bound column must be conservative in sign: the ADD bound's
         run maximum is >= the simulated maximum, so its ARE is the mean
         over-estimation, which cannot be negative *)
      Alcotest.(check bool) "bound ARE >= 0" true
        (row.Experiments.Table1.are_add_ub >= 0.0))
    rows;
  Alcotest.(check bool) "report" true
    (String.length (Experiments.Report.table1 rows) > 0)

(* An unknown Table 1 name is a typed validation error naming the
   circuit and the valid ones — never a silently shorter table.  The
   durable runner fails the same way before any task starts. *)
let table1_unknown_names () =
  let expect_unknown label f =
    match f () with
    | _ -> Alcotest.failf "%s: unknown circuit accepted" label
    | exception Guard.Error.Guarded e ->
      Alcotest.(check string) (label ^ ": kind") "validation"
        (Guard.Error.kind_name e.Guard.Error.kind);
      Alcotest.(check (option string)) (label ^ ": circuit") (Some "typo")
        (Guard.Error.context_value e "circuit");
      Alcotest.(check bool) (label ^ ": lists the valid names") true
        (match Guard.Error.context_value e "valid" with
        | Some v ->
          List.for_all
            (fun n -> List.mem n (String.split_on_char ' ' v))
            Circuits.Suite.names
        | None -> false)
  in
  expect_unknown "selected" (fun () ->
      Experiments.Table1.selected (Some [ "cm85"; "typo" ]));
  expect_unknown "durable" (fun () ->
      Experiments.Durable.table1 ~names:[ "typo" ] ());
  Alcotest.(check (list string)) "known names keep their order"
    [ "cm85"; "decod" ]
    (List.map
       (fun e -> e.Circuits.Suite.name)
       (Experiments.Table1.selected (Some [ "cm85"; "decod" ])))

let suite =
  [
    Alcotest.test_case "relative error" `Quick relative_error_cases;
    Alcotest.test_case "grid feasibility" `Quick grid_is_feasible;
    Alcotest.test_case "exact estimator has zero ARE" `Quick
      are_of_perfect_estimator_is_zero;
    Alcotest.test_case "constant maximum ARE" `Quick constant_estimator_are;
    Alcotest.test_case "estimator dispatch" `Quick estimator_dispatch;
    Alcotest.test_case "report rendering" `Quick report_rendering;
    Alcotest.test_case "fig7a smoke" `Slow fig7a_smoke;
    Alcotest.test_case "fig7b smoke" `Slow fig7b_smoke;
    Alcotest.test_case "table1 smoke" `Slow table1_smoke;
    Alcotest.test_case "table1 rejects unknown names" `Quick
      table1_unknown_names;
  ]
