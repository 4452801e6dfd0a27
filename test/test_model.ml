(* The core contribution: model construction, exactness, approximation,
   bounds, baselines and composition, all validated against the golden
   simulator. *)

(* Fig. 2 circuit with the paper's capacitances. *)
let fig2 () =
  let b = Netlist.Builder.create ~name:"fig2" in
  let x1 = Netlist.Builder.input b "x1" in
  let x2 = Netlist.Builder.input b "x2" in
  let g1 = Netlist.Builder.not_ b x1 in
  let g2 = Netlist.Builder.not_ b x2 in
  let g3 = Netlist.Builder.or2 b x1 x2 in
  Netlist.Builder.output b "g1" g1;
  Netlist.Builder.output b "g2" g2;
  Netlist.Builder.output b "g3" g3;
  let c = Netlist.Builder.finish b in
  let loads = Array.make c.Netlist.Circuit.net_count 0.0 in
  loads.(g1) <- 40.0;
  loads.(g2) <- 50.0;
  loads.(g3) <- 10.0;
  (c, loads)

let paper_fig3_model () =
  let c, loads = fig2 () in
  let model = Powermodel.Model.build ~loads c in
  Alcotest.(check bool) "exact" true (Powermodel.Model.is_exact model);
  (* Ex. 1 / Fig. 3b: C(11 -> 00) = 90 *)
  Util.check_close "C(11,00)" 90.0
    (Powermodel.Model.switched_capacitance model ~x_i:[| true; true |]
       ~x_f:[| false; false |]);
  Util.check_close "C(00,00)" 0.0
    (Powermodel.Model.switched_capacitance model ~x_i:[| false; false |]
       ~x_f:[| false; false |]);
  Util.check_close "C(00,01)" 10.0
    (Powermodel.Model.switched_capacitance model ~x_i:[| false; false |]
       ~x_f:[| false; true |]);
  (* Fig. 4a: average of the whole ADD is the uniform expectation *)
  let all = Util.assignments 2 in
  let expected_avg =
    List.fold_left
      (fun acc x_i ->
        List.fold_left
          (fun acc x_f ->
            acc +. Powermodel.Model.switched_capacitance model ~x_i ~x_f)
          acc all)
      0.0 all
    /. 16.0
  in
  Util.check_close "uniform average" expected_avg
    (Powermodel.Model.average_capacitance model);
  Util.check_close "max capacitance" 90.0
    (Powermodel.Model.max_capacitance model)

(* The headline invariant: the exact model reproduces the zero-delay
   gate-level simulation pattern by pattern, for ANY circuit. *)
let exact_model_matches_simulator_exhaustive () =
  List.iter
    (fun circuit ->
      let sim = Gatesim.Simulator.create circuit in
      let model = Powermodel.Model.build circuit in
      Alcotest.(check bool) "exact" true (Powermodel.Model.is_exact model);
      let n = Netlist.Circuit.input_count circuit in
      List.iter
        (fun x_i ->
          List.iter
            (fun x_f ->
              let truth = Gatesim.Simulator.switched_capacitance sim x_i x_f in
              let est =
                Powermodel.Model.switched_capacitance model ~x_i ~x_f
              in
              if not (Util.close truth est) then
                Alcotest.failf "%s mismatch: %.3f vs %.3f"
                  circuit.Netlist.Circuit.name truth est)
            (Util.assignments n))
        (Util.assignments n))
    [
      Circuits.Decoder.decod ();
      Circuits.Adder.circuit ~bits:2;
      Util.small_random_circuit 1;
      Util.small_random_circuit 2;
    ]

let exact_model_matches_simulator_random =
  Util.qtest ~count:20 "exact model == simulator on random circuits"
    (QCheck.make (QCheck.Gen.int_bound 1000) ~print:string_of_int)
    (fun seed ->
      let circuit = Util.small_random_circuit seed in
      let sim = Gatesim.Simulator.create circuit in
      let model = Powermodel.Model.build circuit in
      let prng = Stimulus.Prng.create (seed + 1) in
      let n = Netlist.Circuit.input_count circuit in
      let ok = ref true in
      for _ = 1 to 100 do
        let x_i = Array.init n (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
        let x_f = Array.init n (fun _ -> Stimulus.Prng.bool prng ~p:0.3) in
        if
          not
            (Util.close
               (Gatesim.Simulator.switched_capacitance sim x_i x_f)
               (Powermodel.Model.switched_capacitance model ~x_i ~x_f))
        then ok := false
      done;
      !ok)

let bounded_model_respects_max () =
  List.iter
    (fun max_size ->
      let model =
        Powermodel.Model.build ~max_size (Circuits.Comparator.cm85 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "size %d <= %d" (Powermodel.Model.size model) max_size)
        true
        (Powermodel.Model.size model <= max_size))
    [ 10; 50; 500 ]

let upper_bound_conservative_exhaustive () =
  List.iter
    (fun circuit ->
      let sim = Gatesim.Simulator.create circuit in
      let n = Netlist.Circuit.input_count circuit in
      List.iter
        (fun max_size ->
          let bound = Powermodel.Bounds.build ~max_size circuit in
          List.iter
            (fun x_i ->
              List.iter
                (fun x_f ->
                  let truth =
                    Gatesim.Simulator.switched_capacitance sim x_i x_f
                  in
                  let b =
                    Powermodel.Model.switched_capacitance bound ~x_i ~x_f
                  in
                  if b +. 1e-9 < truth then
                    Alcotest.failf "%s bound violated: %.2f < %.2f (MAX %d)"
                      circuit.Netlist.Circuit.name b truth max_size)
                (Util.assignments n))
            (Util.assignments n))
        [ 5; 50; 10000 ])
    [ Circuits.Decoder.decod (); Util.small_random_circuit 3 ]

let lower_bound_conservative () =
  let circuit = Util.small_random_circuit 4 in
  let sim = Gatesim.Simulator.create circuit in
  let n = Netlist.Circuit.input_count circuit in
  let lower =
    Powermodel.Model.build ~strategy:Dd.Approx.Lower_bound ~max_size:10 circuit
  in
  List.iter
    (fun x_i ->
      List.iter
        (fun x_f ->
          let truth = Gatesim.Simulator.switched_capacitance sim x_i x_f in
          let b = Powermodel.Model.switched_capacitance lower ~x_i ~x_f in
          if b -. 1e-9 > truth then Alcotest.failf "lower bound violated")
        (Util.assignments n))
    (Util.assignments n)

let constant_bound_covers_exhaustive_worst_case () =
  let circuit = Circuits.Alu.alu2 () in
  let sim = Gatesim.Simulator.create circuit in
  let bound = Powermodel.Bounds.build ~max_size:500 circuit in
  let worst = Gatesim.Simulator.worst_case_capacitance_exhaustive sim in
  Alcotest.(check bool) "constant bound >= true worst case" true
    (Powermodel.Bounds.constant_bound bound +. 1e-9 >= worst)

let bounds_validate_ok () =
  let circuit = Circuits.Comparator.cm85 () in
  let sim = Gatesim.Simulator.create circuit in
  let bound = Powermodel.Bounds.build ~max_size:500 circuit in
  let prng = Stimulus.Prng.create 5 in
  let vectors =
    Stimulus.Generator.sequence prng ~bits:11 ~length:3000 ~sp:0.5 ~st:0.5
  in
  (match Powermodel.Bounds.validate bound sim vectors with
  | Ok () -> ()
  | Error (k, b, t) ->
    Alcotest.failf "bound violated at %d: %.2f < %.2f" k b t);
  Alcotest.(check bool) "slack positive" true
    (Powermodel.Bounds.average_slack bound sim vectors >= 0.0);
  Alcotest.(check bool) "is upper bound model" true
    (Powermodel.Bounds.is_upper_bound_model bound)

let model_run_matches_pointwise () =
  let circuit = Circuits.Decoder.decod () in
  let model = Powermodel.Model.build circuit in
  let prng = Stimulus.Prng.create 6 in
  let vectors =
    Stimulus.Generator.sequence prng ~bits:5 ~length:100 ~sp:0.5 ~st:0.5
  in
  let run = Powermodel.Model.run model vectors in
  let mutable_total = ref 0.0 in
  for k = 1 to 99 do
    mutable_total :=
      !mutable_total
      +. Powermodel.Model.switched_capacitance model ~x_i:vectors.(k - 1)
           ~x_f:vectors.(k)
  done;
  Util.check_close "run total" !mutable_total run.Powermodel.Model.total;
  Alcotest.(check int) "patterns" 99 run.Powermodel.Model.patterns

let energy_scaling () =
  let c, loads = fig2 () in
  let model = Powermodel.Model.build ~loads c in
  Util.check_close "energy"
    (2.0 *. 2.0 *. 90.0)
    (Powermodel.Model.energy ~vdd:2.0 model ~x_i:[| true; true |]
       ~x_f:[| false; false |])

let model_width_guard () =
  let c, loads = fig2 () in
  let model = Powermodel.Model.build ~loads c in
  Alcotest.check_raises "width"
    (Invalid_argument "Model.switched_capacitance: input width mismatch")
    (fun () ->
      ignore
        (Powermodel.Model.switched_capacitance model ~x_i:[| true |]
           ~x_f:[| false |]))

let dot_output () =
  let c, loads = fig2 () in
  let model = Powermodel.Model.build ~loads c in
  let dot = Powermodel.Model.to_dot model in
  Alcotest.(check bool) "dot has digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  Alcotest.(check string) "var names" "x0_i" (Powermodel.Model.var_name model 0);
  Alcotest.(check string) "var names" "x1_f" (Powermodel.Model.var_name model 3)

(* ---- baselines ---- *)

let con_is_sample_mean () =
  let circuit = Circuits.Parity.parity () in
  let sim = Gatesim.Simulator.create circuit in
  let prng = Stimulus.Prng.create 8 in
  let vectors =
    Stimulus.Generator.sequence prng ~bits:16 ~length:500 ~sp:0.5 ~st:0.5
  in
  let run = Gatesim.Simulator.run sim vectors in
  match Powermodel.Baselines.characterize_con sim vectors with
  | Powermodel.Baselines.Con { value } ->
    Util.check_close "con = mean" run.Gatesim.Simulator.average value
  | Powermodel.Baselines.Lin _ -> Alcotest.fail "expected Con"

let lin_fits_linear_circuit () =
  (* a bank of independent buffers has exactly linear switching cost, so
     the linear model must fit it (near) perfectly in-sample *)
  let b = Netlist.Builder.create ~name:"bufbank" in
  let ins = Netlist.Builder.inputs b "x" 6 in
  Array.iteri
    (fun i x ->
      Netlist.Builder.output b (Printf.sprintf "y%d" i) (Netlist.Builder.buf b x))
    ins;
  let circuit = Netlist.Builder.finish b in
  let sim = Gatesim.Simulator.create circuit in
  let prng = Stimulus.Prng.create 9 in
  let vectors =
    Stimulus.Generator.sequence prng ~bits:6 ~length:2000 ~sp:0.5 ~st:0.5
  in
  let lin = Powermodel.Baselines.characterize_lin sim vectors in
  let prng2 = Stimulus.Prng.create 10 in
  for _ = 1 to 200 do
    let x_i = Array.init 6 (fun _ -> Stimulus.Prng.bool prng2 ~p:0.5) in
    let x_f = Array.init 6 (fun _ -> Stimulus.Prng.bool prng2 ~p:0.5) in
    let truth = Gatesim.Simulator.switched_capacitance sim x_i x_f in
    let est = Powermodel.Baselines.estimate lin ~x_i ~x_f in
    (* buffers rise on half the toggles on average; the linear-in-toggle
       model can capture rises only up to a factor, so allow slack *)
    if Float.abs (est -. truth) > 40.0 then
      Alcotest.failf "lin far off: %.1f vs %.1f" est truth
  done

let lin_features () =
  let f =
    Powermodel.Baselines.transition_features [| true; false |] [| true; true |]
  in
  Alcotest.(check (array (float 1e-9))) "features" [| 1.0; 0.0; 1.0 |] f

(* ---- composition ---- *)

let compose_sums_parts () =
  let c1 = Circuits.Decoder.decod () in
  let c2 = Circuits.Parity.tree ~bits:5 ~name:"p5" () in
  let m1 = Powermodel.Bounds.build c1 in
  let m2 = Powermodel.Bounds.build c2 in
  let design =
    Powermodel.Compose.create ~system_inputs:5
      [
        Powermodel.Compose.instance ~label:"dec" ~model:m1
          ~input_map:[| 0; 1; 2; 3; 4 |];
        Powermodel.Compose.instance ~label:"par" ~model:m2
          ~input_map:[| 4; 3; 2; 1; 0 |];
      ]
  in
  let prng = Stimulus.Prng.create 11 in
  for _ = 1 to 100 do
    let x_i = Array.init 5 (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
    let x_f = Array.init 5 (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
    let total = Powermodel.Compose.estimate design ~x_i ~x_f in
    let parts = Powermodel.Compose.per_instance design ~x_i ~x_f in
    let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 parts in
    Util.check_close "sum of parts" sum total
  done;
  (* the pattern-dependent bound can never exceed the constant-sum bound *)
  let cb = Powermodel.Compose.constant_bound design in
  for _ = 1 to 100 do
    let x_i = Array.init 5 (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
    let x_f = Array.init 5 (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
    Alcotest.(check bool) "pattern bound <= constant bound" true
      (Powermodel.Compose.estimate design ~x_i ~x_f <= cb +. 1e-9)
  done

let compose_guards () =
  let m = Powermodel.Bounds.build (Circuits.Decoder.decod ()) in
  Alcotest.check_raises "width"
    (Invalid_argument "Compose.instance: input map width must match model inputs")
    (fun () ->
      ignore
        (Powermodel.Compose.instance ~label:"bad" ~model:m ~input_map:[| 0 |]));
  Alcotest.check_raises "range"
    (Invalid_argument
       "Compose.create: instance bad reads system input 9 of 5") (fun () ->
      ignore
        (Powermodel.Compose.create ~system_inputs:5
           [
             Powermodel.Compose.instance ~label:"bad" ~model:m
               ~input_map:[| 0; 1; 2; 3; 9 |];
           ]))

(* --- Resource-governed construction. --- *)

let resource_kind e =
  Alcotest.(check string) "resource kind" "resource"
    (Guard.Error.kind_name e.Guard.Error.kind)

let budget_hard_failure_keeps_partial_stats () =
  let circuit = Circuits.Decoder.decod () in
  let budget = Guard.Budget.create ~node_ceiling:1 () in
  match Powermodel.Model.build_checked ~budget ~max_size:200 circuit with
  | Ok _ -> Alcotest.fail "a 1-node ceiling cannot be satisfiable"
  | Error { Powermodel.Model.error; partial } ->
    resource_kind error;
    Alcotest.(check (option string))
      "circuit context" (Some "decod")
      (Guard.Error.context_value error "circuit");
    let s = Option.get partial in
    Alcotest.(check bool) "aborted before the end" true
      (s.Powermodel.Model.gates_done < s.Powermodel.Model.gates);
    Alcotest.(check bool) "tried to degrade first" true
      (s.Powermodel.Model.degrade_steps > 0);
    (* the exception carries the same payload as the checked API *)
    (match Powermodel.Model.build ~budget ~max_size:200 circuit with
    | exception Powermodel.Model.Build_aborted (e, s') ->
      resource_kind e;
      Alcotest.(check int) "same abort point" s.Powermodel.Model.gates_done
        s'.Powermodel.Model.gates_done
    | _ -> Alcotest.fail "build must raise Build_aborted");
    (* and of_exn recovers the structured error for isolation boundaries *)
    (match Guard.Error.of_exn (Powermodel.Model.Build_aborted (error, s)) with
    | e -> resource_kind e)

let budget_degrades_before_failing () =
  let circuit = Circuits.Decoder.decod () in
  let reference = Powermodel.Model.build ~max_size:200 circuit in
  let bdd_nodes = reference.Powermodel.Model.stats.bdd_nodes in
  (* a ceiling just above the node functions' live working set, which no
     collapse can shrink: the accumulator must degrade (halve its
     effective MAX) but can still finish *)
  let budget = Guard.Budget.create ~node_ceiling:(bdd_nodes + 60) () in
  let model = Powermodel.Model.build ~budget ~max_size:200 circuit in
  let s = model.Powermodel.Model.stats in
  Alcotest.(check int) "all gates accumulated" s.Powermodel.Model.gates
    s.Powermodel.Model.gates_done;
  Alcotest.(check bool) "degradation happened" true
    (s.Powermodel.Model.degrade_steps > 0);
  Alcotest.(check bool) "wall clock measured" true
    (s.Powermodel.Model.wall_seconds >= 0.0);
  (* a degraded model is still a model: finite estimates of sane sign *)
  Alcotest.(check bool) "still usable" true
    (Powermodel.Model.average_capacitance model >= 0.0)

let budget_collapse_ceiling () =
  (* a tiny MAX forces many ordinary clamping collapses; the ceiling
     turns the second one into exhaustion at the next checkpoint *)
  let circuit = Circuits.Decoder.decod () in
  let unbudgeted = Powermodel.Model.build ~max_size:8 circuit in
  Alcotest.(check bool) "premise: several collapses happen" true
    (unbudgeted.Powermodel.Model.stats.approx_calls > 1);
  let budget = Guard.Budget.create ~collapse_ceiling:1 () in
  match Powermodel.Model.build_checked ~budget ~max_size:8 circuit with
  | Ok _ -> Alcotest.fail "collapse ceiling must abort the build"
  | Error { Powermodel.Model.error; _ } -> resource_kind error

let budget_expired_deadline () =
  let circuit = Circuits.Decoder.decod () in
  let budget = Guard.Budget.create ~wall_seconds:0.0 () in
  match Powermodel.Model.build_checked ~budget circuit with
  | Ok _ -> Alcotest.fail "an expired deadline must abort the build"
  | Error { Powermodel.Model.error; partial } ->
    resource_kind error;
    Alcotest.(check bool) "partial stats present" true (partial <> None)

let build_checked_validation () =
  let circuit = Circuits.Decoder.decod () in
  match
    Powermodel.Model.build_checked ~loads:[| 1.0 |] circuit
  with
  | Ok _ -> Alcotest.fail "short loads array must be rejected"
  | Error { Powermodel.Model.error; partial } ->
    Alcotest.(check string) "validation kind" "validation"
      (Guard.Error.kind_name error.Guard.Error.kind);
    Alcotest.(check bool) "no partial stats" true (partial = None)

(* A load scales a 0/1 node function by multiplication, so only finite,
   non-negative loads are physical: anything else is a validation error. *)
let build_rejects_bad_loads () =
  let c, loads = fig2 () in
  let expect_validation what result =
    match result with
    | Ok _ -> Alcotest.failf "%s must be rejected" what
    | Error { Powermodel.Model.error; partial } ->
      Alcotest.(check string) (what ^ ": validation kind") "validation"
        (Guard.Error.kind_name error.Guard.Error.kind);
      Alcotest.(check bool) (what ^ ": no partial stats") true (partial = None)
  in
  List.iter
    (fun (what, bad) ->
      let l = Array.copy loads in
      l.(Array.length l - 1) <- bad;
      expect_validation ("load " ^ what)
        (Powermodel.Model.build_checked ~loads:l c);
      expect_validation ("output_load " ^ what)
        (Powermodel.Model.build_checked ~output_load:bad c))
    [ ("-1", -1.0); ("nan", Float.nan); ("inf", Float.infinity);
      ("-inf", Float.neg_infinity) ];
  match Powermodel.Model.build_checked ~loads ~output_load:0.0 c with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "zero and positive loads are valid"

let suite =
  [
    Alcotest.test_case "paper Fig. 3 model" `Quick paper_fig3_model;
    Alcotest.test_case "budget hard failure" `Quick
      budget_hard_failure_keeps_partial_stats;
    Alcotest.test_case "budget degrades first" `Quick
      budget_degrades_before_failing;
    Alcotest.test_case "budget collapse ceiling" `Quick budget_collapse_ceiling;
    Alcotest.test_case "budget expired deadline" `Quick budget_expired_deadline;
    Alcotest.test_case "build_checked validation" `Quick
      build_checked_validation;
    Alcotest.test_case "build rejects bad loads" `Quick
      build_rejects_bad_loads;
    Alcotest.test_case "exact == simulator (exhaustive)" `Slow
      exact_model_matches_simulator_exhaustive;
    Alcotest.test_case "bounded model respects MAX" `Quick
      bounded_model_respects_max;
    Alcotest.test_case "upper bound conservative (exhaustive)" `Slow
      upper_bound_conservative_exhaustive;
    Alcotest.test_case "lower bound conservative" `Quick lower_bound_conservative;
    Alcotest.test_case "constant bound covers worst case" `Quick
      constant_bound_covers_exhaustive_worst_case;
    Alcotest.test_case "bounds validate on random runs" `Quick bounds_validate_ok;
    Alcotest.test_case "run matches pointwise" `Quick model_run_matches_pointwise;
    Alcotest.test_case "energy scaling" `Quick energy_scaling;
    Alcotest.test_case "width guard" `Quick model_width_guard;
    Alcotest.test_case "dot output" `Quick dot_output;
    Alcotest.test_case "Con is the sample mean" `Quick con_is_sample_mean;
    Alcotest.test_case "Lin fits a linear circuit" `Quick lin_fits_linear_circuit;
    Alcotest.test_case "Lin features" `Quick lin_features;
    Alcotest.test_case "composition sums parts" `Quick compose_sums_parts;
    Alcotest.test_case "composition guards" `Quick compose_guards;
    exact_model_matches_simulator_random;
  ]
