(* Cross-cutting tests: variable mapping, DOT export, composition vs
   monolithic models, report rendering details. *)

let vars_mapping () =
  Alcotest.(check int) "initial" 6 (Powermodel.Vars.initial 3);
  Alcotest.(check int) "final" 7 (Powermodel.Vars.final 3);
  Alcotest.(check int) "count" 8 (Powermodel.Vars.count ~inputs:4);
  let env =
    Powermodel.Vars.env ~x_i:[| true; false |] ~x_f:[| false; true |]
  in
  Alcotest.(check (array bool)) "interleaved"
    [| true; false; false; true |]
    env;
  Alcotest.(check string) "name i" "x2_i" (Powermodel.Vars.name ~inputs:4 4);
  Alcotest.(check string) "name f" "x2_f" (Powermodel.Vars.name ~inputs:4 5);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Vars.name: out of range") (fun () ->
      ignore (Powermodel.Vars.name ~inputs:2 4));
  Alcotest.check_raises "env width"
    (Invalid_argument "Vars.env: width mismatch") (fun () ->
      ignore (Powermodel.Vars.env ~x_i:[| true |] ~x_f:[| true; false |]))

let dot_export () =
  let count_sub needle s =
    let ln = String.length needle and ls = String.length s in
    let rec go i acc =
      if i + ln > ls then acc
      else if String.sub s i ln = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  let amgr = Dd.Add.manager () in
  let a = Util.ite_var amgr 0 2.0 1.0 in
  let adot = Dd.Dot.add ~name:"a" a in
  (* ite(x0, 2, 1): 1 node for x0, 2 leaves = 3 node lines, 2 edges *)
  Alcotest.(check int) "node lines" 3 (count_sub "[shape=" adot);
  Alcotest.(check int) "edges" 2 (count_sub "->" adot);
  Alcotest.(check bool) "add leaves rendered" true
    (count_sub "label=\"2\"" adot = 1 && count_sub "label=\"1\"" adot = 1)

(* An exact composition of exact models over disjoint slices must equal
   the exact model of the side-by-side circuit. *)
let compose_equals_monolithic () =
  let monolithic =
    let b = Netlist.Builder.create ~name:"two-parities" in
    let xs = Netlist.Builder.inputs b "x" 8 in
    let left = Array.to_list (Array.sub xs 0 4) in
    let right = Array.to_list (Array.sub xs 4 4) in
    Netlist.Builder.output b "pl" (Netlist.Builder.xor_n b left);
    Netlist.Builder.output b "pr" (Netlist.Builder.xor_n b right);
    Netlist.Builder.finish b
  in
  let half = Circuits.Parity.tree ~bits:4 ~name:"p4" () in
  (* the half circuit has an extra inverter output ("even"), so align by
     building a matching half inline instead *)
  ignore half;
  let half =
    let b = Netlist.Builder.create ~name:"p4" in
    let xs = Netlist.Builder.inputs b "x" 4 in
    Netlist.Builder.output b "p" (Netlist.Builder.xor_n b (Array.to_list xs));
    Netlist.Builder.finish b
  in
  let whole_model = Powermodel.Model.build monolithic in
  let half_model = Powermodel.Model.build half in
  let design =
    Powermodel.Compose.create ~system_inputs:8
      [
        Powermodel.Compose.instance ~label:"l" ~model:half_model
          ~input_map:[| 0; 1; 2; 3 |];
        Powermodel.Compose.instance ~label:"r" ~model:half_model
          ~input_map:[| 4; 5; 6; 7 |];
      ]
  in
  let prng = Stimulus.Prng.create 55 in
  for _ = 1 to 300 do
    let x_i = Array.init 8 (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
    let x_f = Array.init 8 (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
    Util.check_close "composition = monolithic"
      (Powermodel.Model.switched_capacitance whole_model ~x_i ~x_f)
      (Powermodel.Compose.estimate design ~x_i ~x_f)
  done

let markov_toggle_clamps () =
  (* extreme st beyond feasibility clamps to probability 1 *)
  let s = { Dd.Markov.sp = 0.1; st = 0.9 } in
  Util.check_close "clamped" 1.0 (Dd.Markov.p_toggle_given ~initial:true s);
  let u = Dd.Markov.uniform in
  Util.check_close "uniform toggle" 0.5 (Dd.Markov.p_toggle_given ~initial:false u)

let report_alignment () =
  let t =
    Experiments.Report.render ~header:[ "a"; "b" ]
      [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  let lines = String.split_on_char '\n' t in
  (match lines with
  | header :: sep :: _ ->
    Alcotest.(check int) "sep width matches header" (String.length header)
      (String.length sep)
  | _ -> Alcotest.fail "too few lines");
  ()

let suite_lookup () =
  Alcotest.(check int) "13 rows" 13 (List.length Circuits.Suite.all);
  Alcotest.(check bool) "find hit" true (Circuits.Suite.find "mux" <> None);
  Alcotest.(check bool) "find miss" true (Circuits.Suite.find "nope" = None);
  Alcotest.(check string) "case study" "cm85"
    Circuits.Suite.case_study.Circuits.Suite.name;
  Alcotest.(check int) "names" 13 (List.length Circuits.Suite.names)

let sequence_determinism () =
  let mk () =
    Stimulus.Generator.sequence (Stimulus.Prng.create 123) ~bits:8 ~length:50
      ~sp:0.4 ~st:0.3
  in
  Alcotest.(check bool) "same seed, same stream" true (mk () = mk ())

let exact_bound_equals_exact_model () =
  (* an unbounded Upper_bound model is just the exact function *)
  let c = Circuits.Decoder.decod () in
  let avg = Powermodel.Model.build c in
  let ub = Powermodel.Bounds.build c in
  let prng = Stimulus.Prng.create 66 in
  for _ = 1 to 200 do
    let x_i = Array.init 5 (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
    let x_f = Array.init 5 (fun _ -> Stimulus.Prng.bool prng ~p:0.5) in
    Util.check_close "exact ub = exact avg"
      (Powermodel.Model.switched_capacitance avg ~x_i ~x_f)
      (Powermodel.Model.switched_capacitance ub ~x_i ~x_f)
  done

let bounded_ub_dominates_exact_ub () =
  (* compressing an upper bound can only increase it pointwise *)
  let c = Util.small_random_circuit 12 in
  let exact = Powermodel.Bounds.build c in
  let bounded = Powermodel.Bounds.build ~max_size:10 c in
  let n = Netlist.Circuit.input_count c in
  List.iter
    (fun x_i ->
      List.iter
        (fun x_f ->
          let e = Powermodel.Model.switched_capacitance exact ~x_i ~x_f in
          let b = Powermodel.Model.switched_capacitance bounded ~x_i ~x_f in
          if b +. 1e-9 < e then Alcotest.failf "compression lowered the bound")
        (Util.assignments n))
    (Util.assignments n)

let suite =
  [
    Alcotest.test_case "vars mapping" `Quick vars_mapping;
    Alcotest.test_case "dot export" `Quick dot_export;
    Alcotest.test_case "compose equals monolithic" `Quick
      compose_equals_monolithic;
    Alcotest.test_case "markov toggle clamps" `Quick markov_toggle_clamps;
    Alcotest.test_case "report alignment" `Quick report_alignment;
    Alcotest.test_case "suite lookup" `Quick suite_lookup;
    Alcotest.test_case "sequence determinism" `Quick sequence_determinism;
    Alcotest.test_case "exact upper bound = exact model" `Quick
      exact_bound_equals_exact_model;
    Alcotest.test_case "bounded ub dominates exact ub" `Quick
      bounded_ub_dominates_exact_ub;
  ]
