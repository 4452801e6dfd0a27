(* Analytical queries: worst-case witnesses, exact expectations, and
   per-input sensitivities — all validated against brute force. *)

let worst_case_witness_is_true_worst () =
  List.iter
    (fun circuit ->
      let sim = Gatesim.Simulator.create circuit in
      let model = Powermodel.Model.build circuit in
      let x_i, x_f, claimed = Powermodel.Analysis.worst_case_transition model in
      (* the witness must evaluate to the claimed value... *)
      Util.check_close "witness value"
        claimed
        (Powermodel.Model.switched_capacitance model ~x_i ~x_f);
      (* ...agree with the golden simulator (exact model)... *)
      Util.check_close "witness is real"
        claimed
        (Gatesim.Simulator.switched_capacitance sim x_i x_f);
      (* ...and match the exhaustive maximum *)
      Util.check_close "witness is maximal"
        (Gatesim.Simulator.worst_case_capacitance_exhaustive sim)
        claimed)
    [
      Circuits.Decoder.decod ();
      Util.small_random_circuit 21;
      Circuits.Adder.circuit ~bits:3;
    ]

let expected_capacitance_matches_enumeration () =
  let circuit = Util.small_random_circuit 22 in
  let sim = Gatesim.Simulator.create circuit in
  let model = Powermodel.Model.build circuit in
  let n = Netlist.Circuit.input_count circuit in
  List.iter
    (fun (sp, st) ->
      let stats = { Dd.Markov.sp; st } in
      (* enumerate all transitions weighted by the Markov measure *)
      let expected = ref 0.0 in
      List.iter
        (fun x_i ->
          List.iter
            (fun x_f ->
              let p = ref 1.0 in
              for j = 0 to n - 1 do
                let pi = if x_i.(j) then sp else 1.0 -. sp in
                let t = Dd.Markov.p_toggle_given ~initial:x_i.(j) stats in
                let pf = if x_f.(j) <> x_i.(j) then t else 1.0 -. t in
                p := !p *. pi *. pf
              done;
              expected :=
                !expected
                +. (!p *. Gatesim.Simulator.switched_capacitance sim x_i x_f))
            (Util.assignments n))
        (Util.assignments n);
      Util.check_close ~eps:1e-6
        (Printf.sprintf "E[C] at (%.1f, %.1f)" sp st)
        !expected
        (Powermodel.Analysis.expected_capacitance model ~sp ~st))
    [ (0.5, 0.5); (0.5, 0.1); (0.3, 0.2); (0.0, 0.0); (1.0, 0.0) ]

(* A chain that never toggles from a constant start holds every input at
   0 (sp = 0) or 1 (sp = 1): the expectation is the model's value on that
   hold transition, with no 0 / 0 in the toggle probability. *)
let expectation_at_degenerate_statistics () =
  List.iter
    (fun circuit ->
      let model = Powermodel.Model.build circuit in
      let n = model.Powermodel.Model.inputs in
      List.iter
        (fun sp ->
          let x = Array.make n (sp = 1.0) in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s E[C] at (%.0f, 0)"
               circuit.Netlist.Circuit.name sp)
            (Powermodel.Model.switched_capacitance model ~x_i:x ~x_f:x)
            (Powermodel.Analysis.expected_capacitance model ~sp ~st:0.0))
        [ 0.0; 1.0 ])
    [ Circuits.Decoder.decod (); Circuits.Comparator.cm85 () ]

let sensitivity_matches_enumeration () =
  let circuit = Util.small_random_circuit 23 in
  let sim = Gatesim.Simulator.create circuit in
  let model = Powermodel.Model.build circuit in
  let n = Netlist.Circuit.input_count circuit in
  let brute j =
    (* average C over all transitions where input j toggles / holds, the
       other inputs uniform over all (x_i, x_f) combinations *)
    let sum_toggle = ref 0.0 and count_toggle = ref 0 in
    let sum_hold = ref 0.0 and count_hold = ref 0 in
    List.iter
      (fun x_i ->
        List.iter
          (fun x_f ->
            let c = Gatesim.Simulator.switched_capacitance sim x_i x_f in
            if x_i.(j) <> x_f.(j) then begin
              sum_toggle := !sum_toggle +. c;
              incr count_toggle
            end
            else begin
              sum_hold := !sum_hold +. c;
              incr count_hold
            end)
          (Util.assignments n))
      (Util.assignments n);
    (!sum_toggle /. float_of_int !count_toggle)
    -. (!sum_hold /. float_of_int !count_hold)
  in
  for j = 0 to n - 1 do
    Util.check_close ~eps:1e-6
      (Printf.sprintf "sensitivity of input %d" j)
      (brute j)
      (Powermodel.Analysis.toggle_sensitivity model j)
  done

let sensitivities_array () =
  let model = Powermodel.Model.build (Circuits.Decoder.decod ()) in
  let s = Powermodel.Analysis.toggle_sensitivities model in
  Alcotest.(check int) "one per input" 5 (Array.length s);
  Alcotest.check_raises "range"
    (Invalid_argument "Analysis.toggle_sensitivity: input out of range")
    (fun () -> ignore (Powermodel.Analysis.toggle_sensitivity model 9))

let bound_witness_attains_constant_bound () =
  let circuit = Circuits.Comparator.cm85 () in
  let bound = Powermodel.Bounds.build ~max_size:500 circuit in
  let x_i, x_f, value = Powermodel.Analysis.worst_case_transition bound in
  Util.check_close "attains max" (Powermodel.Bounds.constant_bound bound) value;
  Util.check_close "evaluates to max" value
    (Powermodel.Model.switched_capacitance bound ~x_i ~x_f)

(* The pre-memoization traversal, kept verbatim as the reference: it
   re-derived each child's subtree maximum with a fresh Add.max_value
   sweep at every level (O(depth x subtree) on deep diagrams).  The
   memoized replacement must pick the same branch at every tie and
   non-tie — witness arrays and value bit-identical, not just close. *)
let reference_worst_case model =
  let n = model.Powermodel.Model.inputs in
  let env = Array.make (Powermodel.Vars.count ~inputs:n) false in
  let rec descend node =
    match node with
    | Dd.Add.Leaf l -> l.value
    | Dd.Add.Node nd ->
      let max_of t =
        match t with
        | Dd.Add.Leaf l -> l.value
        | Dd.Add.Node _ -> Dd.Add.max_value t
      in
      if max_of nd.high >= max_of nd.low then begin
        env.(nd.var) <- true;
        descend nd.high
      end
      else begin
        env.(nd.var) <- false;
        descend nd.low
      end
  in
  let value = descend model.Powermodel.Model.cap in
  let x_i = Array.init n (fun j -> env.(Powermodel.Vars.initial j)) in
  let x_f = Array.init n (fun j -> env.(Powermodel.Vars.final j)) in
  (x_i, x_f, value)

let memoized_traversal_matches_reference () =
  let bits = Alcotest.testable
      (Fmt.of_to_string (fun v ->
           String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')))
      ( = )
  in
  let check_model label model =
    let rx_i, rx_f, rv = reference_worst_case model in
    let x_i, x_f, v = Powermodel.Analysis.worst_case_transition model in
    Alcotest.(check (float 0.0)) (label ^ ": value") rv v;
    Alcotest.check bits (label ^ ": x_i") rx_i x_i;
    Alcotest.check bits (label ^ ": x_f") rx_f x_f
  in
  (* Table 1 circuits, exact and collapsed, plus random netlists *)
  List.iter
    (fun name ->
      let entry =
        match Circuits.Suite.find name with
        | Some e -> e
        | None -> Alcotest.failf "unknown suite circuit %s" name
      in
      let circuit = entry.Circuits.Suite.build () in
      check_model name (Powermodel.Model.build circuit);
      check_model (name ^ "-collapsed")
        (Powermodel.Model.build ~max_size:200 circuit))
    [ "decod"; "x2"; "alu2"; "cm85" ];
  List.iter
    (fun seed ->
      check_model
        (Printf.sprintf "random-%d" seed)
        (Powermodel.Model.build (Util.small_random_circuit seed)))
    [ 51; 52; 53 ]

let suite =
  [
    Alcotest.test_case "worst-case witness" `Quick worst_case_witness_is_true_worst;
    Alcotest.test_case "memoized traversal matches the quadratic reference"
      `Quick memoized_traversal_matches_reference;
    Alcotest.test_case "expected capacitance" `Slow
      expected_capacitance_matches_enumeration;
    Alcotest.test_case "expectation at sp in {0, 1}, st = 0" `Quick
      expectation_at_degenerate_statistics;
    Alcotest.test_case "toggle sensitivity" `Slow sensitivity_matches_enumeration;
    Alcotest.test_case "sensitivities array" `Quick sensitivities_array;
    Alcotest.test_case "bound witness" `Quick bound_witness_attains_constant_bound;
  ]
