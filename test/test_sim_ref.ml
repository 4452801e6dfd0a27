(* The vector-at-a-time simulator (Gatesim.Simulator.run and
   switched_capacitance as they were before word-parallel evaluation) kept
   here verbatim as the reference.  The word-parallel simulator must agree
   with it bit for bit: every per-pattern value, the total, the average
   and the maximum, and the exception raised on a malformed sequence.
   Random non-dyadic loads make the bit identity depend on the order of
   the additions, not only on which loads are added. *)

module Ref = struct
  open Gatesim.Simulator

  let switched_capacitance t x_i x_f =
    let before = eval t x_i and after = eval t x_f in
    switched_capacitance_of_values t before after

  let run t vectors =
    let count = Array.length vectors in
    if count < 2 then invalid_arg "Simulator.run: need at least two vectors";
    let per_pattern = Array.make (count - 1) 0.0 in
    let values = ref (eval t vectors.(0)) in
    let total = ref 0.0 and maximum = ref 0.0 in
    for k = 1 to count - 1 do
      let next = eval t vectors.(k) in
      let c = switched_capacitance_of_values t !values next in
      per_pattern.(k - 1) <- c;
      total := !total +. c;
      if c > !maximum then maximum := c;
      values := next
    done;
    {
      patterns = count - 1;
      average = !total /. float_of_int (count - 1);
      maximum = !maximum;
      total = !total;
      per_pattern;
    }
end

let bits = Int64.bits_of_float

let check_float what expected got =
  if bits expected <> bits got then
    Alcotest.failf "%s: expected %h, got %h" what expected got

let check_run what (expected : Gatesim.Simulator.run)
    (got : Gatesim.Simulator.run) =
  Alcotest.(check int) (what ^ " patterns") expected.patterns got.patterns;
  Alcotest.(check int)
    (what ^ " per_pattern length")
    (Array.length expected.per_pattern)
    (Array.length got.per_pattern);
  Array.iteri
    (fun k e ->
      check_float (Printf.sprintf "%s per_pattern.(%d)" what k) e
        got.per_pattern.(k))
    expected.per_pattern;
  check_float (what ^ " total") expected.total got.total;
  check_float (what ^ " average") expected.average got.average;
  check_float (what ^ " maximum") expected.maximum got.maximum

let check_same what sim vectors =
  check_run what (Ref.run sim vectors) (Gatesim.Simulator.run sim vectors)

(* Sequence lengths around the 63-lane block edges (blocks overlap by one
   vector, so they hold 62, 124, ... transitions). *)
let lengths = [ 2; 3; 62; 63; 64; 124; 125; 126; 127; 2000 ]

let grid = Experiments.Sweep.default_grid

(* The lowest and highest activity points of the grid. *)
let extremes =
  let by_st a b = compare a.Experiments.Sweep.st b.Experiments.Sweep.st in
  let sorted = List.stable_sort by_st grid in
  [ List.hd sorted; List.hd (List.rev sorted) ]

let sequence prng circuit ~length (p : Experiments.Sweep.point) =
  Stimulus.Generator.sequence prng
    ~bits:(Netlist.Circuit.input_count circuit)
    ~length ~sp:p.sp ~st:p.st

let constant_sequences circuit =
  let n = Netlist.Circuit.input_count circuit in
  List.map
    (fun v -> Array.make 130 v)
    [
      Array.make n false;
      Array.make n true;
      Array.init n (fun i -> i mod 3 = 0);
    ]

let random_loads prng circuit =
  Array.init circuit.Netlist.Circuit.net_count (fun _ ->
      Stimulus.Prng.float prng *. 10.0)

let table1_rows = [ "decod"; "x2"; "cmb"; "cm85"; "alu2"; "cm150"; "mux"; "parity" ]

let suite_circuit name =
  match Circuits.Suite.find name with
  | Some e -> e.Circuits.Suite.build ()
  | None -> Alcotest.failf "unknown suite circuit %s" name

let table1 () =
  List.iteri
    (fun r name ->
      let circuit = suite_circuit name in
      let sim = Gatesim.Simulator.create circuit in
      let prng = Stimulus.Prng.create (100 + r) in
      (* every grid point at the sweep length, the extremes at every
         block-edge length *)
      List.iter
        (fun p ->
          check_same name sim (sequence prng circuit ~length:2000 p))
        grid;
      List.iter
        (fun length ->
          List.iter
            (fun p ->
              check_same
                (Printf.sprintf "%s length %d" name length)
                sim
                (sequence prng circuit ~length p))
            extremes)
        lengths;
      List.iter (check_same (name ^ " constant") sim)
        (constant_sequences circuit))
    table1_rows

let random_circuits () =
  for seed = 0 to 59 do
    let circuit = Util.small_random_circuit seed in
    let prng = Stimulus.Prng.create seed in
    List.iter
      (fun sim ->
        List.iter
          (fun length ->
            let p = List.nth grid (Stimulus.Prng.int prng ~bound:(List.length grid)) in
            check_same
              (Printf.sprintf "rand%d length %d" seed length)
              sim
              (sequence prng circuit ~length p))
          lengths;
        List.iter (check_same "constant" sim) (constant_sequences circuit))
      [
        Gatesim.Simulator.create circuit;
        Gatesim.Simulator.create ~loads:(random_loads prng circuit) circuit;
      ]
  done

(* Constant drivers and multiplexers, with inverters and XNORs that set
   the lanes above a block's width. *)
let const_mux_circuit () =
  let b = Netlist.Builder.create ~name:"constmux" in
  let x = Netlist.Builder.inputs b "x" 4 in
  let one = Netlist.Builder.const b true and zero = Netlist.Builder.const b false in
  let m0 = Netlist.Builder.mux2 b ~sel:x.(0) ~if0:x.(1) ~if1:one in
  let m1 = Netlist.Builder.mux2 b ~sel:x.(2) ~if0:zero ~if1:(Netlist.Builder.not_ b x.(3)) in
  let m2 = Netlist.Builder.mux2 b ~sel:m0 ~if0:m1 ~if1:(Netlist.Builder.xnor2 b x.(1) x.(2)) in
  let nz = Netlist.Builder.nor2 b zero m2 in
  Netlist.Builder.output b "m2" m2;
  Netlist.Builder.output b "nz" nz;
  Netlist.Builder.output b "one" (Netlist.Builder.buf b one);
  Netlist.Builder.finish b

let const_and_mux () =
  let circuit = const_mux_circuit () in
  let prng = Stimulus.Prng.create 7 in
  List.iter
    (fun sim ->
      List.iter
        (fun length ->
          List.iter
            (fun p ->
              check_same
                (Printf.sprintf "constmux length %d" length)
                sim
                (sequence prng circuit ~length p))
            grid)
        lengths;
      List.iter (check_same "constmux constant" sim)
        (constant_sequences circuit))
    [
      Gatesim.Simulator.create circuit;
      Gatesim.Simulator.create ~loads:(random_loads prng circuit) circuit;
    ]

let switched_capacitance_pairs () =
  let check circuit sim prng =
    let bits = Netlist.Circuit.input_count circuit in
    for _ = 1 to 200 do
      let x_i, x_f = Stimulus.Generator.uniform_pair prng ~bits in
      check_float "switched_capacitance"
        (Ref.switched_capacitance sim x_i x_f)
        (Gatesim.Simulator.switched_capacitance sim x_i x_f)
    done
  in
  for seed = 0 to 19 do
    let circuit = Util.small_random_circuit seed in
    let prng = Stimulus.Prng.create (500 + seed) in
    check circuit (Gatesim.Simulator.create circuit) prng;
    check circuit
      (Gatesim.Simulator.create ~loads:(random_loads prng circuit) circuit)
      prng
  done;
  let circuit = const_mux_circuit () in
  check circuit (Gatesim.Simulator.create circuit) (Stimulus.Prng.create 3);
  let circuit = suite_circuit "cm85" in
  check circuit (Gatesim.Simulator.create circuit) (Stimulus.Prng.create 4)

let outcome f =
  match f () with
  | (_ : Gatesim.Simulator.run) -> Ok ()
  | exception Invalid_argument msg -> Error msg

let width_errors () =
  let circuit = Util.small_random_circuit 3 in
  let sim = Gatesim.Simulator.create circuit in
  let n = Netlist.Circuit.input_count circuit in
  let prng = Stimulus.Prng.create 11 in
  let expected =
    Printf.sprintf "Circuit.eval_all: expected %d inputs, got %d" n (n - 1)
  in
  List.iter
    (fun bad ->
      let vectors =
        Stimulus.Generator.sequence prng ~bits:n ~length:200 ~sp:0.5 ~st:0.5
      in
      vectors.(bad) <- Array.make (n - 1) true;
      (* a second, longer bad vector later must not win *)
      vectors.(150) <- Array.make (n + 1) false;
      let what = Printf.sprintf "short vector at %d" bad in
      Alcotest.(check (result unit string))
        what (Error expected)
        (outcome (fun () -> Gatesim.Simulator.run sim vectors));
      Alcotest.(check (result unit string))
        (what ^ " (reference)")
        (outcome (fun () -> Ref.run sim vectors))
        (outcome (fun () -> Gatesim.Simulator.run sim vectors)))
    [ 0; 62; 63; 70 ];
  let v = Array.make n true in
  Alcotest.check_raises "switched_capacitance short x_f"
    (Invalid_argument expected) (fun () ->
      ignore (Gatesim.Simulator.switched_capacitance sim v (Array.make (n - 1) true)));
  Alcotest.check_raises "count < 2"
    (Invalid_argument "Simulator.run: need at least two vectors") (fun () ->
      ignore (Gatesim.Simulator.run sim [| v |]));
  Alcotest.check_raises "empty"
    (Invalid_argument "Simulator.run: need at least two vectors") (fun () ->
      ignore (Gatesim.Simulator.run sim [||]))

(* One simulator shared read-only by pool domains, as Sweep.run_grid
   shares it. *)
let pool_runs () =
  let circuit = suite_circuit "cm85" in
  let sim = Gatesim.Simulator.create circuit in
  let master = Stimulus.Prng.create 42 in
  let sequences =
    List.concat_map
      (fun p ->
        List.map
          (fun length -> sequence (Stimulus.Prng.split master) circuit ~length p)
          [ 63; 125; 2000 ])
      grid
  in
  let sequential = List.map (Gatesim.Simulator.run sim) sequences in
  let pooled =
    Parallel.Pool.run ~jobs:2
      (List.map (fun v () -> Gatesim.Simulator.run sim v) sequences)
  in
  List.iteri
    (fun i (s, p) -> check_run (Printf.sprintf "sequence %d" i) s p)
    (List.combine sequential pooled)

(* The in-place Lin estimate against the feature-row prediction it
   replaced. *)
let lin_estimate () =
  let circuit = suite_circuit "cm85" in
  let sim = Gatesim.Simulator.create circuit in
  let bits = Netlist.Circuit.input_count circuit in
  let prng = Stimulus.Prng.create 9 in
  let characterization =
    Stimulus.Generator.sequence prng ~bits ~length:300 ~sp:0.5 ~st:0.5
  in
  match Powermodel.Baselines.characterize_lin sim characterization with
  | Powermodel.Baselines.Con _ -> Alcotest.fail "expected a Lin model"
  | Powermodel.Baselines.Lin { coeffs } as lin ->
    for _ = 1 to 500 do
      let x_i, x_f = Stimulus.Generator.uniform_pair prng ~bits in
      check_float "Lin estimate"
        (Linalg.Lstsq.predict coeffs
           (Powermodel.Baselines.transition_features x_i x_f))
        (Powermodel.Baselines.estimate lin ~x_i ~x_f)
    done

let suite =
  [
    Alcotest.test_case "Table 1 rows match the reference bit for bit" `Quick
      table1;
    Alcotest.test_case "random circuits match the reference bit for bit"
      `Quick random_circuits;
    Alcotest.test_case "constant and mux cells match the reference" `Quick
      const_and_mux;
    Alcotest.test_case "switched_capacitance matches the reference" `Quick
      switched_capacitance_pairs;
    Alcotest.test_case "bad vectors raise the reference's message" `Quick
      width_errors;
    Alcotest.test_case "pooled runs equal sequential runs" `Quick pool_runs;
    Alcotest.test_case "in-place Lin estimate equals Lstsq.predict" `Quick
      lin_estimate;
  ]
