(* Compiled bulk evaluators: compiled-vs-interpreted equivalence (bit
   for bit), collapsed programs, leaf-only programs, batch edge cases
   and cross-job determinism. *)

let bits_equal msg expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h" msg expected actual

let sequence ~bits ~length ~seed =
  let prng = Stimulus.Prng.create seed in
  Stimulus.Generator.sequence prng ~bits ~length ~sp:0.5 ~st:0.5

(* every transition of [vectors] through the compiled batch must match
   the interpreted per-pattern walk bit for bit *)
let check_batch_matches model compiled vectors =
  let inputs, n = Powermodel.Model.pack_transitions compiled vectors in
  let out = Powermodel.Model.eval_batch compiled ~inputs ~n in
  Alcotest.(check int) "batch size" (Array.length vectors - 1) n;
  for k = 0 to n - 1 do
    bits_equal
      (Printf.sprintf "transition %d" k)
      (Powermodel.Model.switched_capacitance model ~x_i:vectors.(k)
         ~x_f:vectors.(k + 1))
      out.(k)
  done

let directed_vectors bits =
  [|
    Array.make bits false;
    Array.make bits true;
    Array.init bits (fun i -> i land 1 = 0);
    Array.make bits false;
    Array.init bits (fun i -> i land 1 = 1);
    Array.make bits true;
  |]

let suite_model ?max_size name =
  match Circuits.Suite.find name with
  | None -> Alcotest.failf "unknown suite circuit %s" name
  | Some entry ->
    let circuit = entry.Circuits.Suite.build () in
    let model = Powermodel.Model.build ?max_size circuit in
    (model, Netlist.Circuit.input_count circuit)

let model_equivalence () =
  List.iter
    (fun (name, max_size) ->
      let model, bits = suite_model ?max_size name in
      let compiled = Powermodel.Model.compile model in
      check_batch_matches model compiled (directed_vectors bits);
      check_batch_matches model compiled (sequence ~bits ~length:300 ~seed:41))
    [ ("decod", None); ("x2", None); ("cm85", Some 500) ]

(* collapsed (approximated) diagrams compile and agree the same way *)
let collapsed_equivalence () =
  let model, bits = suite_model ~max_size:50 "cm85" in
  Alcotest.(check bool) "collapsed" false (Powermodel.Model.is_exact model);
  let compiled = Powermodel.Model.compile model in
  check_batch_matches model compiled (sequence ~bits ~length:300 ~seed:43)

(* qcheck: programs compiled from random expressions match Add.eval on
   every assignment *)
let qcheck_eval =
  let vars = 6 in
  Util.qtest ~count:60 "compiled eval = Add.eval" (Util.expr_arbitrary ~vars)
    (fun e ->
      let add_mgr = Dd.Add.manager () in
      let add =
        Dd.Add.add add_mgr
          (Dd.Add.mul add_mgr (Util.add_of_expr add_mgr e)
             (Dd.Add.const add_mgr 2.25))
          (Dd.Add.const add_mgr 0.25)
      in
      let program = Dd.Compiled.compile ~vars add in
      List.for_all
        (fun env ->
          Int64.bits_of_float (Dd.Compiled.eval program env)
          = Int64.bits_of_float (Dd.Add.eval add env))
        (Util.assignments vars))

(* qcheck: the batched walk agrees with the scalar walk over packed
   random blocks *)
let qcheck_batch =
  let vars = 6 in
  Util.qtest ~count:40 "eval_batch = eval" (Util.expr_arbitrary ~vars)
    (fun e ->
      let add_mgr = Dd.Add.manager () in
      let add =
        Dd.Add.add add_mgr
          (Dd.Add.mul add_mgr (Util.add_of_expr add_mgr e)
             (Dd.Add.const add_mgr 1.25))
          (Dd.Add.const add_mgr 0.5)
      in
      let program = Dd.Compiled.compile ~vars add in
      let envs = Array.of_list (Util.assignments vars) in
      let inputs = Dd.Compiled.pack program envs in
      let out =
        Dd.Compiled.eval_batch program ~inputs ~n:(Array.length envs)
      in
      Array.for_all
        (fun k ->
          Int64.bits_of_float out.(k)
          = Int64.bits_of_float (Dd.Compiled.eval program envs.(k)))
        (Array.init (Array.length envs) (fun k -> k)))

let empty_batch () =
  let model, _ = suite_model "decod" in
  let compiled = Powermodel.Model.compile model in
  let program = Powermodel.Model.compiled_program compiled in
  let out = Dd.Compiled.eval_batch program ~inputs:Bytes.empty ~n:0 in
  Alcotest.(check int) "no outputs" 0 (Array.length out);
  let s = Dd.Compiled.stats_batch program ~inputs:Bytes.empty ~n:0 in
  Alcotest.(check int) "no stats" 0 s.Dd.Compiled.count

let batch_bounds () =
  let model, _ = suite_model "decod" in
  let compiled = Powermodel.Model.compile model in
  let program = Powermodel.Model.compiled_program compiled in
  Alcotest.check_raises "negative n"
    (Invalid_argument "Compiled: negative batch size") (fun () ->
      ignore (Dd.Compiled.eval_batch program ~inputs:Bytes.empty ~n:(-1)));
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Compiled: input buffer shorter than n * vars bytes")
    (fun () ->
      ignore (Dd.Compiled.eval_batch program ~inputs:(Bytes.create 3) ~n:2))

(* regression: a constant (single-terminal) diagram compiles to an empty
   program body; eval_batch must not index it *)
let leaf_only_program () =
  let add_mgr = Dd.Add.manager () in
  let program = Dd.Compiled.compile (Dd.Add.const add_mgr 3.5) in
  Alcotest.(check bool) "constant" true (Dd.Compiled.is_constant program);
  Alcotest.(check int) "no nodes" 0 (Dd.Compiled.node_count program);
  Alcotest.(check int) "one leaf" 1 (Dd.Compiled.leaf_count program);
  bits_equal "eval" 3.5 (Dd.Compiled.eval program [||]);
  (* zero variables: any n evaluates against an empty byte buffer *)
  let out = Dd.Compiled.eval_batch program ~inputs:Bytes.empty ~n:5 in
  Array.iteri (fun k v -> bits_equal (Printf.sprintf "out %d" k) 3.5 v) out;
  (* padded to a wider variable order, same story with real input bytes *)
  let wide = Dd.Compiled.compile ~vars:4 (Dd.Add.const add_mgr 1.25) in
  let envs = Array.of_list (Util.assignments 4) in
  let inputs = Dd.Compiled.pack wide envs in
  let out = Dd.Compiled.eval_batch wide ~inputs ~n:(Array.length envs) in
  Array.iteri (fun k v -> bits_equal (Printf.sprintf "wide %d" k) 1.25 v) out;
  let s = Dd.Compiled.stats_batch wide ~inputs ~n:(Array.length envs) in
  Alcotest.(check int) "count" (Array.length envs) s.Dd.Compiled.count;
  bits_equal "maximum" 1.25 s.Dd.Compiled.maximum

(* a circuit whose every net carries zero load has a constant-zero model;
   the compiled path must survive it end to end *)
let constant_model () =
  let entry =
    match Circuits.Suite.find "decod" with
    | Some e -> e
    | None -> Alcotest.fail "decod missing"
  in
  let circuit = entry.Circuits.Suite.build () in
  let loads = Array.make circuit.Netlist.Circuit.net_count 0.0 in
  let model = Powermodel.Model.build ~loads circuit in
  let compiled = Powermodel.Model.compile model in
  Alcotest.(check bool) "constant" true
    (Dd.Compiled.is_constant (Powermodel.Model.compiled_program compiled));
  let vectors =
    sequence ~bits:(Netlist.Circuit.input_count circuit) ~length:50 ~seed:47
  in
  check_batch_matches model compiled vectors;
  let r = Powermodel.Model.run_compiled compiled vectors in
  bits_equal "zero max" 0.0 r.Powermodel.Model.maximum

(* the shard split is a function of n alone: outputs and stats are
   byte-identical whatever the job count *)
let determinism_across_jobs () =
  let model, bits = suite_model ~max_size:500 "cm85" in
  let compiled = Powermodel.Model.compile model in
  let program = Powermodel.Model.compiled_program compiled in
  let vectors = sequence ~bits ~length:10_001 ~seed:53 in
  let inputs, n = Powermodel.Model.pack_transitions compiled vectors in
  Alcotest.(check bool) "multi-block" true (n > Dd.Compiled.block);
  let out1 = Dd.Compiled.eval_batch ~jobs:1 program ~inputs ~n in
  let out3 = Dd.Compiled.eval_batch ~jobs:3 program ~inputs ~n in
  for k = 0 to n - 1 do
    bits_equal (Printf.sprintf "out %d" k) out1.(k) out3.(k)
  done;
  let s1 = Dd.Compiled.stats_batch ~jobs:1 program ~inputs ~n in
  let s3 = Dd.Compiled.stats_batch ~jobs:3 program ~inputs ~n in
  Alcotest.(check int) "count" s1.Dd.Compiled.count s3.Dd.Compiled.count;
  bits_equal "total" s1.Dd.Compiled.total s3.Dd.Compiled.total;
  bits_equal "minimum" s1.Dd.Compiled.minimum s3.Dd.Compiled.minimum;
  bits_equal "maximum" s1.Dd.Compiled.maximum s3.Dd.Compiled.maximum;
  (* the stats fold reduces exactly the batch outputs *)
  Alcotest.(check int) "stats count" n s1.Dd.Compiled.count;
  bits_equal "stats max" (Array.fold_left Float.max neg_infinity out1)
    s1.Dd.Compiled.maximum;
  bits_equal "stats min" (Array.fold_left Float.min infinity out1)
    s1.Dd.Compiled.minimum

(* single-block stats accumulate sequentially, so the total is
   bit-identical to a left fold over the outputs *)
let single_block_stats () =
  let model, bits = suite_model ~max_size:200 "cm85" in
  let compiled = Powermodel.Model.compile model in
  let program = Powermodel.Model.compiled_program compiled in
  let vectors = sequence ~bits ~length:2001 ~seed:59 in
  let inputs, n = Powermodel.Model.pack_transitions compiled vectors in
  let out = Dd.Compiled.eval_batch program ~inputs ~n in
  let s = Dd.Compiled.stats_batch program ~inputs ~n in
  bits_equal "total" (Array.fold_left ( +. ) 0.0 out) s.Dd.Compiled.total

(* run_compiled summarizes like the interpreted run: maximum exactly,
   average up to blockwise-summation rounding *)
let run_compiled_matches_run () =
  let model, bits = suite_model ~max_size:500 "cm85" in
  let compiled = Powermodel.Model.compile model in
  let vectors = sequence ~bits ~length:500 ~seed:61 in
  let interpreted = Powermodel.Model.run model vectors in
  let batched = Powermodel.Model.run_compiled compiled vectors in
  Alcotest.(check int) "patterns" interpreted.Powermodel.Model.patterns
    batched.Powermodel.Model.patterns;
  bits_equal "maximum" interpreted.Powermodel.Model.maximum
    batched.Powermodel.Model.maximum;
  Util.check_close "average" interpreted.Powermodel.Model.average
    batched.Powermodel.Model.average;
  Util.check_close "total" interpreted.Powermodel.Model.total
    batched.Powermodel.Model.total

(* the estimator knob: both flavours call themselves ADD and estimate
   identically per pattern *)
let estimator_modes () =
  let model, bits = suite_model "x2" in
  Experiments.Estimator.set_mode Experiments.Estimator.Interpreted;
  let interp = Experiments.Estimator.add_model model in
  (match interp with
  | Experiments.Estimator.Add_model _ -> ()
  | _ -> Alcotest.fail "Interpreted mode must yield Add_model");
  Experiments.Estimator.set_mode Experiments.Estimator.Compiled;
  let comp = Experiments.Estimator.add_model model in
  (match comp with
  | Experiments.Estimator.Compiled_model _ -> ()
  | _ -> Alcotest.fail "Compiled mode must yield Compiled_model");
  Alcotest.(check string) "interp name" "ADD"
    (Experiments.Estimator.name interp);
  Alcotest.(check string) "compiled name" "ADD"
    (Experiments.Estimator.name comp);
  let vectors = sequence ~bits ~length:50 ~seed:67 in
  for k = 0 to Array.length vectors - 2 do
    bits_equal
      (Printf.sprintf "estimate %d" k)
      (Experiments.Estimator.estimate interp ~x_i:vectors.(k)
         ~x_f:vectors.(k + 1))
      (Experiments.Estimator.estimate comp ~x_i:vectors.(k)
         ~x_f:vectors.(k + 1))
  done

let suite =
  [
    Alcotest.test_case "model equivalence" `Quick model_equivalence;
    Alcotest.test_case "collapsed equivalence" `Quick collapsed_equivalence;
    qcheck_eval;
    qcheck_batch;
    Alcotest.test_case "empty batch" `Quick empty_batch;
    Alcotest.test_case "batch bounds" `Quick batch_bounds;
    Alcotest.test_case "leaf-only program" `Quick leaf_only_program;
    Alcotest.test_case "constant model" `Quick constant_model;
    Alcotest.test_case "determinism across jobs" `Quick determinism_across_jobs;
    Alcotest.test_case "single-block stats" `Quick single_block_stats;
    Alcotest.test_case "run_compiled matches run" `Quick
      run_compiled_matches_run;
    Alcotest.test_case "estimator modes" `Quick estimator_modes;
  ]
