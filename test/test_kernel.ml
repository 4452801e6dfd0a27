(* DD kernel (packed computed tables, open-addressing unique tables,
   root-based GC, bounded size tracking): model equivalence against the
   gate-level simulator, Add.shift renaming, protect/sweep invariants
   (node functions included), and the Perf counter lifecycle across a
   sweep. *)

let random_vector prng n =
  Array.init n (fun _ -> Stimulus.Prng.bool prng ~p:0.5)

(* Exact models must agree with the golden simulator on every transition;
   upper-bound models must dominate it; collapsed models must respect the
   size bound.  Exercises the whole kernel — unique tables, computed
   tables, shift, the Boolean ops, apply, Approx — over real suite
   circuits. *)
let model_matches_simulator name =
  let entry =
    match Circuits.Suite.find name with
    | Some e -> e
    | None -> Alcotest.failf "unknown suite circuit %s" name
  in
  let circuit = entry.Circuits.Suite.build () in
  let n = Netlist.Circuit.input_count circuit in
  let sim = Gatesim.Simulator.create circuit in
  let exact = Powermodel.Model.build circuit in
  let collapsed = Powermodel.Model.build ~max_size:150 circuit in
  let ub =
    Powermodel.Model.build ~strategy:Dd.Approx.Upper_bound ~max_size:150
      circuit
  in
  Alcotest.(check bool)
    "collapsed model respects MAX" true
    (Powermodel.Model.size collapsed <= 150);
  let prng = Stimulus.Prng.create 20260806 in
  for _ = 1 to 60 do
    let x_i = random_vector prng n and x_f = random_vector prng n in
    let reference = Gatesim.Simulator.switched_capacitance sim x_i x_f in
    let got = Powermodel.Model.switched_capacitance exact ~x_i ~x_f in
    Util.check_close "exact model = simulator" reference got;
    let bound = Powermodel.Model.switched_capacitance ub ~x_i ~x_f in
    Alcotest.(check bool)
      "upper-bound model dominates simulator" true
      (bound >= reference -. 1e-9);
    let approx = Powermodel.Model.switched_capacitance collapsed ~x_i ~x_f in
    Alcotest.(check bool) "collapsed model is finite" true
      (Float.is_finite approx)
  done

let equivalence_cm85 () = model_matches_simulator "cm85"
let equivalence_decod () = model_matches_simulator "decod"

let shift_renames_variables () =
  let m = Dd.Add.manager () in
  let prng = Stimulus.Prng.create 7 in
  for _ = 1 to 30 do
    (* random function over variables 0, 2, 4 shifted to 1, 3, 5 *)
    let x = Util.var m 0 and y = Util.var m 2 and z = Util.var m 4 in
    let f =
      Util.bxor m
        (Util.band m x (if Stimulus.Prng.bool prng ~p:0.5 then y else z))
        (if Stimulus.Prng.bool prng ~p:0.5 then z else Dd.Add.bnot m y)
    in
    let g = Dd.Add.shift m 1 f in
    List.iter
      (fun env ->
        let env' = Array.make 6 false in
        List.iter (fun v -> env'.(v + 1) <- env.(v)) [ 0; 2; 4 ];
        Alcotest.(check bool) "shift semantics" (Util.holds f env)
          (Util.holds g env'))
      (Util.assignments 5)
  done;
  let f = Util.band m (Util.var m 1) (Util.var m 3) in
  Alcotest.(check bool) "shift 0 is identity" true
    (Dd.Add.equal f (Dd.Add.shift m 0 f));
  Alcotest.(check bool) "round trip" true
    (Dd.Add.equal f (Dd.Add.shift m 1 (Dd.Add.shift m (-1) f)));
  Alcotest.(check bool) "a leaf shifts to itself" true
    (let one = Util.of_bool m true in
     Dd.Add.equal one (Dd.Add.shift m (-5) one));
  Alcotest.check_raises "negative shifted variable"
    (Invalid_argument "Add.shift: negative shifted variable") (fun () ->
      ignore (Dd.Add.shift m (-2) f))

(* GC stress: build a protected accumulator plus lots of garbage, sweep,
   and require (1) the unique table shrinks to the live set, (2) protected
   diagrams evaluate unchanged, (3) hash-consing stays canonical — the
   same function built after the sweep is physically equal. *)
let gc_sweep_invariance () =
  let m = Dd.Add.manager () in
  let vars = 6 in
  let mk_term i v = Util.ite_var m (i mod vars) v 0.0 in
  let root =
    List.fold_left (Dd.Add.add m)
      (Dd.Add.const m 0.0)
      (List.init vars (fun i -> mk_term i (float_of_int (i + 1))))
  in
  (* garbage: partial products never referenced again *)
  for i = 0 to 400 do
    ignore
      (Dd.Add.mul m root (mk_term i (float_of_int i +. 0.5)))
  done;
  let before =
    List.map (fun env -> Dd.Add.eval root env) (Util.assignments vars)
  in
  let table_before = Dd.Add.unique_size m in
  let live = Dd.Add.size root in
  Dd.Add.protect m root;
  Alcotest.(check int) "one root" 1 (Dd.Add.root_count m);
  Dd.Add.sweep m;
  Alcotest.(check bool) "unique table shrank to the live set" true
    (Dd.Add.unique_size m < table_before && Dd.Add.unique_size m <= live);
  List.iteri
    (fun k env ->
      Util.check_close "eval invariant under sweep" (List.nth before k)
        (Dd.Add.eval root env))
    (Util.assignments vars);
  (* canonicity: rebuilding the protected function must hit the swept
     unique table, not duplicate it *)
  let rebuilt =
    List.fold_left (Dd.Add.add m)
      (Dd.Add.const m 0.0)
      (List.init vars (fun i -> mk_term i (float_of_int (i + 1))))
  in
  Alcotest.(check bool) "hash-consing canonical across sweep" true
    (Dd.Add.equal root rebuilt);
  (* refcounted roots: protect twice, unprotect once -> still protected *)
  Dd.Add.protect m root;
  Dd.Add.unprotect m root;
  Alcotest.(check int) "still rooted" 1 (Dd.Add.root_count m);
  Dd.Add.unprotect m root;
  Alcotest.(check int) "no roots" 0 (Dd.Add.root_count m);
  Alcotest.check_raises "unprotect without protect"
    (Invalid_argument "Add.unprotect: diagram is not protected") (fun () ->
      Dd.Add.unprotect m root);
  (* sweeping with no roots empties the manager; the OCaml value we still
     hold stays structurally valid *)
  Dd.Add.sweep m;
  Alcotest.(check int) "empty unique table" 0 (Dd.Add.unique_size m);
  Util.check_close "detached diagram still evaluates"
    (List.hd before)
    (Dd.Add.eval root (Array.make vars false))

(* Node functions the way the model builds them: the netlist evaluated over
   0/1 ADDs on the even variables, the final copy by an offset-1 shift.
   Protected and swept, they keep their nodes — rebuilding hash-conses to
   the very same ones — and still match the truth-table oracle. *)
let node_functions_survive_sweep () =
  let circuit = Util.small_random_circuit 11 in
  let n = Netlist.Circuit.input_count circuit in
  let m = Dd.Add.manager () in
  let build () =
    let values_i =
      Netlist.Circuit.eval_all (Util.add_logic m) circuit
        (Array.init n (fun j -> Util.var m (2 * j)))
    in
    (values_i, Array.map (Dd.Add.shift m 1) values_i)
  in
  let values_i, values_f = build () in
  let all = Array.append values_i values_f in
  (* garbage: weighted copies never referenced again *)
  Array.iter (fun f -> ignore (Dd.Add.mul m f (Dd.Add.const m 3.5))) all;
  Array.iter (Dd.Add.protect m) all;
  let table_before = Dd.Add.unique_size m in
  Dd.Add.sweep m;
  Alcotest.(check bool) "sweep dropped the garbage" true
    (Dd.Add.unique_size m < table_before);
  let rebuilt_i, rebuilt_f = build () in
  Alcotest.(check bool) "rebuilt node functions are the same nodes" true
    (Array.for_all2 ( == ) values_i rebuilt_i
    && Array.for_all2 ( == ) values_f rebuilt_f);
  List.iter
    (fun (env, nets) ->
      let env_i = Array.make (2 * n) false and env_f = Array.make (2 * n) false in
      Array.iteri
        (fun j b ->
          env_i.(2 * j) <- b;
          env_f.((2 * j) + 1) <- b)
        env;
      Array.iteri
        (fun k expected ->
          Alcotest.(check bool) "initial copy matches the oracle" expected
            (Util.holds values_i.(k) env_i);
          Alcotest.(check bool) "final copy matches the oracle" expected
            (Util.holds values_f.(k) env_f))
        nets)
    (Util.truth_table circuit)

let perf_lifecycle_across_sweep () =
  let m = Dd.Add.manager () in
  let x = Util.ite_var m 0 2.0 0.0 in
  let y = Util.ite_var m 1 3.0 0.0 in
  let s = Dd.Add.add m x y in
  ignore (Dd.Add.add m x y);
  let p = Dd.Add.perf m in
  let hits = Dd.Perf.total_hits p and misses = Dd.Perf.total_misses p in
  Alcotest.(check bool) "counters fired" true (hits > 0 && misses > 0);
  Dd.Add.protect m s;
  Dd.Add.sweep m;
  Alcotest.(check int) "sweep keeps hit counters running" hits
    (Dd.Perf.total_hits p);
  Alcotest.(check int) "sweep keeps miss counters running" misses
    (Dd.Perf.total_misses p);
  (* the computed tables were invalidated, so replaying an op misses *)
  ignore (Dd.Add.add m x y);
  Alcotest.(check bool) "post-sweep ops accumulate" true
    (Dd.Perf.total_misses p > misses);
  Dd.Add.clear_caches m;
  Alcotest.(check int) "clear_caches resets" 0
    (Dd.Perf.total_hits p + Dd.Perf.total_misses p)

let size_tracking () =
  let m = Dd.Add.manager () in
  let t =
    List.fold_left (Dd.Add.add m)
      (Dd.Add.const m 0.0)
      (List.init 5 (fun i -> Util.ite_var m i (float_of_int (i + 1)) 0.0))
  in
  let n = Dd.Add.size t in
  Alcotest.(check int) "size_in agrees with size" n (Dd.Add.size_in m t);
  Alcotest.(check int) "size_in memoized" n (Dd.Add.size_in m t);
  Alcotest.(check (option int)) "size_under at the exact bound" (Some n)
    (Dd.Add.size_under m t ~limit:n);
  Alcotest.(check (option int)) "size_under above the bound" (Some n)
    (Dd.Add.size_under m t ~limit:(n + 10));
  Alcotest.(check (option int)) "size_under below the bound" None
    (Dd.Add.size_under m t ~limit:(n - 1))

let suite =
  [
    Alcotest.test_case "exact/collapsed models vs simulator (cm85)" `Slow
      equivalence_cm85;
    Alcotest.test_case "exact/collapsed models vs simulator (decod)" `Quick
      equivalence_decod;
    Alcotest.test_case "shift renames variables" `Quick shift_renames_variables;
    Alcotest.test_case "gc sweep invariance" `Quick gc_sweep_invariance;
    Alcotest.test_case "node functions survive a sweep" `Quick
      node_functions_survive_sweep;
    Alcotest.test_case "perf lifecycle across sweep" `Quick
      perf_lifecycle_across_sweep;
    Alcotest.test_case "size tracking" `Quick size_tracking;
  ]
