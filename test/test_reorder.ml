(* Dynamic variable reordering: in-place sifting and static info orders
   must be invisible to every consumer — evaluations bit-for-bit
   unchanged, pair adjacency kept, size accounting fresh, compiled
   digests identical across policies and job counts. *)

let bits_equal msg expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h" msg expected actual

let check_permutation msg ord n =
  Alcotest.(check int) (msg ^ ": length") n (Array.length ord);
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        Alcotest.failf "%s: not a permutation (%d)" msg v;
      seen.(v) <- true)
    ord

(* ---- ADD sifting: every terminal value bit-for-bit unchanged ---- *)

let qcheck_add_sift =
  let vars = 6 in
  Util.qtest ~count:80 "add sift preserves all values"
    (Util.expr_arbitrary ~vars) (fun e ->
      let add_mgr = Dd.Add.manager () in
      let f =
        Dd.Add.add add_mgr
          (Dd.Add.mul add_mgr (Util.add_of_expr add_mgr e)
             (Dd.Add.const add_mgr 2.375))
          (Dd.Add.const add_mgr 0.375)
      in
      let expected =
        List.map (fun env -> (env, Dd.Add.eval f env)) (Util.assignments vars)
      in
      Dd.Add.protect add_mgr f;
      let st = Dd.Add.sift add_mgr in
      if st.Dd.Add.size_after > st.Dd.Add.size_before then
        Alcotest.failf "sift grew the live set: %d -> %d"
          st.Dd.Add.size_before st.Dd.Add.size_after;
      List.for_all
        (fun (env, v) ->
          Int64.bits_of_float (Dd.Add.eval f env) = Int64.bits_of_float v)
        expected)

(* ---- pair-grouped sifting keeps every (2j, 2j+1) pair adjacent ---- *)

let pair_adjacency () =
  let circuit =
    match Circuits.Suite.find "cm85" with
    | Some e -> e.Circuits.Suite.build ()
    | None -> Alcotest.fail "cm85 missing from the suite"
  in
  let model = Powermodel.Model.build ~reorder:Powermodel.Reorder.Sift circuit in
  let vars = 2 * Netlist.Circuit.input_count circuit in
  let ord = Dd.Add.var_order model.Powermodel.Model.add_manager ~vars in
  check_permutation "sifted order" ord vars;
  Array.iteri
    (fun l v ->
      if l land 1 = 0 then begin
        if v land 1 <> 0 then
          Alcotest.failf "level %d holds odd variable %d" l v;
        if ord.(l + 1) <> v + 1 then
          Alcotest.failf "pair split: level %d has %d, level %d has %d" l v
            (l + 1)
            ord.(l + 1)
      end)
    ord;
  if model.Powermodel.Model.stats.Powermodel.Model.sift_swaps <= 0 then
    Alcotest.fail "cm85 sift spent no swaps"

(* ---- size accounting must stay fresh across in-place swaps ---- *)

let size_stamps_after_swaps () =
  let circuit =
    match Circuits.Suite.find "cm85" with
    | Some e -> e.Circuits.Suite.build ()
    | None -> Alcotest.fail "cm85 missing from the suite"
  in
  let model = Powermodel.Model.build circuit in
  let mgr = model.Powermodel.Model.add_manager in
  let cap = model.Powermodel.Model.cap in
  let check_sizes what =
    let truth = Dd.Add.size cap in
    Alcotest.(check int) (what ^ ": size_in") truth (Dd.Add.size_in mgr cap);
    (match Dd.Add.size_under mgr cap ~limit:truth with
    | Some s -> Alcotest.(check int) (what ^ ": size_under at limit") truth s
    | None -> Alcotest.failf "%s: size_under rejected its exact size" what);
    match Dd.Add.size_under mgr cap ~limit:(truth - 1) with
    | None -> ()
    | Some s ->
      Alcotest.failf "%s: size_under accepted %d over limit %d" what s
        (truth - 1)
  in
  check_sizes "before";
  (* a swap rewrites upper-level nodes in place: a stale memo would keep
     reporting the pre-swap size *)
  Dd.Add.swap_adjacent mgr 0;
  check_sizes "after swap 0";
  Dd.Add.swap_adjacent mgr 3;
  check_sizes "after swap 3";
  ignore (Dd.Add.sift ~group_pairs:true mgr : Dd.Add.sift_stats);
  check_sizes "after sift"

(* ---- reorder_to: exact roundtrip through an arbitrary order ---- *)

let reorder_roundtrip () =
  let circuit =
    match Circuits.Suite.find "decod" with
    | Some e -> e.Circuits.Suite.build ()
    | None -> Alcotest.fail "decod missing from the suite"
  in
  let model = Powermodel.Model.build circuit in
  let mgr = model.Powermodel.Model.add_manager in
  let cap = model.Powermodel.Model.cap in
  let n = Netlist.Circuit.input_count circuit in
  let vars = 2 * n in
  let before = Dd.Add.var_order mgr ~vars in
  let size0 = Dd.Add.size_in mgr cap in
  let sample =
    let prng = Stimulus.Prng.create 11 in
    Stimulus.Generator.sequence prng ~bits:n ~length:40 ~sp:0.5 ~st:0.5
  in
  let expected =
    Array.map
      (fun x_f ->
        Powermodel.Model.switched_capacitance model ~x_i:sample.(0) ~x_f)
      sample
  in
  (* reversed pair order: pair k goes to pair slot n-1-k *)
  let target =
    Array.init vars (fun l -> (2 * (n - 1 - (l / 2))) + (l land 1))
  in
  let st = Dd.Add.reorder_to mgr target in
  Alcotest.(check bool) "swaps spent" true (st.Dd.Add.swaps > 0);
  Alcotest.(check (array int)) "order reached" target
    (Dd.Add.var_order mgr ~vars);
  Array.iteri
    (fun k x_f ->
      bits_equal
        (Printf.sprintf "reordered eval %d" k)
        expected.(k)
        (Powermodel.Model.switched_capacitance model ~x_i:sample.(0) ~x_f))
    sample;
  ignore (Dd.Add.reorder_to mgr before : Dd.Add.sift_stats);
  Alcotest.(check (array int)) "order restored" before
    (Dd.Add.var_order mgr ~vars);
  (* canonicity: same function + same order = exactly the same size *)
  Alcotest.(check int) "size restored" size0 (Dd.Add.size_in mgr cap)

(* ---- static orders: set_order'd managers build the same functions ---- *)

let qcheck_set_order =
  let vars = 6 in
  Util.qtest ~count:60 "set_order builds the same functions"
    (Util.expr_arbitrary ~vars) (fun e ->
      let natural = Dd.Add.manager () in
      let f_nat = Util.add_of_expr natural e in
      let add_mgr = Dd.Add.manager () in
      (* reversed order *)
      let ord = Array.init vars (fun l -> vars - 1 - l) in
      Dd.Add.set_order add_mgr ord;
      let f = Util.add_of_expr add_mgr e in
      let a = Dd.Add.mul add_mgr f (Dd.Add.const add_mgr 1.5) in
      List.for_all
        (fun env ->
          Util.holds f env = Util.holds f_nat env
          && Int64.bits_of_float (Dd.Add.eval a env)
             = Int64.bits_of_float (if Util.holds f_nat env then 1.5 else 0.0))
        (Util.assignments vars))

(* ---- set_order rejects non-permutations and late calls ---- *)

let set_order_checks () =
  let not_perm =
    Invalid_argument "Add.set_order: not a permutation of 0..n-1"
  in
  Alcotest.check_raises "duplicate" not_perm (fun () ->
      Dd.Add.set_order (Dd.Add.manager ()) [| 0; 1; 1 |]);
  Alcotest.check_raises "out of range" not_perm (fun () ->
      Dd.Add.set_order (Dd.Add.manager ()) [| 0; 3; 1 |]);
  let m = Dd.Add.manager () in
  ignore (Util.var m 0 : Dd.Add.t);
  Alcotest.check_raises "after a node"
    (Invalid_argument "Add.set_order: manager already contains nodes")
    (fun () -> Dd.Add.set_order m [| 1; 0 |])

(* ---- the info measure produces a valid, deterministic pair order ---- *)

let info_order_shape () =
  List.iter
    (fun name ->
      match Circuits.Suite.find name with
      | None -> Alcotest.failf "%s missing from the suite" name
      | Some e ->
        let circuit = e.Circuits.Suite.build () in
        let n = Netlist.Circuit.input_count circuit in
        let po = Powermodel.Reorder.info_pair_order circuit in
        check_permutation (name ^ " pair order") po n;
        Alcotest.(check (array int))
          (name ^ " deterministic") po
          (Powermodel.Reorder.info_pair_order circuit);
        let ord = Powermodel.Reorder.order ~inputs:n po in
        check_permutation (name ^ " var order") ord (2 * n);
        Array.iteri
          (fun l v ->
            let want =
              if l land 1 = 0 then 2 * po.(l / 2) else (2 * po.(l / 2)) + 1
            in
            Alcotest.(check int)
              (Printf.sprintf "%s var at level %d" name l)
              want v)
          ord)
    [ "cm85"; "decod"; "x2" ]

(* ---- every policy yields byte-identical estimates; sifting shrinks ---- *)

let policies_agree_and_sift_shrinks () =
  let circuit =
    match Circuits.Suite.find "cm85" with
    | Some e -> e.Circuits.Suite.build ()
    | None -> Alcotest.fail "cm85 missing from the suite"
  in
  let n = Netlist.Circuit.input_count circuit in
  let prng = Stimulus.Prng.create 29 in
  let vectors =
    Stimulus.Generator.sequence prng ~bits:n ~length:120 ~sp:0.5 ~st:0.4
  in
  let models =
    List.map
      (fun p -> (p, Powermodel.Model.build ~reorder:p circuit))
      Powermodel.Reorder.all
  in
  let reference = List.assoc Powermodel.Reorder.Declared models in
  List.iter
    (fun (p, m) ->
      let tag = Powermodel.Reorder.to_string p in
      for k = 0 to Array.length vectors - 2 do
        bits_equal
          (Printf.sprintf "%s transition %d" tag k)
          (Powermodel.Model.switched_capacitance reference ~x_i:vectors.(k)
             ~x_f:vectors.(k + 1))
          (Powermodel.Model.switched_capacitance m ~x_i:vectors.(k)
             ~x_f:vectors.(k + 1))
      done;
      (* the analytic consumers must agree bit-for-bit too *)
      bits_equal (tag ^ " expectation")
        (Powermodel.Analysis.expected_capacitance reference ~sp:0.5 ~st:0.3)
        (Powermodel.Analysis.expected_capacitance m ~sp:0.5 ~st:0.3);
      let s_ref = Powermodel.Analysis.toggle_sensitivities reference in
      let s_m = Powermodel.Analysis.toggle_sensitivities m in
      Array.iteri
        (fun j v -> bits_equal (Printf.sprintf "%s sensitivity %d" tag j)
            s_ref.(j) v)
        s_m;
      if Powermodel.Model.size m > Powermodel.Model.size reference then
        Alcotest.failf "%s grew the model: %d > %d" tag
          (Powermodel.Model.size m)
          (Powermodel.Model.size reference))
    models;
  let sifted = List.assoc Powermodel.Reorder.Sift models in
  if Powermodel.Model.size sifted >= Powermodel.Model.size reference then
    Alcotest.failf "sifting did not shrink exact cm85: %d >= %d"
      (Powermodel.Model.size sifted)
      (Powermodel.Model.size reference)

(* ---- compiled digests: identical across policies and job counts ---- *)

let compiled_across_policies () =
  let circuit =
    match Circuits.Suite.find "cm85" with
    | Some e -> e.Circuits.Suite.build ()
    | None -> Alcotest.fail "cm85 missing from the suite"
  in
  let n = Netlist.Circuit.input_count circuit in
  let prng = Stimulus.Prng.create 31 in
  let vectors =
    Stimulus.Generator.sequence prng ~bits:n ~length:200 ~sp:0.5 ~st:0.5
  in
  let outputs =
    List.map
      (fun p ->
        let model = Powermodel.Model.build ~reorder:p ~max_size:500 circuit in
        let compiled = Powermodel.Model.compile model in
        let inputs, count =
          Powermodel.Model.pack_transitions compiled vectors
        in
        let one = Powermodel.Model.eval_batch ~jobs:1 compiled ~inputs ~n:count in
        let four =
          Powermodel.Model.eval_batch ~jobs:4 compiled ~inputs ~n:count
        in
        Array.iteri
          (fun k v ->
            bits_equal
              (Printf.sprintf "%s jobs=1 vs jobs=4 at %d"
                 (Powermodel.Reorder.to_string p) k)
              one.(k) v)
          four;
        (p, one))
      Powermodel.Reorder.all
  in
  let _, reference = List.hd outputs in
  List.iter
    (fun (p, out) ->
      Array.iteri
        (fun k v ->
          bits_equal
            (Printf.sprintf "%s vs declared at %d"
               (Powermodel.Reorder.to_string p) k)
            reference.(k) v)
        out)
    outputs

(* ---- swap budget: a ceiling caps sifting without failing a build ---- *)

let swap_budget_caps () =
  let circuit =
    match Circuits.Suite.find "cm85" with
    | Some e -> e.Circuits.Suite.build ()
    | None -> Alcotest.fail "cm85 missing from the suite"
  in
  let free = Powermodel.Model.build ~reorder:Powermodel.Reorder.Sift circuit in
  let free_swaps = free.Powermodel.Model.stats.Powermodel.Model.sift_swaps in
  Alcotest.(check bool) "uncapped sift swaps" true (free_swaps > 0);
  let ceiling = max 1 (free_swaps / 4) in
  let budget = Guard.Budget.create ~swap_ceiling:ceiling () in
  let capped =
    Powermodel.Model.build ~budget ~reorder:Powermodel.Reorder.Sift circuit
  in
  let spent = capped.Powermodel.Model.stats.Powermodel.Model.sift_swaps in
  if spent > ceiling then
    Alcotest.failf "capped sift overspent: %d > %d" spent ceiling;
  (* the capped model still answers identically *)
  let x_i = Array.make (Netlist.Circuit.input_count circuit) false in
  let x_f = Array.make (Netlist.Circuit.input_count circuit) true in
  bits_equal "capped estimate"
    (Powermodel.Model.switched_capacitance free ~x_i ~x_f)
    (Powermodel.Model.switched_capacitance capped ~x_i ~x_f)

(* ---- policy names ---- *)

let policy_names () =
  List.iter
    (fun (s, p) ->
      match Powermodel.Reorder.of_string s with
      | Some q when q = p -> ()
      | _ -> Alcotest.failf "of_string %S" s)
    [
      ("declared", Powermodel.Reorder.Declared);
      ("info", Powermodel.Reorder.Info_static);
      ("sift", Powermodel.Reorder.Sift);
      ("info+sift", Powermodel.Reorder.Info_then_sift);
      ("INFO_THEN_SIFT", Powermodel.Reorder.Info_then_sift);
    ];
  Alcotest.(check bool) "unknown rejected" true
    (Powermodel.Reorder.of_string "random" = None);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("roundtrip " ^ Powermodel.Reorder.to_string p)
        true
        (Powermodel.Reorder.of_string (Powermodel.Reorder.to_string p)
        = Some p))
    Powermodel.Reorder.all

(* ---- approx resift: same values as the unsifted compression ---- *)

let approx_resift () =
  let circuit =
    match Circuits.Suite.find "cm85" with
    | Some e -> e.Circuits.Suite.build ()
    | None -> Alcotest.fail "cm85 missing from the suite"
  in
  let n = Netlist.Circuit.input_count circuit in
  let build resift =
    let model = Powermodel.Model.build circuit in
    let mgr = model.Powermodel.Model.add_manager in
    let c =
      Dd.Approx.compress ~resift mgr ~strategy:Dd.Approx.Average
        ~max_size:300 model.Powermodel.Model.cap
    in
    (mgr, c)
  in
  let _, plain = build false in
  let mgr, sifted = build true in
  if Dd.Add.size_in mgr sifted > Dd.Add.size plain then
    Alcotest.failf "resift grew the compressed model: %d > %d"
      (Dd.Add.size_in mgr sifted) (Dd.Add.size plain);
  let prng = Stimulus.Prng.create 37 in
  let vectors =
    Stimulus.Generator.sequence prng ~bits:n ~length:60 ~sp:0.5 ~st:0.5
  in
  Array.iteri
    (fun k x_f ->
      let env = Powermodel.Vars.env ~x_i:vectors.(0) ~x_f in
      bits_equal
        (Printf.sprintf "resift value %d" k)
        (Dd.Add.eval plain env) (Dd.Add.eval sifted env))
    vectors

let suite =
  [
    qcheck_add_sift;
    Alcotest.test_case "pair adjacency after grouped sift" `Quick
      pair_adjacency;
    Alcotest.test_case "size stamps fresh across swaps" `Quick
      size_stamps_after_swaps;
    Alcotest.test_case "reorder_to roundtrip" `Quick reorder_roundtrip;
    qcheck_set_order;
    Alcotest.test_case "set_order input checks" `Quick set_order_checks;
    Alcotest.test_case "info order shape" `Quick info_order_shape;
    Alcotest.test_case "policies agree, sifting shrinks" `Quick
      policies_agree_and_sift_shrinks;
    Alcotest.test_case "compiled digests across policies/jobs" `Quick
      compiled_across_policies;
    Alcotest.test_case "swap budget caps sifting" `Quick swap_budget_caps;
    Alcotest.test_case "policy plumbing" `Quick policy_names;
    Alcotest.test_case "approx resift" `Quick approx_resift;
  ]
