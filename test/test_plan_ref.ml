(* The collapse planner (Dd.Approx.make_plan, probe_size, search and
   build_collapse, over the Hashtbl-indexed flat view and the closure-driven
   Markov passes they ran on) kept here verbatim as the reference.
   [Dd.Approx.compress] must return the physically equal diagram — the
   same node of the same manager — on every input below.  The reference
   counts probe leaves by polymorphic [compare], so it merges [-0.0] and
   [0.0]; no input here has a negative zero (test_approx covers that
   case against the built size). *)

module Ref = struct
  module Markov = struct
    type summary = {
      avg : float array;
      variance : float array;
      min : float array;
      max : float array;
    }

    type view = {
      nodes : Dd.Add.t array;
      var : int array;
      low : int array;
      high : int array;
      leaf_value : float array;
    }

    let view root =
      let order = Dd.Add.fold_nodes root ~init:[] ~f:(fun acc n -> n :: acc) in
      let nodes = Array.of_list order in
      let count = Array.length nodes in
      let index : (int, int) Hashtbl.t = Hashtbl.create (2 * count) in
      Array.iteri (fun i n -> Hashtbl.replace index (Dd.Add.node_id n) i) nodes;
      let var = Array.make count (-1) in
      let low = Array.make count (-1) in
      let high = Array.make count (-1) in
      let leaf_value = Array.make count 0.0 in
      Array.iteri
        (fun i node ->
          match node with
          | Dd.Add.Leaf l -> leaf_value.(i) <- l.value
          | Dd.Add.Node n ->
            var.(i) <- n.var;
            low.(i) <- Hashtbl.find index (Dd.Add.node_id n.low);
            high.(i) <- Hashtbl.find index (Dd.Add.node_id n.high))
        nodes;
      { nodes; var; low; high; leaf_value }

    (* Eq. 7 of the paper: for an internal node n,
         avg(n) = (avg(low) + avg(high)) / 2
         var(n) = (var(low) + (avg(low) - avg(n))^2
                 + var(high) + (avg(high) - avg(n))^2) / 2
       and for a leaf avg = value, var = 0.  Reduction (skipped levels) does not
       affect these: the uniform average of a function is invariant under adding
       variables it does not depend on. *)
    let summary v =
      let count = Array.length v.nodes in
      let avg = Array.make count 0.0 in
      let variance = Array.make count 0.0 in
      let minv = Array.make count 0.0 in
      let maxv = Array.make count 0.0 in
      (* children appear after parents in the order, so a reverse sweep is
         bottom-up *)
      for i = count - 1 downto 0 do
        if v.var.(i) < 0 then begin
          avg.(i) <- v.leaf_value.(i);
          minv.(i) <- v.leaf_value.(i);
          maxv.(i) <- v.leaf_value.(i)
        end
        else begin
          let l = v.low.(i) and h = v.high.(i) in
          let a = 0.5 *. (avg.(l) +. avg.(h)) in
          avg.(i) <- a;
          variance.(i) <-
            0.5
            *. (variance.(l)
               +. ((avg.(l) -. a) ** 2.0)
               +. variance.(h)
               +. ((avg.(h) -. a) ** 2.0));
          minv.(i) <- Float.min minv.(l) minv.(h);
          maxv.(i) <- Float.max maxv.(l) maxv.(h)
        end
      done;
      { avg; variance; min = minv; max = maxv }

    (* Eq. 8: mean square error of replacing the sub-function by its maximum. *)
    let mse_upper s i = s.variance.(i) +. ((s.max.(i) -. s.avg.(i)) ** 2.0)

    let mse_lower s i = s.variance.(i) +. ((s.min.(i) -. s.avg.(i)) ** 2.0)

    (* ------------------------------------------------------------------ *)
    (* Markov passes.  Context encodes the pending initial-copy value threaded
       between a variable pair's two levels: 0 none, 1 low, 2 high.  Layout:
       index 3i + ctx. *)

    (* Probability of the high branch at internal node i reached in context
       ctx.  An initial copy follows the stationary marginal; a final copy
       follows the chain from its pending partner, or the marginal when the
       partner was not on the path. *)
    let p_high v (s : Dd.Markov.statistics) =
      let p_toggle_from_low = Dd.Markov.p_toggle_given ~initial:false s in
      let p_toggle_from_high = Dd.Markov.p_toggle_given ~initial:true s in
      fun i ctx ->
        if v.var.(i) land 1 = 0 then s.sp
        else
          match ctx with
          | 1 -> p_toggle_from_low
          | 2 -> 1.0 -. p_toggle_from_high
          | _ -> s.sp

    (* Context a child of internal node i is reached in: the branch value when
       i is an initial copy and the child tests its final-copy partner. *)
    let child_ctx v i branch child =
      if v.var.(i) land 1 = 0 && v.var.(child) = v.var.(i) + 1 then
        if branch then 2 else 1
      else 0

    let moments v s =
      let count = Array.length v.nodes in
      let m1 = Array.make (3 * count) 0.0 in
      let m2 = Array.make (3 * count) 0.0 in
      let p_high = p_high v s in
      (* even-variable and leaf nodes are context-insensitive, so all three
         slots share one value *)
      for i = count - 1 downto 0 do
        if v.var.(i) < 0 then begin
          let x = v.leaf_value.(i) in
          for ctx = 0 to 2 do
            m1.((3 * i) + ctx) <- x;
            m2.((3 * i) + ctx) <- x *. x
          done
        end
        else begin
          let l = v.low.(i) and h = v.high.(i) in
          let lc = child_ctx v i false l and hc = child_ctx v i true h in
          for ctx = 0 to 2 do
            let p = p_high i ctx in
            m1.((3 * i) + ctx) <-
              ((1.0 -. p) *. m1.((3 * l) + lc)) +. (p *. m1.((3 * h) + hc));
            m2.((3 * i) + ctx) <-
              ((1.0 -. p) *. m2.((3 * l) + lc)) +. (p *. m2.((3 * h) + hc))
          done
        end
      done;
      (m1, m2)

    let masses v s =
      let count = Array.length v.nodes in
      let mass = Array.make (3 * count) 0.0 in
      let p_high = p_high v s in
      mass.(0) <- 1.0;
      for i = 0 to count - 1 do
        if v.var.(i) >= 0 then begin
          let l = v.low.(i) and h = v.high.(i) in
          let lc = child_ctx v i false l and hc = child_ctx v i true h in
          for ctx = 0 to 2 do
            let m = mass.((3 * i) + ctx) in
            if m > 0.0 then begin
              let p = p_high i ctx in
              mass.((3 * l) + lc) <- mass.((3 * l) + lc) +. ((1.0 -. p) *. m);
              mass.((3 * h) + hc) <- mass.((3 * h) + hc) +. (p *. m)
            end
          done
        end
      done;
      mass

    let mixed mass (m1, m2) i ~default1 ~default2 =
      let t = mass.(3 * i) +. mass.((3 * i) + 1) +. mass.((3 * i) + 2) in
      if t <= 0.0 then (0.0, default1, default2)
      else begin
        let acc1 = ref 0.0 and acc2 = ref 0.0 in
        for ctx = 0 to 2 do
          acc1 := !acc1 +. (mass.((3 * i) + ctx) *. m1.((3 * i) + ctx));
          acc2 := !acc2 +. (mass.((3 * i) + ctx) *. m2.((3 * i) + ctx))
        done;
        (t, !acc1 /. t, !acc2 /. t)
      end
  end

  type plan = {
    view : Markov.view;
    ranked : int array;        (* internal-node indices, cheapest first *)
    values : float array;      (* replacement constant per index *)
  }

  let norm_exponent = 0.5

  let make_plan strategy weighting root =
    let d = Markov.view root in
    let s = Markov.summary d in
    let count = Array.length d.nodes in
    let values = Array.make count 0.0 in
    let scores = Array.make count infinity in
    (* the paper's criterion, scaled by a per-node reach weight: the uniform
       average / max / min replaces the node, ranked by its own variance
       (average strategy) or Eq. 8 mse (bound strategies) *)
    let by_own_damage weight =
      for i = 0 to count - 1 do
        if d.var.(i) >= 0 then begin
          values.(i) <-
            (match strategy with
            | Dd.Approx.Average -> s.avg.(i)
            | Dd.Approx.Upper_bound -> s.max.(i)
            | Dd.Approx.Lower_bound -> s.min.(i));
          scores.(i) <-
            weight i
            *.
            (match strategy with
            | Dd.Approx.Average -> s.variance.(i)
            | Dd.Approx.Upper_bound -> Markov.mse_upper s i
            | Dd.Approx.Lower_bound -> Markov.mse_lower s i)
        end
      done
    in
    (match weighting with
    | Dd.Approx.Unweighted -> by_own_damage (fun _ -> 1.0)
    | Dd.Approx.Uniform_mass ->
      let mass = Markov.masses d Dd.Markov.uniform in
      by_own_damage (fun i ->
          mass.(3 * i) +. mass.((3 * i) + 1) +. mass.((3 * i) + 2))
    | Dd.Approx.Robust anchors ->
      let anchors = if anchors = [] then Dd.Markov.default_anchors else anchors in
      let tables =
        List.map (fun a -> (Markov.masses d a, Markov.moments d a)) anchors
      in
      (* each anchor's damage is normalized by the mean capacitance under
         that anchor raised to [norm_exponent]: the evaluation metric is
         relative error, and an absolute error of 5 fF matters more when
         the expected capacitance is 10 than when it is 70 *)
      let norms =
        List.map
          (fun (mass, mom) ->
            let _, e1, _ =
              Markov.mixed mass mom 0 ~default1:s.avg.(0) ~default2:0.0
            in
            1.0 /. Float.max 1e-12 (Float.abs e1 ** norm_exponent))
          tables
      in
      let pairs = List.combine tables norms in
      for i = 0 to count - 1 do
        if d.var.(i) >= 0 then begin
          let default1 = s.avg.(i)
          and default2 = s.variance.(i) +. (s.avg.(i) ** 2.0) in
          let ms =
            List.map
              (fun ((mass, mom), norm) ->
                let m, e1, e2 = Markov.mixed mass mom i ~default1 ~default2 in
                (m, e1, e2, norm))
              pairs
          in
          let r =
            match strategy with
            | Dd.Approx.Upper_bound -> s.max.(i)
            | Dd.Approx.Lower_bound -> s.min.(i)
            | Dd.Approx.Average ->
              (* the constant minimizing the summed normalized damage *)
              let num, den =
                List.fold_left
                  (fun (num, den) (m, e1, _, norm) ->
                    (num +. (norm *. m *. e1), den +. (norm *. m)))
                  (0.0, 0.0) ms
              in
              if den <= 0.0 then s.avg.(i) else num /. den
          in
          values.(i) <- r;
          scores.(i) <-
            List.fold_left
              (fun acc (m, e1, e2, norm) ->
                Float.max acc
                  (norm *. m *. (e2 -. (2.0 *. r *. e1) +. (r *. r))))
              0.0 ms
        end
      done);
    let candidates = ref [] in
    for i = count - 1 downto 0 do
      if d.var.(i) >= 0 then candidates := i :: !candidates
    done;
    let ranked = Array.of_list !candidates in
    Array.sort
      (fun a b ->
        match compare scores.(a) scores.(b) with 0 -> compare a b | c -> c)
      ranked;
    { view = d; ranked; values }

  (* Size of the collapse of the first [k] candidates, without building it:
     kept internal nodes reachable from the root avoiding collapsed ones,
     plus the distinct leaf constants of the result. *)
  let probe_size plan k =
    let d = plan.view in
    let count = Array.length d.nodes in
    let collapsed = Array.make count false in
    for i = 0 to k - 1 do
      collapsed.(plan.ranked.(i)) <- true
    done;
    let visited = Array.make count false in
    let leaves : (float, unit) Hashtbl.t = Hashtbl.create 64 in
    let internal = ref 0 in
    (* depth is bounded by the variable count, so recursion is safe *)
    let rec go i =
      if not visited.(i) then begin
        visited.(i) <- true;
        if d.var.(i) < 0 then Hashtbl.replace leaves d.leaf_value.(i) ()
        else if collapsed.(i) then Hashtbl.replace leaves plan.values.(i) ()
        else begin
          incr internal;
          go d.low.(i);
          go d.high.(i)
        end
      end
    in
    go 0;
    !internal + Hashtbl.length leaves

  let build_collapse mgr plan k =
    let d = plan.view in
    let count = Array.length d.nodes in
    let collapsed = Array.make count false in
    for i = 0 to k - 1 do
      collapsed.(plan.ranked.(i)) <- true
    done;
    let memo = Array.make count None in
    let rec go i =
      match memo.(i) with
      | Some r -> r
      | None ->
        let r =
          if d.var.(i) < 0 then d.nodes.(i)
          else if collapsed.(i) then Dd.Add.const mgr plan.values.(i)
          else Dd.Add.make_node mgr d.var.(i) (go d.low.(i)) (go d.high.(i))
        in
        memo.(i) <- Some r;
        r
    in
    go 0

  (* Minimal-ish k with probe_size <= max_size: plain bisection over [0,
     total] (size decreases essentially monotonically in k), with a small
     relative tolerance since each probe is an O(nodes) sweep. *)
  let search mgr plan max_size =
    let total = Array.length plan.ranked in
    let tolerance = max 1 (total / 256) in
    let rec bisect lo hi =
      (* invariant: probe_size hi fits, lo does not *)
      if hi - lo <= tolerance then hi
      else begin
        let mid = (lo + hi) / 2 in
        if probe_size plan mid <= max_size then bisect lo mid else bisect mid hi
      end
    in
    let k = if probe_size plan 0 <= max_size then 0 else bisect 0 total in
    let result = build_collapse mgr plan k in
    if Dd.Add.size_in mgr result <= max_size then result
    else build_collapse mgr plan total

  let compress ?(weighting = Dd.Approx.default_weighting) mgr ~strategy
      ~max_size root =
    if Dd.Add.size_under mgr root ~limit:max_size <> None then root
    else search mgr (make_plan strategy weighting root) max_size
end

let strategies =
  [
    ("average", Dd.Approx.Average);
    ("upper", Dd.Approx.Upper_bound);
    ("lower", Dd.Approx.Lower_bound);
  ]

(* Anchors at the edges of the statistics space: chains that never toggle
   (st = 0, including sp = 0 and 1), and toggle rates at their feasible
   maximum st = 2 min(sp, 1 - sp). *)
let edge_anchors =
  Dd.Approx.Robust
    (List.map
       (fun (sp, st) -> { Dd.Markov.sp; st })
       [
         (0.0, 0.0);
         (1.0, 0.0);
         (0.5, 0.0);
         (0.3, 0.0);
         (0.5, 1.0);
         (0.25, 0.5);
         (0.75, 0.5);
         (0.1, 0.2);
       ])

let weightings =
  [
    ("unweighted", Dd.Approx.Unweighted);
    ("uniform-mass", Dd.Approx.Uniform_mass);
    ("robust", Dd.Approx.Robust []);
    ("robust-edges", edge_anchors);
    ("robust-one", Dd.Approx.Robust [ { Dd.Markov.sp = 0.4; st = 0.3 } ]);
  ]

let check_same name mgr root ~max_sizes =
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun (wname, weighting) ->
          List.iter
            (fun max_size ->
              let expected =
                Ref.compress ~weighting mgr ~strategy ~max_size root
              in
              let actual =
                Dd.Approx.compress ~weighting mgr ~strategy ~max_size root
              in
              if not (Dd.Add.equal expected actual) then
                Alcotest.failf
                  "%s %s/%s at max_size %d: reference %d nodes, planner %d"
                  name sname wname max_size
                  (Dd.Add.size_in mgr expected)
                  (Dd.Add.size_in mgr actual))
            max_sizes)
        weightings)
    strategies

let random_diagrams =
  Util.qtest ~count:100 "random diagrams collapse to the reference node"
    Test_approx.arbitrary (fun spec ->
      check_same "random" Test_approx.mgr (Test_approx.build spec)
        ~max_sizes:[ 1; 2; 3; 5; 8; 13; 20 ];
      true)

let exact_models () =
  List.iter
    (fun name ->
      let circuit =
        match Circuits.Suite.find name with
        | Some e -> e.Circuits.Suite.build ()
        | None -> Alcotest.failf "unknown suite circuit %s" name
      in
      let model = Powermodel.Model.build circuit in
      check_same (name ^ " exact") model.Powermodel.Model.add_manager
        model.Powermodel.Model.cap ~max_sizes:[ 20; 150; 600 ])
    [ "decod"; "cmb"; "cm85"; "cm150" ]

let suite =
  [
    random_diagrams;
    Alcotest.test_case "exact Table 1 models collapse to the reference node"
      `Quick exact_models;
  ]
