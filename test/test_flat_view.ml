(* The analytic passes over the flat view (Dd.Markov.summary, moments,
   masses, mixed_into) against the per-node-Hashtbl implementations they
   replaced, kept here verbatim as the reference.  Every quantity must be
   bit-identical: collapse decisions, estimates and serve answers are
   derived from them. *)

module Ref = struct
  (* Markov.p_toggle_given before the st = 0 guard: 0 / 0 at sp = 0 or 1
     with st = 0, so those points are excluded below. *)
  let p_toggle_given ~initial (s : Dd.Markov.statistics) =
    if initial then Float.min 1.0 (s.st /. (2.0 *. s.sp))
    else Float.min 1.0 (s.st /. (2.0 *. (1.0 -. s.sp)))

  (* ---- Markov.analyze / node_mass / node_moments ---- *)

  let p_high_initial (s : Dd.Markov.statistics) = s.sp

  let p_high_final ~pending (s : Dd.Markov.statistics) =
    match pending with
    | Some true -> 1.0 -. p_toggle_given ~initial:true s
    | Some false -> p_toggle_given ~initial:false s
    | None -> s.sp (* partner not on the path: stationary marginal *)

  let n_contexts = 3

  let ctx_none = 0
  let ctx_low = 1
  let ctx_high = 2

  let pending_of_ctx = function
    | 1 -> Some false
    | 2 -> Some true
    | _ -> None

  let is_initial_var v = v land 1 = 0

  let child_ctx parent_var branch child =
    if is_initial_var parent_var then begin
      match child with
      | Dd.Add.Node c when c.var = parent_var + 1 ->
        if branch then ctx_high else ctx_low
      | Dd.Add.Node _ | Dd.Add.Leaf _ -> ctx_none
    end
    else ctx_none

  type tables = {
    mass : (int, float array) Hashtbl.t;     (* per node, per context *)
    moment1 : (int, float array) Hashtbl.t;
    moment2 : (int, float array) Hashtbl.t;
  }

  let analyze stats_point root =
    let mass : (int, float array) Hashtbl.t = Hashtbl.create 256 in
    let moment1 : (int, float array) Hashtbl.t = Hashtbl.create 256 in
    let moment2 : (int, float array) Hashtbl.t = Hashtbl.create 256 in
    let cell table id init =
      match Hashtbl.find_opt table id with
      | Some a -> a
      | None ->
        let a = Array.make n_contexts init in
        Hashtbl.add table id a;
        a
    in
    (* Bottom-up conditional moments (lazily per encountered context). *)
    let rec moments node ctx =
      let id = Dd.Add.node_id node in
      let m1 = cell moment1 id nan and m2 = cell moment2 id nan in
      if Float.is_nan m1.(ctx) then begin
        let v1, v2 =
          match node with
          | Dd.Add.Leaf l -> (l.value, l.value *. l.value)
          | Dd.Add.Node n ->
            let p_high =
              if is_initial_var n.var then p_high_initial stats_point
              else p_high_final ~pending:(pending_of_ctx ctx) stats_point
            in
            let l1, l2 = moments n.low (child_ctx n.var false n.low) in
            let h1, h2 = moments n.high (child_ctx n.var true n.high) in
            ( ((1.0 -. p_high) *. l1) +. (p_high *. h1),
              ((1.0 -. p_high) *. l2) +. (p_high *. h2) )
        in
        m1.(ctx) <- v1;
        m2.(ctx) <- v2
      end;
      (m1.(ctx), m2.(ctx))
    in
    let _ = moments root ctx_none in
    (* Top-down masses over the parents-first order. *)
    let order = Dd.Add.fold_nodes root ~init:[] ~f:(fun acc n -> n :: acc) in
    (cell mass (Dd.Add.node_id root) 0.0).(ctx_none) <- 1.0;
    List.iter
      (fun node ->
        match node with
        | Dd.Add.Leaf _ -> ()
        | Dd.Add.Node n ->
          let here = cell mass (Dd.Add.node_id node) 0.0 in
          let flow ctx m =
            if m > 0.0 then begin
              let p_high =
                if is_initial_var n.var then p_high_initial stats_point
                else p_high_final ~pending:(pending_of_ctx ctx) stats_point
              in
              let lo = cell mass (Dd.Add.node_id n.low) 0.0 in
              let hi = cell mass (Dd.Add.node_id n.high) 0.0 in
              let lo_ctx = child_ctx n.var false n.low in
              let hi_ctx = child_ctx n.var true n.high in
              lo.(lo_ctx) <- lo.(lo_ctx) +. ((1.0 -. p_high) *. m);
              hi.(hi_ctx) <- hi.(hi_ctx) +. (p_high *. m)
            end
          in
          for ctx = 0 to n_contexts - 1 do
            flow ctx here.(ctx)
          done)
      order;
    { mass; moment1; moment2 }

  let node_mass t id =
    match Hashtbl.find_opt t.mass id with
    | None -> 0.0
    | Some a -> a.(0) +. a.(1) +. a.(2)

  let node_moments t id ~default =
    match
      ( Hashtbl.find_opt t.mass id,
        Hashtbl.find_opt t.moment1 id,
        Hashtbl.find_opt t.moment2 id )
    with
    | Some masses, Some m1, Some m2 ->
      let total = masses.(0) +. masses.(1) +. masses.(2) in
      if total <= 0.0 then (0.0, fst default, snd default)
      else begin
        let acc1 = ref 0.0 and acc2 = ref 0.0 in
        for ctx = 0 to n_contexts - 1 do
          if masses.(ctx) > 0.0 then begin
            acc1 := !acc1 +. (masses.(ctx) *. m1.(ctx));
            acc2 := !acc2 +. (masses.(ctx) *. m2.(ctx))
          end
        done;
        (total, !acc1 /. total, !acc2 /. total)
      end
    | _ -> (0.0, fst default, snd default)

  (* ---- Add_stats.all ---- *)

  type t = {
    avg : float;
    variance : float;
    min : float;
    max : float;
  }

  let combine lo hi =
    let avg = 0.5 *. (lo.avg +. hi.avg) in
    let variance =
      0.5
      *. (lo.variance
         +. ((lo.avg -. avg) ** 2.0)
         +. hi.variance
         +. ((hi.avg -. avg) ** 2.0))
    in
    {
      avg;
      variance;
      min = Float.min lo.min hi.min;
      max = Float.max lo.max hi.max;
    }

  let of_leaf value = { avg = value; variance = 0.0; min = value; max = value }

  let all nodes_root =
    let table : (int, t) Hashtbl.t = Hashtbl.create 256 in
    let rec go (node : Dd.Add.t) =
      let id = Dd.Add.node_id node in
      match Hashtbl.find_opt table id with
      | Some s -> s
      | None ->
        let s =
          match node with
          | Dd.Add.Leaf l -> of_leaf l.value
          | Dd.Add.Node n -> combine (go n.low) (go n.high)
        in
        Hashtbl.add table id s;
        s
    in
    let _root_stats = go nodes_root in
    table
end

let bits_equal what a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: reference %h, flat view %h" (what ()) a b

(* The anchors, boundary points serve accepts (including clamped
   infeasible ones), and random feasible points.  Only sp in {0, 1} with
   st = 0 is left out: the reference divides 0 by 0 there. *)
let points seed =
  let rng = Random.State.make [| seed |] in
  let random =
    List.init 8 (fun _ ->
        let sp = Random.State.float rng 1.0 in
        let st = Random.State.float rng (2.0 *. Float.min sp (1.0 -. sp)) in
        { Dd.Markov.sp; st })
  in
  (Dd.Markov.uniform :: Dd.Markov.default_anchors)
  @ List.map
      (fun (sp, st) -> { Dd.Markov.sp; st })
      [ (0.5, 0.0); (0.5, 1.0); (0.2, 0.4); (0.1, 0.9); (0.0, 0.5); (1.0, 0.5) ]
  @ random

(* Every node's Eq. 7 statistics, and its mass and mixed moments at every
   point; returns the root expectations for further checks. *)
let check_diagram name ~seed mgr root =
  let v = Dd.Markov.view mgr root in
  let s = Dd.Markov.summary v in
  let reference = Ref.all root in
  Alcotest.(check int) (name ^ ": view covers every node")
    (Hashtbl.length reference) (Array.length v.nodes);
  Array.iteri
    (fun i node ->
      let r = Hashtbl.find reference (Dd.Add.node_id node) in
      let what field () = Printf.sprintf "%s node %d %s" name i field in
      bits_equal (what "avg") r.avg s.avg.(i);
      bits_equal (what "variance") r.variance s.variance.(i);
      bits_equal (what "min") r.min s.min.(i);
      bits_equal (what "max") r.max s.max.(i))
    v.nodes;
  List.map
    (fun (p : Dd.Markov.statistics) ->
      let tables = Ref.analyze p root in
      let mass = Dd.Markov.masses v p in
      let m1, m2 = Dd.Markov.moments v p in
      let count = Array.length v.nodes in
      let rows =
        {
          Dd.Markov.m = Array.make count 0.0;
          e1 = Array.make count 0.0;
          e2 = Array.make count 0.0;
        }
      in
      Dd.Markov.mixed_into v s mass m1 m2 rows 0;
      Array.iteri
        (fun i node ->
          let id = Dd.Add.node_id node in
          let what field () =
            Printf.sprintf "%s node %d at (%g, %g) %s" name i p.sp p.st field
          in
          let default1 = s.avg.(i)
          and default2 = s.variance.(i) +. (s.avg.(i) ** 2.0) in
          bits_equal (what "mass") (Ref.node_mass tables id)
            (mass.(3 * i) +. mass.((3 * i) + 1) +. mass.((3 * i) + 2));
          let rm, r1, r2 =
            Ref.node_moments tables id ~default:(default1, default2)
          in
          bits_equal (what "mixed mass") rm rows.m.(i);
          bits_equal (what "mixed E1") r1 rows.e1.(i);
          bits_equal (what "mixed E2") r2 rows.e2.(i))
        v.nodes;
      let _, expected, _ =
        Ref.node_moments tables (Dd.Add.node_id root) ~default:(0.0, 0.0)
      in
      bits_equal
        (fun () -> Printf.sprintf "%s expectation at (%g, %g)" name p.sp p.st)
        expected m1.(0);
      (p, expected))
    (points seed)

let check_model name ~seed model =
  let cap = model.Powermodel.Model.cap in
  let expectations =
    check_diagram name ~seed model.Powermodel.Model.add_manager cap
  in
  List.iter
    (fun ((p : Dd.Markov.statistics), expected) ->
      bits_equal
        (fun () ->
          Printf.sprintf "%s Analysis.expected_capacitance at (%g, %g)" name
            p.sp p.st)
        expected
        (Powermodel.Analysis.expected_capacitance model ~sp:p.sp ~st:p.st))
    expectations;
  bits_equal
    (fun () -> name ^ " Model.average_capacitance")
    (Hashtbl.find (Ref.all cap) (Dd.Add.node_id cap)).avg
    (Powermodel.Model.average_capacitance model)

let entry name =
  match Circuits.Suite.find name with
  | Some e -> e
  | None -> Alcotest.failf "unknown suite circuit %s" name

(* Average and bound models of the seven serve-workload rows at Table 1
   MAX; exact models of the rows small enough to keep the suite quick. *)
let table1_models () =
  List.iteri
    (fun seed name ->
      let e = entry name in
      let circuit = e.Circuits.Suite.build () in
      check_model (name ^ " avg") ~seed
        (Powermodel.Model.build ~max_size:e.Circuits.Suite.max_avg circuit);
      check_model (name ^ " ub") ~seed
        (Powermodel.Model.build ~strategy:Dd.Approx.Upper_bound
           ~max_size:e.Circuits.Suite.max_ub circuit);
      if List.mem name [ "decod"; "cmb"; "cm85"; "cm150" ] then
        check_model (name ^ " exact") ~seed (Powermodel.Model.build circuit))
    [ "decod"; "x2"; "cmb"; "cm85"; "alu2"; "cm150"; "mux" ]

let random_models () =
  List.iter
    (fun seed ->
      let circuit = Util.small_random_circuit seed in
      check_model (Printf.sprintf "random-%d exact" seed) ~seed
        (Powermodel.Model.build circuit);
      check_model (Printf.sprintf "random-%d collapsed" seed) ~seed
        (Powermodel.Model.build ~max_size:20 circuit))
    [ 61; 62; 63; 64; 65 ]

let reordered_model () =
  let circuit = (entry "cm85").Circuits.Suite.build () in
  check_model "cm85 info+sift exact" ~seed:7
    (Powermodel.Model.build ~reorder:Powermodel.Reorder.Info_then_sift circuit);
  check_model "cm85 info+sift avg" ~seed:8
    (Powermodel.Model.build ~reorder:Powermodel.Reorder.Info_then_sift
       ~max_size:500 circuit)

let random_diagrams =
  Util.qtest ~count:200 "random diagrams match the reference bit for bit"
    (QCheck.pair Test_add_stats.arbitrary QCheck.small_nat)
    (fun (spec, seed) ->
      ignore
        (check_diagram "random" ~seed Test_add_stats.mgr
           (Test_add_stats.build spec));
      true)

let suite =
  [
    Alcotest.test_case "Table 1 models match the reference bit for bit" `Quick
      table1_models;
    Alcotest.test_case "random circuit models match the reference bit for bit"
      `Quick random_models;
    Alcotest.test_case "info+sift model matches the reference bit for bit"
      `Quick reordered_model;
    random_diagrams;
  ]
