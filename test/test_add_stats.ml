(* Statistics (Eq. 5-8) and Markov analysis: validated against brute-force
   enumeration over all assignments / transitions. *)

let mgr = Dd.Add.manager ()

let vars = 4

(* reuse the spec-ADD generator idea, small and self-contained *)
let spec_gen =
  let open QCheck.Gen in
  let value = map (fun k -> float_of_int k) (int_bound 10) in
  sized_size (int_bound 3) @@ fix (fun self fuel ->
      if fuel = 0 then map (fun v -> `Const v) value
      else
        frequency
          [
            (1, map (fun v -> `Const v) value);
            (3,
             map3
               (fun g a b -> `Ite (g, a, b))
               (Util.expr_gen ~vars) (self (fuel - 1)) (self (fuel - 1)));
          ])

let rec build = function
  | `Const v -> Dd.Add.const mgr v
  | `Ite (g, a, b) ->
    Util.ite mgr (Util.add_of_expr mgr g) (build a) (build b)

let rec eval_spec env = function
  | `Const v -> v
  | `Ite (g, a, b) ->
    if Util.eval_expr env g then eval_spec env a else eval_spec env b

let arbitrary = QCheck.make ~print:(fun _ -> "<add>") spec_gen

let brute_stats spec =
  let values =
    List.map (fun env -> eval_spec env spec) (Util.assignments vars)
  in
  let n = float_of_int (List.length values) in
  let avg = List.fold_left ( +. ) 0.0 values /. n in
  let variance =
    List.fold_left (fun acc v -> acc +. ((v -. avg) ** 2.0)) 0.0 values /. n
  in
  let vmin = List.fold_left Float.min infinity values in
  let vmax = List.fold_left Float.max neg_infinity values in
  (avg, variance, vmin, vmax)

(* Eq. 5-8 statistics of the root (index 0 of the flat view). *)
let root_summary t = Dd.Markov.summary (Dd.Markov.view mgr t)

let test_root_stats =
  Util.qtest ~count:300 "avg/var/min/max equal brute force" arbitrary
    (fun spec ->
      let s = root_summary (build spec) in
      let avg, variance, vmin, vmax = brute_stats spec in
      Util.close ~eps:1e-6 s.avg.(0) avg
      && Util.close ~eps:1e-6 s.variance.(0) variance
      && Util.close s.min.(0) vmin
      && Util.close s.max.(0) vmax)

let test_mse_formulas =
  Util.qtest ~count:100 "Eq. 8: mse = var + (max - avg)^2" arbitrary
    (fun spec ->
      let s = root_summary (build spec) in
      Util.close ~eps:1e-6
        (Dd.Markov.mse_upper s 0)
        (s.variance.(0) +. ((s.max.(0) -. s.avg.(0)) ** 2.0))
      && Util.close ~eps:1e-6
           (Dd.Markov.mse_lower s 0)
           (s.variance.(0) +. ((s.min.(0) -. s.avg.(0)) ** 2.0)))

(* Reach probability of view node [i], all contexts combined. *)
let node_mass mass i = mass.(3 * i) +. mass.((3 * i) + 1) +. mass.((3 * i) + 2)

let test_mass_conservation =
  Util.qtest ~count:100 "uniform mass: root 1, leaves sum to 1" arbitrary
    (fun spec ->
      let v = Dd.Markov.view mgr (build spec) in
      let mass = Dd.Markov.masses v Dd.Markov.uniform in
      let leaf_mass = ref 0.0 in
      Array.iteri
        (fun i var ->
          if var < 0 then leaf_mass := !leaf_mass +. node_mass mass i)
        v.var;
      Util.close ~eps:1e-9 1.0 !leaf_mass && Util.close 1.0 (node_mass mass 0))

(* ---- Markov analysis over interleaved transition variables ----

   Build a transition function over 2 inputs (4 diagram variables), then
   compare masses/moments against explicit enumeration of the Markov
   chain's transition distribution. *)

let transition_vars = 2 (* inputs; diagram has 4 variables *)

let markov_prob (a : Dd.Markov.statistics) x_i x_f =
  (* P(x_i) (stationary) * P(x_f | x_i) per bit *)
  let p = ref 1.0 in
  for j = 0 to transition_vars - 1 do
    let pi = if x_i.(j) then a.Dd.Markov.sp else 1.0 -. a.Dd.Markov.sp in
    let toggle = Dd.Markov.p_toggle_given ~initial:x_i.(j) a in
    let pf = if x_f.(j) <> x_i.(j) then toggle else 1.0 -. toggle in
    p := !p *. pi *. pf
  done;
  !p

(* Context-mixed (mass, E[f], E[f^2]) of the root under [stats]. *)
let root_moments stats t =
  let v = Dd.Markov.view mgr t in
  let m1, m2 = Dd.Markov.moments v stats in
  let count = Array.length v.nodes in
  let rows =
    {
      Dd.Markov.m = Array.make count 0.0;
      e1 = Array.make count 0.0;
      e2 = Array.make count 0.0;
    }
  in
  Dd.Markov.mixed_into v (Dd.Markov.summary v) (Dd.Markov.masses v stats) m1
    m2 rows 0;
  (rows.m.(0), rows.e1.(0), rows.e2.(0))

let transitions () =
  List.concat_map
    (fun x_i -> List.map (fun x_f -> (x_i, x_f)) (Util.assignments transition_vars))
    (Util.assignments transition_vars)

let test_markov_expectation =
  let arbitrary4 =
    QCheck.make ~print:(fun _ -> "<add4>")
      (let open QCheck.Gen in
       map3
         (fun g a b -> `Ite (g, `Const a, `Const b))
         (Util.expr_gen ~vars:4)
         (map float_of_int (int_bound 10))
         (map float_of_int (int_bound 10)))
  in
  Util.qtest ~count:200 "Markov root expectation equals enumeration"
    (QCheck.pair arbitrary4
       (QCheck.make
          (QCheck.Gen.oneofl
             [ (0.5, 0.1); (0.5, 0.5); (0.5, 0.9); (0.2, 0.2); (0.8, 0.3) ])))
    (fun (spec, (sp, st)) ->
      let t = build spec in
      let stats_point = { Dd.Markov.sp; st } in
      let _, e1, e2 = root_moments stats_point t in
      let expected1 = ref 0.0 and expected2 = ref 0.0 in
      List.iter
        (fun (x_i, x_f) ->
          let env = Powermodel.Vars.env ~x_i ~x_f in
          let p = markov_prob stats_point x_i x_f in
          let v = eval_spec env spec in
          expected1 := !expected1 +. (p *. v);
          expected2 := !expected2 +. (p *. v *. v))
        (transitions ());
      Util.close ~eps:1e-6 e1 !expected1 && Util.close ~eps:1e-6 e2 !expected2)

let test_markov_uniform_matches_stats =
  Util.qtest ~count:100 "Markov at (0.5, 0.5) equals uniform statistics"
    arbitrary (fun spec ->
      let t = build spec in
      let _, e1, e2 = root_moments Dd.Markov.uniform t in
      let s = root_summary t in
      Util.close ~eps:1e-6 e1 s.avg.(0)
      && Util.close ~eps:1e-6 (e2 -. (e1 *. e1)) s.variance.(0))

let unit_combine () =
  (* the paper's Ex. 4: children with avg 10 (var 0) and avg 5 (var 25)
     combine into avg 7.5, var 18.75+... — values from Fig. 4.  The low
     child is a node over leaves 0 and 10, the high child the leaf 10. *)
  let ten = Dd.Add.const mgr 10.0 in
  let low = Dd.Add.make_node mgr 1 (Dd.Add.const mgr 0.0) ten in
  let n = root_summary (Dd.Add.make_node mgr 0 low ten) in
  Util.check_close "avg" 7.5 n.avg.(0);
  Util.check_close "var" 18.75 n.variance.(0);
  (* Ex. 5: max = 10, mse = var + (max-avg)^2 = 18.75 + 6.25 = 25 *)
  Util.check_close "max" 10.0 n.max.(0);
  Util.check_close "mse" 25.0 (Dd.Markov.mse_upper n 0)

let suite =
  [
    Alcotest.test_case "paper example 4/5 numbers" `Quick unit_combine;
    test_root_stats;
    test_mse_formulas;
    test_mass_conservation;
    test_markov_expectation;
    test_markov_uniform_matches_stats;
  ]
