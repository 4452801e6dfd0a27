(* Analytical queries on a constructed model.

   Because the model is a closed-form ADD over the transition variables,
   questions that would need long simulations on a black-box model are a
   single diagram traversal here:

   - the transition that maximizes the (bound on) switching capacitance —
     the "input conditions that maximize the internal switching activity"
     the worst-case literature the paper cites searches for;
   - the expected capacitance under given Markov input statistics, exactly;
   - per-input sensitivities: how much expected capacitance each input's
     toggling contributes. *)

(* Follow a max-value path through the ADD; unconstrained variables (levels
   skipped by the reduced diagram) are filled with [false].

   One memoized bottom-up pass computes every subtree's max, keyed on node
   id so hash-consed shared subtrees pay once; the descent then reads each
   child's cached max in O(1).  Total cost O(|nodes|) where the previous
   per-level [Add.max_value] sweeps cost O(depth × subtree).  The subtree
   max is taken under polymorphic [compare] (the [Add.max_value] order) and
   the descent keeps the [high >= low] float tie-break, so witness and
   value are bit-identical to the unmemoized implementation. *)
let worst_case_transition model =
  let n = model.Model.inputs in
  let env = Array.make (Vars.count ~inputs:n) false in
  let memo = Hashtbl.create 1024 in
  let rec subtree_max node =
    match node with
    | Dd.Add.Leaf l -> l.value
    | Dd.Add.Node nd -> (
      match Hashtbl.find_opt memo nd.id with
      | Some m -> m
      | None ->
        let ml = subtree_max nd.low in
        let mh = subtree_max nd.high in
        let m = if compare mh ml >= 0 then mh else ml in
        Hashtbl.add memo nd.id m;
        m)
  in
  let rec descend node =
    match node with
    | Dd.Add.Leaf l -> l.value
    | Dd.Add.Node nd ->
      if subtree_max nd.high >= subtree_max nd.low then begin
        env.(nd.var) <- true;
        descend nd.high
      end
      else begin
        env.(nd.var) <- false;
        descend nd.low
      end
  in
  let value = descend model.Model.cap in
  let x_i = Array.init n (fun j -> env.(Vars.initial j)) in
  let x_f = Array.init n (fun j -> env.(Vars.final j)) in
  (x_i, x_f, value)

(* Exact expectation of the model under Markov statistics (sp, st): the
   analytic counterpart of running an infinite random simulation with
   those statistics.  The root is reached with mass 1 in the
   no-pending-partner context (slot 0), so its conditional first moment
   there is the expectation and no mass pass is needed. *)
let expected_capacitance model ~sp ~st =
  let m1, _ =
    Dd.Markov.moments
      (Dd.Markov.view model.Model.add_manager model.Model.cap)
      { Dd.Markov.sp; st }
  in
  m1.(0)

(* Sensitivity of input j: expected capacitance given that input j toggles
   minus given that it holds, under otherwise-uniform inputs.  Computed by
   restricting the ADD on the (x_j_i, x_j_f) pair and averaging — a
   designer-facing "which inputs are power-hot" query that a white-box
   model answers without any simulation. *)
let toggle_sensitivity model j =
  if j < 0 || j >= model.Model.inputs then
    invalid_arg "Analysis.toggle_sensitivity: input out of range";
  let mgr = model.Model.add_manager in
  let vi = Vars.initial j and vf = Vars.final j in
  (* restrict the ADD to a fixed (initial, final) pair of values *)
  (* early exit compares levels, not variable indices — after a reorder a
     deeper node may carry a smaller variable number *)
  let cut = max (Dd.Add.level mgr vi) (Dd.Add.level mgr vf) in
  let restrict2 b_i b_f =
    let memo = Hashtbl.create 256 in
    let rec go node =
      match node with
      | Dd.Add.Leaf _ -> node
      | Dd.Add.Node nd -> (
        match Hashtbl.find_opt memo nd.id with
        | Some r -> r
        | None ->
          let r =
            if nd.var = vi then go (if b_i then nd.high else nd.low)
            else if nd.var = vf then go (if b_f then nd.high else nd.low)
            else if Dd.Add.level mgr nd.var > cut then node
            else Dd.Add.make_node mgr nd.var (go nd.low) (go nd.high)
          in
          Hashtbl.add memo nd.id r;
          r)
    in
    go model.Model.cap
  in
  let avg node =
    (Dd.Markov.summary (Dd.Markov.view mgr node)).Dd.Markov.avg.(0)
  in
  let toggle =
    0.5 *. (avg (restrict2 false true) +. avg (restrict2 true false))
  in
  let hold =
    0.5 *. (avg (restrict2 false false) +. avg (restrict2 true true))
  in
  toggle -. hold

let toggle_sensitivities model =
  Array.init model.Model.inputs (fun j -> toggle_sensitivity model j)
