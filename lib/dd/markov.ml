(* The flat view of a diagram, and the analytic passes over it: Eq. 7
   statistics, and node masses and conditional moments under Markov input
   statistics.

   The diagrams built by the power-model construction are functions of
   interleaved variable pairs: variable 2j is input j at time t_i, variable
   2j+1 the same input at t_f.  Under the stimulus model (per-bit Markov
   chain with signal probability sp and toggle rate st), path probabilities
   are not uniform: the final-copy branch depends on the initial-copy value
   chosen one level up.  The Markov passes propagate that one-variable
   context (the "pending" partner value) through the reduced DAG to obtain,
   for every node,

   - its reach probability (mass) under (sp, st), and
   - the conditional first and second moments of its subfunction given
     that it is reached.

   All quantities are exact and purely analytic — no simulation — which is
   what lets {!Approx} collapse nodes by their damage under a whole family
   of statistics while staying characterization-free. *)

type statistics = { sp : float; st : float }

let uniform = { sp = 0.5; st = 0.5 }

(* A signal-probability x toggle-rate grid (feasible points only):
   low toggle rates are heavily represented because that is where
   uniform-measure criteria fail, and skewed signal probabilities guard the
   sp axis. *)
let default_anchors =
  let sps = [ 0.2; 0.5; 0.8 ] in
  let sts = [ 0.02; 0.05; 0.15; 0.3; 0.5; 0.7; 0.9 ] in
  List.concat_map
    (fun sp ->
      List.filter_map
        (fun st ->
          if st <= 2.0 *. Float.min sp (1.0 -. sp) then Some { sp; st }
          else None)
        sts)
    sps

(* stationary two-state chain realizing (sp, st):
   P(0->1) = st / (2 (1-sp)),  P(1->0) = st / (2 sp).
   A chain that never toggles is tested first: at sp = 0 or 1 the ratio
   would be 0 / 0. *)
let p_toggle_given ~initial s =
  if s.st = 0.0 then 0.0
  else if initial then Float.min 1.0 (s.st /. (2.0 *. s.sp))
  else Float.min 1.0 (s.st /. (2.0 *. (1.0 -. s.sp)))

(* ------------------------------------------------------------------ *)
(* Flat view: nodes in parents-first topological order, children
   resolved to indices, so every pass is a plain loop over arrays. *)

type view = {
  nodes : Add.t array;
  var : int array;
  low : int array;
  high : int array;
  leaf_value : float array;
}

let view root =
  let order = Add.fold_nodes root ~init:[] ~f:(fun acc n -> n :: acc) in
  let nodes = Array.of_list order in
  let count = Array.length nodes in
  let index : (int, int) Hashtbl.t = Hashtbl.create (2 * count) in
  Array.iteri (fun i n -> Hashtbl.replace index (Add.node_id n) i) nodes;
  let var = Array.make count (-1) in
  let low = Array.make count (-1) in
  let high = Array.make count (-1) in
  let leaf_value = Array.make count 0.0 in
  Array.iteri
    (fun i node ->
      match node with
      | Add.Leaf l -> leaf_value.(i) <- l.value
      | Add.Node n ->
        var.(i) <- n.var;
        low.(i) <- Hashtbl.find index (Add.node_id n.low);
        high.(i) <- Hashtbl.find index (Add.node_id n.high))
    nodes;
  { nodes; var; low; high; leaf_value }

type summary = {
  avg : float array;
  variance : float array;
  min : float array;
  max : float array;
}

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
let p_high v s =
  let p_toggle_from_low = p_toggle_given ~initial:false s in
  let p_toggle_from_high = p_toggle_given ~initial:true s in
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
