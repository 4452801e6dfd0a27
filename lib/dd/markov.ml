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
  low_slot : int array;
  high_slot : int array;
}

(* Context a child of internal node i is reached in: the branch value when
   i is an initial copy and the child tests its final-copy partner. *)
let child_ctx var i branch child =
  if var.(i) land 1 = 0 && var.(child) = var.(i) + 1 then
    if branch then 2 else 1
  else 0

let view m root =
  let nodes, low, high = Add.topo m root in
  let count = Array.length nodes in
  let var = Array.make count (-1) in
  let leaf_value = Array.make count 0.0 in
  Array.iteri
    (fun i node ->
      match node with
      | Add.Leaf l -> leaf_value.(i) <- l.value
      | Add.Node n -> var.(i) <- n.var)
    nodes;
  let low_slot = Array.make count (-1) in
  let high_slot = Array.make count (-1) in
  for i = 0 to count - 1 do
    if var.(i) >= 0 then begin
      low_slot.(i) <- (3 * low.(i)) + child_ctx var i false low.(i);
      high_slot.(i) <- (3 * high.(i)) + child_ctx var i true high.(i)
    end
  done;
  { nodes; var; low; high; leaf_value; low_slot; high_slot }

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

(* Probability of the high branch at an internal node, by the context
   (0, 1, 2) it is reached in.  A final copy follows the chain from its
   pending partner, or the marginal when the partner was not on the path;
   an initial copy always follows the marginal, context 0's value. *)
let p_high s =
  (s.sp, p_toggle_given ~initial:false s, 1.0 -. p_toggle_given ~initial:true s)

(* Even-variable nodes and leaves are only ever reached in context 0 (a
   pending partner is always an odd variable), and their high-branch
   probability does not depend on the context; so the moment pass
   computes their context-0 slot and copies it, and the mass pass
   spreads only context 0 of them. *)

let moments_into v s m1 m2 =
  let p0, p1, p2 = p_high s in
  let var = v.var and low_slot = v.low_slot and high_slot = v.high_slot in
  (* children appear after parents, so a reverse sweep is bottom-up *)
  for i = Array.length var - 1 downto 0 do
    let b = 3 * i in
    let ls = low_slot.(i) in
    if ls < 0 then begin
      let x = v.leaf_value.(i) in
      let x2 = x *. x in
      m1.(b) <- x;
      m1.(b + 1) <- x;
      m1.(b + 2) <- x;
      m2.(b) <- x2;
      m2.(b + 1) <- x2;
      m2.(b + 2) <- x2
    end
    else begin
      let hs = high_slot.(i) in
      let l1 = m1.(ls) and h1 = m1.(hs) and l2 = m2.(ls) and h2 = m2.(hs) in
      let e1 = ((1.0 -. p0) *. l1) +. (p0 *. h1)
      and e2 = ((1.0 -. p0) *. l2) +. (p0 *. h2) in
      m1.(b) <- e1;
      m2.(b) <- e2;
      if var.(i) land 1 = 0 then begin
        m1.(b + 1) <- e1;
        m1.(b + 2) <- e1;
        m2.(b + 1) <- e2;
        m2.(b + 2) <- e2
      end
      else begin
        m1.(b + 1) <- ((1.0 -. p1) *. l1) +. (p1 *. h1);
        m2.(b + 1) <- ((1.0 -. p1) *. l2) +. (p1 *. h2);
        m1.(b + 2) <- ((1.0 -. p2) *. l1) +. (p2 *. h1);
        m2.(b + 2) <- ((1.0 -. p2) *. l2) +. (p2 *. h2)
      end
    end
  done

let masses_into v s mass =
  let p0, p1, p2 = p_high s in
  let var = v.var and low_slot = v.low_slot and high_slot = v.high_slot in
  Array.fill mass 0 (Array.length mass) 0.0;
  mass.(0) <- 1.0;
  for i = 0 to Array.length var - 1 do
    let ls = low_slot.(i) in
    if ls >= 0 then begin
      let b = 3 * i and hs = high_slot.(i) in
      let m = mass.(b) in
      if m > 0.0 then begin
        mass.(ls) <- mass.(ls) +. ((1.0 -. p0) *. m);
        mass.(hs) <- mass.(hs) +. (p0 *. m)
      end;
      if var.(i) land 1 = 1 then begin
        let m = mass.(b + 1) in
        if m > 0.0 then begin
          mass.(ls) <- mass.(ls) +. ((1.0 -. p1) *. m);
          mass.(hs) <- mass.(hs) +. (p1 *. m)
        end;
        let m = mass.(b + 2) in
        if m > 0.0 then begin
          mass.(ls) <- mass.(ls) +. ((1.0 -. p2) *. m);
          mass.(hs) <- mass.(hs) +. (p2 *. m)
        end
      end
    end
  done

let moments v s =
  let count = Array.length v.nodes in
  let m1 = Array.make (3 * count) 0.0 in
  let m2 = Array.make (3 * count) 0.0 in
  moments_into v s m1 m2;
  (m1, m2)

let masses v s =
  let mass = Array.make (3 * Array.length v.nodes) 0.0 in
  masses_into v s mass;
  mass

type rows = { m : float array; e1 : float array; e2 : float array }

let mixed_into v (s : summary) mass m1 m2 rows o =
  let rm = rows.m and re1 = rows.e1 and re2 = rows.e2 in
  (* the leading [0.0 +.] is not redundant: it turns a -0.0 first product
     into 0.0 *)
  for i = 0 to Array.length v.nodes - 1 do
    let b = 3 * i in
    let t = mass.(b) +. mass.(b + 1) +. mass.(b + 2) in
    if t <= 0.0 then begin
      rm.(o + i) <- 0.0;
      re1.(o + i) <- s.avg.(i);
      re2.(o + i) <- s.variance.(i) +. (s.avg.(i) ** 2.0)
    end
    else begin
      rm.(o + i) <- t;
      re1.(o + i) <-
        (0.0
        +. (mass.(b) *. m1.(b))
        +. (mass.(b + 1) *. m1.(b + 1))
        +. (mass.(b + 2) *. m1.(b + 2)))
        /. t;
      re2.(o + i) <-
        (0.0
        +. (mass.(b) *. m2.(b))
        +. (mass.(b + 1) *. m2.(b + 1))
        +. (mass.(b + 2) *. m2.(b + 2)))
        /. t
    end
  done
