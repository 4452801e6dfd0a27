type strategy = Average | Upper_bound | Lower_bound

type weighting =
  | Unweighted
  | Uniform_mass
  | Robust of Markov.statistics list

let default_weighting = Robust Markov.default_anchors

let strategy_name = function
  | Average -> "average"
  | Upper_bound -> "upper-bound"
  | Lower_bound -> "lower-bound"

(* A collapse plan over the flat view: priority-sorted candidate indices
   and the constant each would be replaced with. *)
type plan = {
  view : Markov.view;
  ranked : int array;        (* internal-node indices, cheapest first *)
  values : float array;      (* replacement constant per index *)
}

(* Exponent balancing absolute against relative damage across anchors:
   0 optimizes absolute error (favours high-activity statistics), 2 pure
   relative error (favours low-activity ones); 0.5 is a good compromise
   for the ARE metric used in the paper's evaluation. *)
let norm_exponent = 0.5

(* Collapse work counters: passes, flat-view nodes planned over, and the
   size probes of the searches. *)
let collapse_passes_metric = Obs.Metrics.metric "dd.collapse_passes"

let plan_nodes_metric = Obs.Metrics.metric "approx.plan_nodes"

let probes_metric = Obs.Metrics.metric "approx.probes"

(* The robust criterion.  Each anchor's mass and moment passes run in one
   working set of 9 floats per node, reused across the anchors, and are
   mixed over the contexts into rows of (mass, E1, E2) per node.

   A bound strategy knows its constant up front and folds each anchor into
   the score as soon as its rows are mixed, keeping one row set.  The
   average strategy's constant mixes every anchor, so it keeps one row set
   per anchor (anchor-major, so each anchor writes its rows in order) and
   scores after the last one. *)
let robust_scores d (s : Markov.summary) strategy anchors values scores =
  let count = Array.length d.Markov.nodes in
  let na = Array.length anchors in
  let average =
    match strategy with Average -> true | Upper_bound | Lower_bound -> false
  in
  let sets = if average then na else 1 in
  let mass = Array.make (3 * count) 0.0 in
  let m1 = Array.make (3 * count) 0.0 in
  let m2 = Array.make (3 * count) 0.0 in
  let rows =
    {
      Markov.m = Array.make (sets * count) 0.0;
      e1 = Array.make (sets * count) 0.0;
      e2 = Array.make (sets * count) 0.0;
    }
  in
  let rm = rows.m and re1 = rows.e1 and re2 = rows.e2 in
  (* each anchor's damage is normalized by the mean capacitance under that
     anchor raised to [norm_exponent]: the evaluation metric is relative
     error, and an absolute error of 5 fF matters more when the expected
     capacitance is 10 than when it is 70 *)
  let norms = Array.make na 0.0 in
  for i = 0 to count - 1 do
    if d.var.(i) >= 0 then begin
      (match strategy with
      | Upper_bound -> values.(i) <- s.max.(i)
      | Lower_bound -> values.(i) <- s.min.(i)
      | Average -> ());
      scores.(i) <- 0.0
    end
  done;
  for a = 0 to na - 1 do
    Markov.masses_into d anchors.(a) mass;
    Markov.moments_into d anchors.(a) m1 m2;
    let o = if average then a * count else 0 in
    Markov.mixed_into d s mass m1 m2 rows o;
    (* the root has mass 1, so its E1 is the anchor's mean *)
    norms.(a) <- 1.0 /. Float.max 1e-12 (Float.abs re1.(o) ** norm_exponent);
    if not average then
      for i = 0 to count - 1 do
        if d.var.(i) >= 0 then begin
          let r = values.(i) in
          scores.(i) <-
            Float.max scores.(i)
              (norms.(a)
              *. rm.(i)
              *. (re2.(i) -. (2.0 *. r *. re1.(i)) +. (r *. r)))
        end
      done
  done;
  if average then
    for i = 0 to count - 1 do
      if d.var.(i) >= 0 then begin
        (* the constant minimizing the summed normalized damage *)
        let num = ref 0.0 and den = ref 0.0 in
        for a = 0 to na - 1 do
          let o = a * count in
          num := !num +. (norms.(a) *. rm.(o + i) *. re1.(o + i));
          den := !den +. (norms.(a) *. rm.(o + i))
        done;
        let r = if !den <= 0.0 then s.avg.(i) else !num /. !den in
        values.(i) <- r;
        let score = ref 0.0 in
        for a = 0 to na - 1 do
          let o = a * count in
          score :=
            Float.max !score
              (norms.(a)
              *. rm.(o + i)
              *. (re2.(o + i) -. (2.0 *. r *. re1.(o + i)) +. (r *. r)))
        done;
        scores.(i) <- !score
      end
    done

let make_plan mgr strategy weighting root =
  let d = Markov.view mgr root in
  let s = Markov.summary d in
  let count = Array.length d.nodes in
  Obs.Metrics.add plan_nodes_metric count;
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
          | Average -> s.avg.(i)
          | Upper_bound -> s.max.(i)
          | Lower_bound -> s.min.(i));
        scores.(i) <-
          weight i
          *.
          (match strategy with
          | Average -> s.variance.(i)
          | Upper_bound -> Markov.mse_upper s i
          | Lower_bound -> Markov.mse_lower s i)
      end
    done
  in
  (match weighting with
  | Unweighted -> by_own_damage (fun _ -> 1.0)
  | Uniform_mass ->
    let mass = Markov.masses d Markov.uniform in
    by_own_damage (fun i ->
        mass.(3 * i) +. mass.((3 * i) + 1) +. mass.((3 * i) + 2))
  | Robust anchors ->
    let anchors =
      Array.of_list (if anchors = [] then Markov.default_anchors else anchors)
    in
    robust_scores d s strategy anchors values scores);
  let candidates = ref [] in
  for i = count - 1 downto 0 do
    if d.var.(i) >= 0 then candidates := i :: !candidates
  done;
  let ranked = Array.of_list !candidates in
  (* the comparator is total, so a stable sort yields the one order *)
  Array.stable_sort
    (fun a b ->
      match Float.compare scores.(a) scores.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    ranked;
  { view = d; ranked; values }

module Bits = Hashtbl.Make (Int64)

(* Minimal-ish k such that collapsing the first k candidates fits
   [max_size]: plain bisection over [0, total] (size decreases
   essentially monotonically in k), with a small relative tolerance since
   each probe is an O(nodes) sweep.

   A probe sizes the collapse of the first [k] candidates without building
   it: kept internal nodes reachable from the root avoiding collapsed
   ones, plus the distinct leaf constants of the result.  Constants are
   distinct by IEEE bits, as the manager shares leaves ({!Add.const}),
   so [-0.0] and [0.0] count twice; each node's constant is interned
   once per search, and the probes mark nodes and constants with their
   own generation instead of allocating. *)
let search mgr plan max_size =
  let d = plan.view in
  let count = Array.length d.nodes in
  let total = Array.length plan.ranked in
  (* candidate i is collapsed by probe k iff rank.(i) < k *)
  let rank = Array.make count max_int in
  Array.iteri (fun pos i -> rank.(i) <- pos) plan.ranked;
  let mark = Array.make count 0 in
  let generation = ref 0 in
  let key = Array.make count (-1) in
  let interned = Bits.create 64 in
  let key_mark = Array.make count 0 in
  let key_of i =
    if key.(i) < 0 then begin
      let v = if d.var.(i) < 0 then d.leaf_value.(i) else plan.values.(i) in
      let bits = Int64.bits_of_float v in
      key.(i) <-
        (match Bits.find_opt interned bits with
        | Some k -> k
        | None ->
          let k = Bits.length interned in
          Bits.add interned bits k;
          k)
    end;
    key.(i)
  in
  let probe_size k =
    Obs.Metrics.incr probes_metric;
    incr generation;
    let g = !generation in
    let size = ref 0 in
    (* depth is bounded by the variable count, so recursion is safe *)
    let rec go i =
      if mark.(i) <> g then begin
        mark.(i) <- g;
        if d.var.(i) >= 0 && rank.(i) >= k then begin
          incr size;
          go d.low.(i);
          go d.high.(i)
        end
        else begin
          let c = key_of i in
          if key_mark.(c) <> g then begin
            key_mark.(c) <- g;
            incr size
          end
        end
      end
    in
    go 0;
    !size
  in
  let build_collapse k =
    incr generation;
    let g = !generation in
    let memo = Array.make count d.nodes.(0) in
    let rec go i =
      if mark.(i) = g then memo.(i)
      else begin
        let r =
          if d.var.(i) < 0 then d.nodes.(i)
          else if rank.(i) < k then Add.const mgr plan.values.(i)
          else Add.make_node mgr d.var.(i) (go d.low.(i)) (go d.high.(i))
        in
        mark.(i) <- g;
        memo.(i) <- r;
        r
      end
    in
    go 0
  in
  let tolerance = max 1 (total / 256) in
  let rec bisect lo hi =
    (* invariant: probe_size hi fits, lo does not *)
    if hi - lo <= tolerance then hi
    else begin
      let mid = (lo + hi) / 2 in
      if probe_size mid <= max_size then bisect lo mid else bisect mid hi
    end
  in
  let k = if probe_size 0 <= max_size then 0 else bisect 0 total in
  let result = build_collapse k in
  if Add.size_in mgr result <= max_size then result else build_collapse total

let compress ?(weighting = default_weighting) mgr ~strategy ~max_size root =
  if max_size < 1 then invalid_arg "Approx.compress: max_size must be >= 1";
  if Add.size_under mgr root ~limit:max_size <> None then root
  else begin
    Perf.note_collapse (Add.perf mgr);
    Obs.Metrics.incr collapse_passes_metric;
    Obs.Trace.with_span "collapse" ~cat:"dd"
      ~args:(fun () ->
        [
          ("before_nodes", Json.Int (Add.size_in mgr root));
          ("max_size", Json.Int max_size);
        ])
      ~result_args:(fun result ->
        [ ("after_nodes", Json.Int (Add.size_in mgr result)) ])
      (fun () ->
        let plan = make_plan mgr strategy weighting root in
        search mgr plan max_size)
  end
