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
    let anchors = if anchors = [] then Markov.default_anchors else anchors in
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
          | Upper_bound -> s.max.(i)
          | Lower_bound -> s.min.(i)
          | Average ->
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
        else if collapsed.(i) then Add.const mgr plan.values.(i)
        else Add.make_node mgr d.var.(i) (go d.low.(i)) (go d.high.(i))
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
  if Add.size_in mgr result <= max_size then result
  else build_collapse mgr plan total

let collapse_passes_metric = Obs.Metrics.metric "dd.collapse_passes"

let compress ?(weighting = default_weighting) ?(resift = false) mgr ~strategy
    ~max_size root =
  if max_size < 1 then invalid_arg "Approx.compress: max_size must be >= 1";
  let result =
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
          let plan = make_plan strategy weighting root in
          search mgr plan max_size)
    end
  in
  (* Optional pair-grouped sift of the collapsed result.  Add.sift sweeps
     to the protected roots, so this is only sound when the result (plus
     anything the caller protected) is the only live data — end-of-build
     use only.  In-place and function-preserving: [result] stays the same
     physical node with the same values everywhere. *)
  if resift then begin
    Add.protect mgr result;
    Fun.protect
      ~finally:(fun () -> Add.unprotect mgr result)
      (fun () -> ignore (Add.sift ~group_pairs:true mgr : Add.sift_stats))
  end;
  result
