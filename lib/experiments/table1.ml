(* Table 1: every benchmark, average estimators (Con / Lin / ADD) and
   conservative upper bounds (constant / pattern-dependent ADD).

   Each row is completely self-contained — it builds its own circuit,
   simulator, DD manager and PRNG streams from the per-entry seed —
   which is what lets [run] hand the rows to a {!Parallel.Pool} without
   any cross-task state. *)

type row = {
  name : string;
  inputs : int;
  gates : int;
  are_con : float;
  are_lin : float;
  are_add : float;
  max_avg : int;
  cpu_avg : float;
  build_wall_avg : float;
  are_con_ub : float;
  are_add_ub : float;
  max_ub : int;
  cpu_ub : float;
  build_wall_ub : float;
  wall_seconds : float;
  model_nodes : int;
  bound_nodes : int;
  cache_hit_rate : float;
}

type config = {
  vectors : int;       (* per evaluation run *)
  char_vectors : int;  (* characterization sample length *)
  seed : int;
  max_scale : float;   (* scales the Table 1 MAX bounds, for quick runs *)
  force_fail : string list;
  (* circuits whose model build gets an impossible node ceiling — a
     deterministic failure injection for exercising fault isolation *)
}

let default_config =
  {
    vectors = 2000;
    char_vectors = 3000;
    seed = 5;
    max_scale = 1.0;
    force_fail = [];
  }

let scaled scale m = max 3 (int_of_float (Float.round (scale *. float_of_int m)))

let run_entry ?(config = default_config) ?jobs (entry : Circuits.Suite.entry) =
  let t0 = Unix.gettimeofday () in
  let circuit = entry.Circuits.Suite.build () in
  let sim = Gatesim.Simulator.create circuit in
  let bits = Netlist.Circuit.input_count circuit in
  let prng = Stimulus.Prng.create (config.seed + Hashtbl.hash entry.name) in
  let char_seq =
    Stimulus.Generator.sequence prng ~bits ~length:config.char_vectors ~sp:0.5
      ~st:0.5
  in
  let con = Powermodel.Baselines.characterize_con sim char_seq in
  let lin = Powermodel.Baselines.characterize_lin sim char_seq in
  let max_avg = scaled config.max_scale entry.Circuits.Suite.max_avg in
  let max_ub = scaled config.max_scale entry.Circuits.Suite.max_ub in
  (* failure injection: an unsatisfiable node ceiling aborts the build
     deterministically (unlike a deadline, which would race the clock) *)
  let budget =
    if List.mem entry.Circuits.Suite.name config.force_fail then
      Some (Guard.Budget.create ~node_ceiling:1 ())
    else None
  in
  let avg_model = Powermodel.Model.build ?budget ~max_size:max_avg circuit in
  let ub_model = Powermodel.Bounds.build ?budget ~max_size:max_ub circuit in
  let estimators =
    [
      ("Con", Estimator.Characterized con);
      ("Lin", Estimator.Characterized lin);
      ("ADD", Estimator.add_model avg_model);
      ("ADD-ub", Estimator.add_model ub_model);
    ]
  in
  let results =
    Sweep.run_grid ~vectors:config.vectors ~seed:(config.seed + 1) ?jobs sim
      estimators
  in
  let constant_ub = Powermodel.Bounds.constant_bound ub_model in
  {
    name = entry.Circuits.Suite.name;
    inputs = bits;
    gates = Netlist.Circuit.gate_count circuit;
    are_con = Sweep.are_average results "Con";
    are_lin = Sweep.are_average results "Lin";
    are_add = Sweep.are_average results "ADD";
    max_avg;
    cpu_avg = avg_model.Powermodel.Model.stats.cpu_seconds;
    build_wall_avg = avg_model.Powermodel.Model.stats.wall_seconds;
    are_con_ub = Sweep.are_constant_maximum results constant_ub;
    are_add_ub = Sweep.are_maximum results "ADD-ub";
    max_ub;
    cpu_ub = ub_model.Powermodel.Model.stats.cpu_seconds;
    build_wall_ub = ub_model.Powermodel.Model.stats.wall_seconds;
    wall_seconds = Unix.gettimeofday () -. t0;
    model_nodes = Powermodel.Model.size avg_model;
    bound_nodes = Powermodel.Model.size ub_model;
    cache_hit_rate =
      Dd.Perf.total_hit_rate
        (Dd.Add.perf avg_model.Powermodel.Model.add_manager);
  }

let selected names =
  match names with
  | None -> Circuits.Suite.all
  | Some names ->
    List.map
      (fun name ->
        match Circuits.Suite.find name with
        | Some entry -> entry
        | None ->
          Guard.Error.raise_
            (Guard.Error.validation
               ~context:
                 [
                   ("circuit", name);
                   ("valid", String.concat " " Circuits.Suite.names);
                 ]
               (Printf.sprintf "unknown Table 1 circuit %S" name)))
      names

let run ?(config = default_config) ?names ?jobs () =
  (* one pool task per circuit; a nested run_grid inside a worker executes
     inline, so the worker count stays fixed at [jobs] *)
  Parallel.Pool.map ?jobs
    (fun entry -> run_entry ~config ?jobs entry)
    (selected names)

(* ------------------------------------------------------------------ *)
(* Journal codec.  A row must survive encode -> journal -> decode with
   every float bit-identical (Json's printer guarantees the round trip),
   so a resumed run reproduces model_errors byte-for-byte. *)

let row_to_json (r : row) =
  Json.Obj
    [
      ("name", Json.String r.name);
      ("inputs", Json.Int r.inputs);
      ("gates", Json.Int r.gates);
      ("are_con", Json.Float r.are_con);
      ("are_lin", Json.Float r.are_lin);
      ("are_add", Json.Float r.are_add);
      ("max_avg", Json.Int r.max_avg);
      ("cpu_avg", Json.Float r.cpu_avg);
      ("build_wall_avg", Json.Float r.build_wall_avg);
      ("are_con_ub", Json.Float r.are_con_ub);
      ("are_add_ub", Json.Float r.are_add_ub);
      ("max_ub", Json.Int r.max_ub);
      ("cpu_ub", Json.Float r.cpu_ub);
      ("build_wall_ub", Json.Float r.build_wall_ub);
      ("wall_seconds", Json.Float r.wall_seconds);
      ("model_nodes", Json.Int r.model_nodes);
      ("bound_nodes", Json.Int r.bound_nodes);
      ("cache_hit_rate", Json.Float r.cache_hit_rate);
    ]

let row_of_json j =
  Codec.decode
    (fun j ->
      {
        name = Codec.string_ "name" j;
        inputs = Codec.int_ "inputs" j;
        gates = Codec.int_ "gates" j;
        are_con = Codec.float_ "are_con" j;
        are_lin = Codec.float_ "are_lin" j;
        are_add = Codec.float_ "are_add" j;
        max_avg = Codec.int_ "max_avg" j;
        cpu_avg = Codec.float_ "cpu_avg" j;
        build_wall_avg = Codec.float_ "build_wall_avg" j;
        are_con_ub = Codec.float_ "are_con_ub" j;
        are_add_ub = Codec.float_ "are_add_ub" j;
        max_ub = Codec.int_ "max_ub" j;
        cpu_ub = Codec.float_ "cpu_ub" j;
        build_wall_ub = Codec.float_ "build_wall_ub" j;
        wall_seconds = Codec.float_ "wall_seconds" j;
        model_nodes = Codec.int_ "model_nodes" j;
        bound_nodes = Codec.int_ "bound_nodes" j;
        cache_hit_rate = Codec.float_ "cache_hit_rate" j;
      })
    j
