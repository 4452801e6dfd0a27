(* Fig. 7b: accuracy/size trade-off of the ADD model for cm85.  One model
   is built per size bound; the ARE of each is evaluated on the standard
   sweep grid and compared against the characterized Con and Lin models. *)

type row = {
  max_size : int;
  actual_size : int;
  are : float;
  build_cpu : float;
  build_wall : float;
}

type result = {
  circuit : string;
  are_con : float;
  are_lin : float;
  lin_coefficients : int;
  rows : row list;
}

let default_sizes = [ 3; 5; 10; 20; 50; 100; 200; 500; 1000 ]

let run ?(vectors = 2000) ?(char_vectors = 3000) ?(seed = 11)
    ?(sizes = default_sizes) ?jobs () =
  let entry = Circuits.Suite.case_study in
  let circuit = entry.Circuits.Suite.build () in
  let sim = Gatesim.Simulator.create circuit in
  let bits = Netlist.Circuit.input_count circuit in
  let prng = Stimulus.Prng.create seed in
  let char_seq =
    Stimulus.Generator.sequence prng ~bits ~length:char_vectors ~sp:0.5 ~st:0.5
  in
  let con = Powermodel.Baselines.characterize_con sim char_seq in
  let lin = Powermodel.Baselines.characterize_lin sim char_seq in
  (* one model build per size bound, each with its own DD manager:
     independent tasks, safe to build on the pool *)
  let models =
    Parallel.Pool.map ?jobs
      (fun m -> (m, Powermodel.Model.build ~max_size:m circuit))
      sizes
  in
  let estimators =
    ("Con", Estimator.Characterized con)
    :: ("Lin", Estimator.Characterized lin)
    :: List.map
         (fun (m, model) ->
           (Printf.sprintf "ADD-%d" m, Estimator.add_model model))
         models
  in
  let results = Sweep.run_grid ~vectors ~seed:(seed + 1) ?jobs sim estimators in
  let rows =
    List.map
      (fun (m, model) ->
        {
          max_size = m;
          actual_size = Powermodel.Model.size model;
          are = Sweep.are_average results (Printf.sprintf "ADD-%d" m);
          build_cpu = model.Powermodel.Model.stats.cpu_seconds;
          build_wall = model.Powermodel.Model.stats.wall_seconds;
        })
      models
  in
  {
    circuit = entry.Circuits.Suite.name;
    are_con = Sweep.are_average results "Con";
    are_lin = Sweep.are_average results "Lin";
    lin_coefficients = bits + 1;
    rows;
  }

(* Journal codec: exact float round trip via Json's printer, so a
   recovered result re-renders byte-identically in model_errors. *)

let result_to_json (r : result) =
  Json.Obj
    [
      ("circuit", Json.String r.circuit);
      ("are_con", Json.Float r.are_con);
      ("are_lin", Json.Float r.are_lin);
      ("lin_coefficients", Json.Int r.lin_coefficients);
      ( "rows",
        Json.List
          (List.map
             (fun (row : row) ->
               Json.Obj
                 [
                   ("max_size", Json.Int row.max_size);
                   ("actual_size", Json.Int row.actual_size);
                   ("are", Json.Float row.are);
                   ("build_cpu", Json.Float row.build_cpu);
                   ("build_wall", Json.Float row.build_wall);
                 ])
             r.rows) );
    ]

let result_of_json j =
  Codec.decode
    (fun j ->
      {
        circuit = Codec.string_ "circuit" j;
        are_con = Codec.float_ "are_con" j;
        are_lin = Codec.float_ "are_lin" j;
        lin_coefficients = Codec.int_ "lin_coefficients" j;
        rows =
          List.map
            (fun row ->
              {
                max_size = Codec.int_ "max_size" row;
                actual_size = Codec.int_ "actual_size" row;
                are = Codec.float_ "are" row;
                build_cpu = Codec.float_ "build_cpu" row;
                build_wall = Codec.float_ "build_wall" row;
              })
            (Codec.list_ "rows" j);
      })
    j
