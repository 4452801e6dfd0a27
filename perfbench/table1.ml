(* Workload "table1": the paper's Table 1 cost column.

   Each row is composed from the public calls Experiments.Table1.run_entry
   makes, plus the BLIF and store legs of the BLIF -> model -> artifact
   path: parse the BLIF that set-up rendered from the netlist, characterize Con
   and Lin, build the average and upper-bound models, compile, save /
   verify / load the average model's artifact, evaluate the sweep.  Every
   call runs inside a span of its layer and between Obs.Metrics
   snapshots, so the DD kernel's work shows per build. *)

open Common

(* pcle, alu4, comp, k2 and x1 are left out for run length; README.md
   lists their cost. *)
let rows = [ "decod"; "x2"; "cmb"; "cm85"; "alu2"; "cm150"; "mux"; "parity" ]

let entry name =
  match Circuits.Suite.find name with
  | Some e -> e
  | None -> failwith ("unknown Table 1 row " ^ name)

(* The seed picks one of eight recorded input classes: the Table 1
   characterization and sweep vectors come from config seed 5 + class. *)
let seed_classes = 8
let seed_class seed = ((seed mod seed_classes) + seed_classes) mod seed_classes

let config_of_class c =
  { Experiments.Table1.default_config with Experiments.Table1.seed = 5 + c }

(* The checked subset of a row: every ARE and both model sizes. *)
let check_json ~name ~are_con ~are_lin ~are_add ~are_con_ub ~are_add_ub
    ~model_nodes ~bound_nodes =
  Json.Obj
    [
      ("name", Json.String name);
      ("are_con", Json.Float are_con);
      ("are_lin", Json.Float are_lin);
      ("are_add", Json.Float are_add);
      ("are_con_ub", Json.Float are_con_ub);
      ("are_add_ub", Json.Float are_add_ub);
      ("model_nodes", Json.Int model_nodes);
      ("bound_nodes", Json.Int bound_nodes);
    ]

let reference_path = Filename.concat "perfbench" (Filename.concat "ref" "table1.json")

(* Recorded from Experiments.Table1.run_entry itself (jobs = 1). *)
let record_reference () =
  Experiments.Estimator.set_mode Experiments.Estimator.Compiled;
  let classes =
    List.init seed_classes (fun c ->
        let config = config_of_class c in
        let rows =
          List.map
            (fun name ->
              let r = Experiments.Table1.run_entry ~config ~jobs:1 (entry name) in
              Printf.eprintf "recorded class %d %s (%.1fs)\n%!" c name
                r.Experiments.Table1.wall_seconds;
              check_json ~name ~are_con:r.are_con ~are_lin:r.are_lin
                ~are_add:r.are_add ~are_con_ub:r.are_con_ub
                ~are_add_ub:r.are_add_ub ~model_nodes:r.model_nodes
                ~bound_nodes:r.bound_nodes)
            rows
        in
        Json.Obj
          [
            ("class", Json.Int c);
            ("config_seed", Json.Int config.Experiments.Table1.seed);
            ("rows", Json.List rows);
          ])
  in
  let doc =
    Json.Obj
      [
        ( "source",
          Json.String
            "Experiments.Table1.run_entry ~jobs:1, default_config with seed 5 + \
             class; regenerate with perfbench.exe record-references" );
        ("classes", Json.List classes);
      ]
  in
  Out_channel.with_open_bin reference_path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

let load_reference c =
  let text = In_channel.with_open_bin reference_path In_channel.input_all in
  let doc =
    match Json.of_string text with
    | Ok d -> d
    | Error e -> failwith ("table1 reference: " ^ e)
  in
  let classes = match Json.member "classes" doc with Some (Json.List l) -> l | _ -> [] in
  let cls =
    List.find (fun j -> Json.member "class" j = Some (Json.Int c)) classes
  in
  match Json.member "rows" cls with
  | Some (Json.List rows) ->
    List.map
      (fun r ->
        match Json.member "name" r with
        | Some (Json.String n) -> (n, Json.to_string ~pretty:false r)
        | _ -> failwith "table1 reference: row without a name")
      rows
  | _ -> failwith "table1 reference: class without rows"

(* ------------------------------------------------------------------ *)
(* One composed row.                                                    *)

type row = {
  name : string;
  wall : float;
  cpu : float;  (* processor seconds *)
  check : string;  (* compact JSON of [check_json] *)
  avg_misses : int;
  ub_misses : int;
  model_nodes : int;
  bound_nodes : int;
  store_bytes : int;
}

let misses () = Obs.Metrics.value (Obs.Metrics.metric "dd.cache_misses")

let build_counted layer name f =
  let m0 = misses () in
  let model = span layer name f in
  (model, misses () - m0)

(* A row's input: its suite entry, the generator's netlist and that
   netlist rendered to BLIF.  Made in set-up; every pass reuses them. *)
type input = { e : Circuits.Suite.entry; source : Netlist.Circuit.t; blif : string }

let make_inputs () =
  List.map
    (fun n ->
      let e = entry n in
      let source = e.Circuits.Suite.build () in
      { e; source; blif = Netlist.Blif.to_string source })
    rows

let run_row ~dir ~config { e; source; blif } =
  let t0 = now () and c0 = cpu () in
  span "table1" "table1.row" (fun () ->
      let name = e.Circuits.Suite.name in
      let circuit =
        span "netlist" "netlist.parse" (fun () ->
            match Netlist.Blif.parse blif with
            | Ok c -> c
            | Error err ->
              failwith (name ^ ": BLIF round trip: " ^ Guard.Error.to_string err))
      in
      if
        Netlist.Circuit.input_count circuit <> Netlist.Circuit.input_count source
        || Netlist.Circuit.output_count circuit <> Netlist.Circuit.output_count source
      then fail_check "%s: BLIF round trip changed the interface" name;
      (* the models are built from the generator's netlist, as in
         run_entry; the parsed one only proves the import leg *)
      let sim = Gatesim.Simulator.create source in
      let bits = Netlist.Circuit.input_count source in
      let prng =
        Stimulus.Prng.create (config.Experiments.Table1.seed + Hashtbl.hash name)
      in
      let char_seq =
        Stimulus.Generator.sequence prng ~bits ~length:config.char_vectors ~sp:0.5 ~st:0.5
      in
      let con, lin =
        span "baselines" "baselines.characterize" (fun () ->
            ( Powermodel.Baselines.characterize_con sim char_seq,
              Powermodel.Baselines.characterize_lin sim char_seq ))
      in
      let avg, avg_misses =
        build_counted "model" "model.build_avg" (fun () ->
            Powermodel.Model.build ~max_size:e.max_avg source)
      in
      let ub, ub_misses =
        build_counted "model" "model.build_ub" (fun () ->
            Powermodel.Bounds.build ~max_size:e.max_ub source)
      in
      let avg_c, ub_c =
        span "compiled" "compiled.compile" (fun () ->
            (Powermodel.Model.compile avg, Powermodel.Model.compile ub))
      in
      let path = Filename.concat dir (name ^ ".cfpm") in
      let meta =
        span "store" "store.save" (fun () ->
            match Store.save ~path avg with
            | Ok m -> m
            | Error err -> failwith (name ^ ": store save: " ^ Guard.Error.to_string err))
      in
      (match span "store" "store.verify" (fun () -> Store.verify path) with
      | Ok m when m.Store.nodes = meta.Store.nodes -> ()
      | Ok _ -> fail_check "%s: store verify disagrees with save" name
      | Error err -> fail_check "%s: store verify: %s" name (Guard.Error.to_string err));
      (match span "store" "store.load" (fun () -> Store.load path) with
      | Ok l ->
        if
          Dd.Compiled.to_repr (Powermodel.Model.compiled_program l.Store.compiled)
          <> Dd.Compiled.to_repr (Powermodel.Model.compiled_program avg_c)
        then fail_check "%s: loaded artifact's program differs from the built one" name
      | Error err -> fail_check "%s: store load: %s" name (Guard.Error.to_string err));
      let store_bytes = (Unix.stat path).Unix.st_size in
      let results =
        span "sweep" "sweep.evaluate" (fun () ->
            Experiments.Sweep.run_grid ~vectors:config.vectors
              ~seed:(config.seed + 1) ~jobs:1 sim
              [
                ("Con", Experiments.Estimator.Characterized con);
                ("Lin", Experiments.Estimator.Characterized lin);
                ("ADD", Experiments.Estimator.Compiled_model avg_c);
                ("ADD-ub", Experiments.Estimator.Compiled_model ub_c);
              ])
      in
      let open Experiments.Sweep in
      let model_nodes = Powermodel.Model.size avg in
      let bound_nodes = Powermodel.Model.size ub in
      let check =
        check_json ~name ~are_con:(are_average results "Con")
          ~are_lin:(are_average results "Lin") ~are_add:(are_average results "ADD")
          ~are_con_ub:(are_constant_maximum results (Powermodel.Bounds.constant_bound ub))
          ~are_add_ub:(are_maximum results "ADD-ub") ~model_nodes ~bound_nodes
      in
      {
        name;
        wall = now () -. t0;
        cpu = cpu () -. c0;
        check = Json.to_string ~pretty:false check;
        avg_misses;
        ub_misses;
        model_nodes;
        bound_nodes;
        store_bytes;
      })

(* One pass: the whole eight-row table, checked against the reference. *)
let pass ~dir ~config ~reference inputs =
  (* each row starts from a compacted heap, so no row pays for the
     garbage of the one before and the memory high-water mark is that of
     the largest row; the table's time is the sum of its rows *)
  let out =
    List.map
      (fun input ->
        Gc.compact ();
        run_row ~dir ~config input)
      inputs
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 out in
  List.iter
    (fun r ->
      match List.assoc_opt r.name reference with
      | Some expected when expected = r.check -> ()
      | Some expected ->
        fail_check "table1 %s: got %s, reference %s" r.name r.check expected
      | None -> fail_check "table1 %s: no reference row" r.name)
    out;
  (out, sum (fun r -> r.wall), sum (fun r -> r.cpu))

(* Collapse planning alone: the exact cm85 model compressed to MAX 500. *)
let approx_probe () =
  let exact = Powermodel.Model.build (Circuits.Suite.case_study.Circuits.Suite.build ()) in
  let m = exact.Powermodel.Model.add_manager in
  let f = exact.Powermodel.Model.cap in
  let sizes = ref [] in
  let times =
    Array.init 3 (fun _ ->
        let g, dt =
          time (fun () ->
              span "approx" "approx.compress" (fun () ->
                  Dd.Approx.compress m ~strategy:Dd.Approx.Average ~max_size:500 f))
        in
        sizes := Dd.Add.size g :: !sizes;
        dt)
  in
  (median times, List.hd !sizes)

let run ~seed ~seconds ~traced =
  Experiments.Estimator.set_mode Experiments.Estimator.Compiled;
  let dir = work_dir "table1" in
  let cls = seed_class seed in
  let config = config_of_class cls in
  let reference = load_reference cls in
  (* set-up: build the eight suite netlists and render them to BLIF, the
     inputs every pass reads; a few milliseconds, so repeated often enough
     for a steady median, the last result kept *)
  let setups = Array.init 200 (fun _ -> cpu_time make_inputs) in
  let inputs = fst setups.(Array.length setups - 1) in
  let walls = ref [] and cpus = ref [] in
  let pass () =
    let out, wall, cpu = pass ~dir ~config ~reference inputs in
    walls := wall :: !walls;
    cpus := cpu :: !cpus;
    (out, wall)
  in
  let outcome metrics =
    {
      correct = !check_failures = [];
      attempted = List.length rows * List.length !walls;
      failed = min (List.length !check_failures) (List.length rows * List.length !walls);
      metrics;
    }
  in
  if not traced then begin
    (* at least one full table; more while another fits in the window *)
    let deadline = now () +. seconds in
    let rec loop () =
      let _, wall = pass () in
      if now () +. wall < deadline then loop ()
    in
    loop ();
    outcome
      [
        ("setup_s", median (Array.map snd setups), "s");
        ("pass_cpu_s", median (Array.of_list !cpus), "s");
      ]
  end
  else begin
    (* an untraced table, whose times are reported, then the traced one
       after a counter reset, whose spans and counts are *)
    let out, untraced = pass () in
    Obs.Metrics.reset ();
    tracing := true;
    let traced_out, traced_wall = pass () in
    tracing := false;
    let counts =
      List.map
        (fun n -> (n, float (counter n)))
        [
          "dd.cache_hits";
          "dd.cache_misses";
          "dd.peak_add_nodes";
          "dd.collapse_passes";
          "model.approx_calls";
          "model.builds";
          "store.saves";
          "store.loads";
        ]
    in
    let compress_s, compressed = approx_probe () in
    let hits = List.assoc "dd.cache_hits" counts in
    let miss = List.assoc "dd.cache_misses" counts in
    let nodes =
      List.fold_left (fun a r -> a + r.model_nodes + r.bound_nodes) 0 traced_out
    in
    let per_row f = List.map f traced_out in
    let metrics =
      [
        ("table1_s", untraced, "s");
        ("netlist.parse_s", span_total "netlist.parse", "s");
        ("baselines.characterize_s", span_total "baselines.characterize", "s");
        ("model.build_avg_s", span_total "model.build_avg", "s");
        ("model.build_ub_s", span_total "model.build_ub", "s");
        ("compiled.compile_s", span_total "compiled.compile", "s");
        ("store.save_s", span_total "store.save", "s");
        ("store.verify_s", span_total "store.verify", "s");
        ("store.load_s", span_total "store.load", "s");
        ( "store.bytes",
          float (List.fold_left (fun a r -> a + r.store_bytes) 0 traced_out),
          "bytes" );
        ("sweep.evaluate_s", span_total "sweep.evaluate", "s");
        ("approx.compress_s", compress_s, "s");
        ("approx.compress_nodes", float compressed, "count");
        ( "dd.hit_rate",
          (if hits +. miss > 0.0 then hits /. (hits +. miss) else 0.0),
          "ratio" );
        ("dd.misses_per_node", miss /. float nodes, "ratio");
        ("trace.overhead_frac", (traced_wall -. untraced) /. untraced, "ratio");
      ]
      @ List.map (fun (n, v) -> (n, v, "count")) counts
      @ List.map (fun r -> ("table1.row_s." ^ r.name, r.wall, "s")) out
      @ per_row (fun r ->
            ( "dd.misses_per_node.avg." ^ r.name,
              float r.avg_misses /. float r.model_nodes,
              "ratio" ))
      @ per_row (fun r ->
            ( "dd.misses_per_node.ub." ^ r.name,
              float r.ub_misses /. float r.bound_nodes,
              "ratio" ))
    in
    outcome metrics
  end
