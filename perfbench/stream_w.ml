(* Workload "stream": Stream.Pipeline.run with one worker over a drifting
   two-phase source on the cm85 model, with the gate-level refit
   simulator attached.  Bulk compiled evaluation, the stats fold, drift
   detection and Gatesim refit sampling; no socket and no build in the
   timed part. *)

open Common

let circuit = "cm85"

(* Vectors per pass: two phases, so every pass drifts once. *)
let phase_vectors = 65536

let phases =
  [
    { Stream.Source.sp = 0.5; st = 0.05; count = phase_vectors };
    { Stream.Source.sp = 0.85; st = 0.4; count = phase_vectors };
  ]

let seed_class = Table1.seed_class
let source_seed c = 1000 + c

let config = { Stream.Pipeline.default_config with name = "perfbench"; jobs = Some 1 }

let setup () =
  let e = Table1.entry circuit in
  let c = e.Circuits.Suite.build () in
  let model = Powermodel.Model.build ~max_size:e.Circuits.Suite.max_avg c in
  (model, Gatesim.Simulator.create c)

let source (_, simulator) c =
  let bits = Netlist.Circuit.input_count (Gatesim.Simulator.circuit simulator) in
  match Stream.Source.generator ~seed:(source_seed c) ~bits phases with
  | Ok s -> s
  | Error e -> failwith ("stream source: " ^ Guard.Error.to_string e)

let pass ((model, simulator) as ctx) c =
  let src = source ctx c in
  match Stream.Pipeline.run ~simulator config ~model ~source:src with
  | Ok o -> o
  | Error e -> failwith ("stream pipeline: " ^ Guard.Error.to_string e)

let digest o =
  let stats = Json.to_string ~pretty:false (Stream.Pipeline.stats_json o) in
  Digest.to_hex (Digest.string stats)

let reference_path = Filename.concat "perfbench" (Filename.concat "ref" "stream.json")

let record_reference () =
  let ctx = setup () in
  let classes =
    List.init Table1.seed_classes (fun c ->
        let o = pass ctx c in
        Json.Obj
          [
            ("class", Json.Int c);
            ("source_seed", Json.Int (source_seed c));
            ("drift_events", Json.Int (List.length o.Stream.Pipeline.events));
            ("digest", Json.String (digest o));
          ])
  in
  let doc =
    Json.Obj
      [
        ( "source",
          Json.String
            "MD5 of Stream.Pipeline.stats_json for one pass per seed class; \
             regenerate with perfbench.exe record-references" );
        ("classes", Json.List classes);
      ]
  in
  Out_channel.with_open_bin reference_path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

let reference_digest c =
  let text = In_channel.with_open_bin reference_path In_channel.input_all in
  let classes =
    match Json.of_string text with
    | Ok doc -> ( match Json.member "classes" doc with Some (Json.List l) -> l | _ -> [])
    | Error e -> failwith ("stream reference: " ^ e)
  in
  match
    List.find_map
      (fun j ->
        match (Json.member "class" j, Json.member "digest" j) with
        | Some (Json.Int k), Some (Json.String d) when k = c -> Some d
        | _ -> None)
      classes
  with
  | Some d -> d
  | None -> failwith "stream reference: no digest for this seed class"

(* Per-layer probes on the same vectors, outside the pipeline. *)
let drain ctx c =
  let src = source ctx c in
  let rec go acc = match Stream.Source.next src with
    | Some (Stream.Source.Vector v) -> go (v :: acc)
    | Some (Stream.Source.Malformed _) -> go acc
    | None -> Array.of_list (List.rev acc)
  in
  go []

let probes ((model, simulator) as ctx) c =
  let reps f = median (Array.init 3 (fun _ -> snd (time f))) in
  let vectors = drain ctx c in
  let n = Array.length vectors in
  let source_s =
    reps (fun () -> span "source" "source.drain" (fun () -> ignore (drain ctx c)))
  in
  let compiled = Powermodel.Model.compile model in
  let packed, transitions = Powermodel.Model.pack_transitions compiled vectors in
  let compiled_s =
    reps (fun () ->
        span "compiled" "compiled.eval_batch" (fun () ->
            ignore
              (Powermodel.Model.eval_batch ~jobs:1 compiled ~inputs:packed ~n:transitions)))
  in
  let sim_n = min 32768 (n - 1) in
  let gatesim_s =
    reps (fun () ->
        span "gatesim" "gatesim.switched_capacitance" (fun () ->
            for i = 0 to sim_n - 1 do
              ignore
                (Gatesim.Simulator.switched_capacitance simulator vectors.(i)
                   vectors.(i + 1))
            done))
  in
  let compiled_ns = compiled_s *. 1e9 /. float transitions in
  let gatesim_ns = gatesim_s *. 1e9 /. float sim_n in
  [
    ("source.vectors_per_s", float n /. source_s, "1/s");
    ("compiled.ns_per_transition", compiled_ns, "ns");
    ("gatesim.ns_per_transition", gatesim_ns, "ns");
    ("gatesim_over_compiled", gatesim_ns /. compiled_ns, "ratio");
  ]

let run ~seed ~seconds ~traced =
  let c = seed_class seed in
  let expected = reference_digest c in
  (* each set-up from a compacted heap, and the passes too, so the
     memory high-water mark is that of one set-up or one pass *)
  let setups =
    Array.init 5 (fun _ ->
        Gc.compact ();
        cpu_time setup)
  in
  let ctx = fst setups.(0) in
  let setup_s = median (Array.map snd setups) in
  Gc.compact ();
  let attempted = ref 0 and failed = ref 0 in
  (* passes until [window] seconds are spent; every pass is checked *)
  let window window =
    let deadline = now () +. window in
    let rec loop acc =
      let c0 = cpu () in
      let o, wall =
        time (fun () -> span "stream" "stream.pipeline" (fun () -> pass ctx c))
      in
      let pass_cpu = cpu () -. c0 in
      attempted := !attempted + Stream.Stats.vectors o.Stream.Pipeline.stats;
      failed := !failed + o.Stream.Pipeline.quarantined + o.Stream.Pipeline.sheds;
      if digest o <> expected then
        fail_check "stream: stats digest %s, reference %s" (digest o) expected;
      let events f = List.fold_left (fun a e -> a +. f e) 0.0 o.Stream.Pipeline.events in
      let acc =
        ( wall,
          pass_cpu,
          events (fun e -> e.Stream.Pipeline.expectation_seconds),
          events (fun e -> e.Stream.Pipeline.refit_seconds) )
        :: acc
      in
      if now () < deadline then loop acc else List.rev acc
    in
    loop []
  in
  let walls ps = Array.of_list (List.map (fun (w, _, _, _) -> w) ps) in
  let vectors_per_pass = 2 * phase_vectors in
  let outcome metrics =
    { correct = !check_failures = []; attempted = !attempted; failed = !failed; metrics }
  in
  if not traced then
    let ps = window seconds in
    let cpus = Array.of_list (List.map (fun (_, c, _, _) -> c) ps) in
    outcome [ ("setup_s", setup_s, "s"); ("pass_cpu_s", median cpus, "s") ]
  else begin
    let untraced = window (seconds /. 2.0) in
    Obs.Metrics.reset ();
    tracing := true;
    let traced_ps = window (seconds /. 2.0) in
    let per_pass =
      List.map
        (fun n -> (n, float (counter n) /. float (List.length traced_ps), "count"))
        [ "stream.vectors"; "stream.drift_events"; "stream.quarantined" ]
    in
    let probe_metrics = probes ctx c in
    tracing := false;
    let pipeline_s = median (walls traced_ps) in
    let med f = median (Array.of_list (List.map f traced_ps)) in
    let expectation_s = med (fun (_, _, e, _) -> e) in
    let refit_s = med (fun (_, _, _, r) -> r) in
    let untraced_s = median (walls untraced) in
    outcome
      ([
         ("stream_vectors_per_s", float vectors_per_pass /. untraced_s, "1/s");
         ("stream.pipeline_s", pipeline_s, "s");
         ("stream.expectation_s", expectation_s, "s");
         ("stream.refit_s", refit_s, "s");
         ("trace.overhead_frac", (pipeline_s -. untraced_s) /. untraced_s, "ratio");
       ]
      @ per_pass @ probe_metrics)
  end
