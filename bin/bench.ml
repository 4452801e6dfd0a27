(* `cfpm bench`: regenerates every table and figure of the paper's
   evaluation section, runs the ablation studies called out in DESIGN.md
   and the deterministic probes (compiled eval_batch, streaming
   telemetry, adversarial worst case), and writes a machine-readable
   report (schema cfpm-bench/9) so CI can diff the model errors of two
   runs.

   Experiments run supervised and fault-isolated: a transient failure is
   retried with deterministic backoff, a circuit still failing after the
   retry budget becomes a {"status": "quarantined"} entry in the JSON
   report, a non-retryable one {"status": "error"}; the remaining
   circuits are unaffected and the run still exits 0.  With --resume set,
   rows read back from the journal are marked {"status": "recovered"} and
   are byte-identical under [model_errors] to freshly computed ones.  Only
   a failure of the harness itself is fatal. *)

let heading title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* Runs [f], prints the wall clock, and returns (result, elapsed) so the
   JSON report can carry the timing alongside the data. *)
let timed label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "[%s: %.1fs]\n" label dt;
  (r, dt)

(* [only] is the --only subset ([] for the whole suite). *)
let wanted only name = only = [] || List.mem name only

(* ------------------------------------------------------------------ *)
(* Experiment reproductions (one per paper table/figure).              *)

(* Fault isolation for a whole experiment: any escaping exception becomes
   a classified Guard.Error instead of killing the harness. *)
let protected f =
  match f () with
  | r -> Ok r
  | exception e -> Error (Guard.Error.of_exn e)

let report_failure label err =
  Printf.printf "%s FAILED: %s\n" label (Guard.Error.to_string err)

let report_outcome label render outcome =
  match outcome with
  | Experiments.Durable.Fresh (r, _) -> print_string (render r)
  | Experiments.Durable.Recovered (r, n) ->
    Printf.printf "[%s: recovered from journal, %d attempt(s)]\n" label n;
    print_string (render r)
  | Experiments.Durable.Quarantined (err, n) ->
    Printf.printf "%s QUARANTINED after %d attempt(s): %s\n" label n
      (Guard.Error.to_string err)
  | Experiments.Durable.Failed (err, _) -> report_failure label err

let run_figure ~title ~label ~experiment ~render =
  heading title;
  let r, dt = timed label (fun () -> protected experiment) in
  (match r with
  | Ok o -> report_outcome label render o
  | Error err -> report_failure label err);
  (r, dt)

let run_table1 ~options ~config ~names =
  heading "Experiment E3/E4: Table 1 — all benchmarks";
  let outcomes, dt =
    timed "table1" (fun () ->
        Experiments.Durable.table1 ~options ~config ?names ())
  in
  let ok_rows =
    List.filter_map (fun (_, o) -> Experiments.Durable.survivor o) outcomes
  in
  print_string (Experiments.Report.table1 ok_rows);
  List.iter
    (fun (name, o) ->
      match o with
      | Experiments.Durable.Fresh _ -> ()
      | Experiments.Durable.Recovered (_, n) ->
        Printf.printf "[%s: recovered from journal, %d attempt(s)]\n" name n
      | Experiments.Durable.Quarantined (err, n) ->
        Printf.printf "%s QUARANTINED after %d attempt(s): %s\n" name n
          (Guard.Error.to_string err)
      | Experiments.Durable.Failed (err, _) -> report_failure name err)
    outcomes;
  (outcomes, dt)

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)

let ablation_weighting ~vectors ~jobs =
  heading "Ablation A1: collapse weighting (cm85, MAX = 500)";
  let circuit = Circuits.Suite.case_study.Circuits.Suite.build () in
  let sim = Gatesim.Simulator.create circuit in
  let estimators =
    List.map
      (fun (label, weighting) ->
        (label, Experiments.Estimator.add_model
                  (Powermodel.Model.build ~weighting ~max_size:500 circuit)))
      [
        ("unweighted", Dd.Approx.Unweighted);
        ("uniform-mass", Dd.Approx.Uniform_mass);
        ("robust", Dd.Approx.Robust []);
      ]
  in
  let results =
    Experiments.Sweep.run_grid ~vectors ~seed:31 ~jobs sim estimators
  in
  Printf.printf
    "ARE over the default grid (paper-literal ranking vs mass weighting vs \
     the statistics-robust default):\n";
  List.iter
    (fun (label, _) ->
      Printf.printf "  %-14s %7s%%\n" label
        (Experiments.Report.pct (Experiments.Sweep.are_average results label)))
    estimators

let ablation_accumulation ~vectors ~jobs =
  heading
    "Ablation A2: approximation during construction vs one final collapse \
     (cm85, MAX = 500)";
  let circuit = Circuits.Suite.case_study.Circuits.Suite.build () in
  let sim = Gatesim.Simulator.create circuit in
  let incremental, _ =
    timed "incremental build" (fun () ->
        Powermodel.Model.build ~max_size:500 circuit)
  in
  let exact, _ =
    timed "exact build" (fun () -> Powermodel.Model.build circuit)
  in
  let oneshot_cap, _ =
    timed "one-shot compress" (fun () ->
        Dd.Approx.compress exact.Powermodel.Model.add_manager
          ~strategy:Dd.Approx.Average ~max_size:500 exact.Powermodel.Model.cap)
  in
  let oneshot = { exact with Powermodel.Model.cap = oneshot_cap } in
  let estimators =
    [
      ("incremental", Experiments.Estimator.add_model incremental);
      ("one-shot", Experiments.Estimator.add_model oneshot);
    ]
  in
  let results =
    Experiments.Sweep.run_grid ~vectors ~seed:32 ~jobs sim estimators
  in
  Printf.printf "exact model: %d nodes; both compressed to <= 500\n"
    (Dd.Add.size exact.Powermodel.Model.cap);
  List.iter
    (fun (label, _) ->
      Printf.printf "  %-12s ARE %7s%%\n" label
        (Experiments.Report.pct (Experiments.Sweep.are_average results label)))
    estimators

let ablation_variable_pairing () =
  heading "Ablation A3: operand interleaving vs block input order (comparators)";
  let block_comparator bits =
    (* same function as Comparator.circuit but inputs declared a*, then b* *)
    let open Netlist in
    let b = Builder.create ~name:"cmp-block" in
    let a = Builder.inputs b "a" bits in
    let bb = Builder.inputs b "b" bits in
    let gt, eq, lt = Circuits.Comparator.ripple b ~a ~b:bb in
    Builder.output b "gt" gt;
    Builder.output b "eq" eq;
    Builder.output b "lt" lt;
    Builder.finish b
  in
  List.iter
    (fun bits ->
      let inter =
        Circuits.Comparator.circuit ~bits ~name:"cmp-inter" ()
      in
      let block = block_comparator bits in
      let size c = Powermodel.Model.size (Powermodel.Model.build c) in
      Printf.printf
        "  %2d-bit comparator: exact ADD %6d nodes interleaved vs %6d block\n"
        bits (size inter) (size block))
    [ 4; 5; 6 ]

let ablation_implementation_sensitivity () =
  heading
    "Ablation A4: white-box models track the implementation, not the \
     function (16-bit parity)";
  let xor_tree = Circuits.Parity.parity () in
  let nand_mapped = Circuits.Parity.parity_nand () in
  let report label circuit =
    let model = Powermodel.Model.build ~max_size:3000 circuit in
    Printf.printf
      "  %-10s %4d gates, uniform-average switching %.1f fF, worst case %.1f fF\n"
      label
      (Netlist.Circuit.gate_count circuit)
      (Powermodel.Model.average_capacitance model)
      (Powermodel.Model.max_capacitance model)
  in
  report "xor-cells" xor_tree;
  report "nand-only" nand_mapped;
  Printf.printf
    "  (same Boolean function, different netlists -> different power models)\n"

(* ------------------------------------------------------------------ *)
(* Ablation A5: variable-order policies.

   Every Table 1 circuit (under its Table 1 MAX bound, respecting
   --only) plus the exact cm85 case study is built once per reorder
   policy; the report records node counts, sift swaps, reorder gain and
   build wall time per (circuit, policy) row.  Estimates are
   byte-identical across policies by construction — the ablation
   measures shape, not accuracy — and CI asserts on the cm85-exact rows
   (sifting must beat the declared-order node count). *)

let ablation_reorder ~only =
  heading "Ablation A5: variable-order policies (Table 1 suite + exact cm85)";
  let suite =
    List.filter (fun e -> wanted only e.Circuits.Suite.name) Circuits.Suite.all
  in
  let cases =
    List.map
      (fun e ->
        ( e.Circuits.Suite.name,
          e.Circuits.Suite.build (),
          Some e.Circuits.Suite.max_avg ))
      suite
    @ [
        (* the exact case study: the headline size the reordering is
           judged on (declared order: 9382 nodes) *)
        ( "cm85-exact",
          Circuits.Suite.case_study.Circuits.Suite.build (),
          None );
      ]
  in
  let rows =
    List.concat_map
      (fun (label, circuit, max_size) ->
        List.map
          (fun policy ->
            let t0 = Unix.gettimeofday () in
            let model =
              Powermodel.Model.build ~reorder:policy ?max_size circuit
            in
            let dt = Unix.gettimeofday () -. t0 in
            let s = model.Powermodel.Model.stats in
            Printf.printf
              "  %-10s %-9s %6d nodes  %5d swap(s)  %+5d gain  %6.2fs\n"
              label
              (Powermodel.Reorder.to_string policy)
              s.Powermodel.Model.final_size s.Powermodel.Model.sift_swaps
              s.Powermodel.Model.reorder_gain dt;
            Json.Obj
              [
                ("circuit", Json.String label);
                ( "max_size",
                  match max_size with
                  | Some m -> Json.Int m
                  | None -> Json.Null );
                ("policy", Json.String (Powermodel.Reorder.to_string policy));
                ("nodes", Json.Int s.Powermodel.Model.final_size);
                ("sift_swaps", Json.Int s.Powermodel.Model.sift_swaps);
                ("reorder_gain", Json.Int s.Powermodel.Model.reorder_gain);
                ("build_seconds", Json.Float dt);
              ])
          Powermodel.Reorder.all)
      cases
  in
  Json.List rows

(* ------------------------------------------------------------------ *)
(* Compiled eval_batch determinism probe.

   A fixed pseudo-random batch, large enough to span several pool shards
   (Dd.Compiled.block vectors each), evaluated with [jobs] workers.
   Everything emitted except the [jobs] member must be byte-identical
   whatever the worker count — CI diffs the jobs=1 and jobs=4 reports on
   exactly this object. *)

let eval_batch_probe ~jobs =
  heading "Compiled eval_batch determinism probe";
  let circuit = Circuits.Suite.case_study.Circuits.Suite.build () in
  let model = Powermodel.Model.build ~max_size:500 circuit in
  let compiled = Powermodel.Model.compile model in
  let bits = Netlist.Circuit.input_count circuit in
  let prng = Stimulus.Prng.create 97 in
  let seq =
    Stimulus.Generator.sequence prng ~bits
      ~length:((4 * Dd.Compiled.block) + 1)
      ~sp:0.5 ~st:0.5
  in
  let batch, n = Powermodel.Model.pack_transitions compiled seq in
  let out = Powermodel.Model.eval_batch ~jobs compiled ~inputs:batch ~n in
  let stats =
    Dd.Compiled.stats_batch ~jobs
      (Powermodel.Model.compiled_program compiled)
      ~inputs:batch ~n
  in
  let digest =
    let b = Bytes.create (8 * Array.length out) in
    Array.iteri
      (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v))
      out;
    Digest.to_hex (Digest.bytes b)
  in
  Printf.printf "  %d transitions on %d worker(s): digest %s\n" n jobs digest;
  Printf.printf "  fold: total %.3f fF, max %.2f fF, min %.2f fF\n"
    stats.Dd.Compiled.total stats.Dd.Compiled.maximum
    stats.Dd.Compiled.minimum;
  Json.Obj
    [
      ("n", Json.Int n);
      ("jobs", Json.Int jobs);
      ("output_digest", Json.String digest);
      ( "sample",
        Json.List
          (List.init (min 4 n) (fun i -> Json.Float out.(i))) );
      ("total", Json.Float stats.Dd.Compiled.total);
      ("maximum", Json.Float stats.Dd.Compiled.maximum);
      ("minimum", Json.Float stats.Dd.Compiled.minimum);
    ]

(* ------------------------------------------------------------------ *)
(* Adversarial worst-case probe.

   Cross-validates the ADD traversal against the independent PBO
   branch-and-bound oracle on the tractable Table 1 circuits — exact
   models, so the two routes must agree to float equality — then
   demonstrates the budget-bounded path on a circuit whose search space
   defeats a small conflict ceiling.  Budgets are conflict ceilings
   only, never wall clocks, so every row (and the pbo.* metrics the
   snapshot below picks up) is deterministic across hosts and worker
   counts. *)

let adversarial_tractable = [ "decod"; "x2"; "alu2"; "cm85"; "cmb"; "cm150" ]

let adversarial_probe ~only =
  heading "Adversarial worst-case probe (ADD vs PBO cross-validation)";
  let solver_stats = function
    | Some s ->
      [
        ("conflicts", Json.Int s.Pbo.Solver.conflicts);
        ("decisions", Json.Int s.Pbo.Solver.decisions);
        ("restarts", Json.Int s.Pbo.Solver.restarts);
      ]
    | None -> []
  in
  let agreement =
    List.filter_map
      (fun name ->
        if not (wanted only name) then None
        else
          Option.map
            (fun entry ->
              let circuit = entry.Circuits.Suite.build () in
              let model = Powermodel.Model.build circuit in
              let budget =
                Guard.Budget.create ~conflict_ceiling:5_000_000 ()
              in
              match
                Powermodel.Adversarial.cross_validate ~budget model circuit
              with
              | Error e ->
                Printf.printf "  %-8s FAILED: %s\n" name
                  (Guard.Error.to_string e);
                Json.Obj
                  [
                    ("circuit", Json.String name);
                    ("error", Guard.Error.to_json e);
                  ]
              | Ok a ->
                let add = a.Powermodel.Adversarial.add in
                let pbo = a.Powermodel.Adversarial.pbo in
                Printf.printf
                  "  %-8s add %8.1f fF  pbo %8.1f fF  %s\n" name
                  add.Powermodel.Adversarial.value
                  pbo.Powermodel.Adversarial.value
                  (if a.Powermodel.Adversarial.agree then "agree"
                   else "DISAGREE");
                Json.Obj
                  ([
                     ("circuit", Json.String name);
                     ("add", Json.Float add.Powermodel.Adversarial.value);
                     ("pbo", Json.Float pbo.Powermodel.Adversarial.value);
                     ( "comparable",
                       Json.Bool a.Powermodel.Adversarial.comparable );
                     ("agree", Json.Bool a.Powermodel.Adversarial.agree);
                   ]
                  @ solver_stats pbo.Powermodel.Adversarial.stats))
            (Circuits.Suite.find name))
      adversarial_tractable
  in
  (* the bounded path: 16-input parity defeats a 2000-conflict ceiling,
     and the solver must answer a sound [value, upper] interval *)
  let bounded =
    match Circuits.Suite.find "parity" with
    | None -> Json.Null
    | Some entry -> (
      let circuit = entry.Circuits.Suite.build () in
      let budget = Guard.Budget.create ~conflict_ceiling:2000 () in
      match Powermodel.Adversarial.worst_pbo ~budget circuit with
      | Error e -> Json.Obj [ ("error", Guard.Error.to_json e) ]
      | Ok r ->
        Printf.printf
          "  %-8s bounded: achieved %.1f fF <= max <= %.1f fF (%s)\n"
          "parity" r.Powermodel.Adversarial.value
          r.Powermodel.Adversarial.upper
          (if r.Powermodel.Adversarial.optimal then "optimal"
           else "ceiling hit");
        Json.Obj
          ([
             ("circuit", Json.String "parity");
             ("value", Json.Float r.Powermodel.Adversarial.value);
             ("upper", Json.Float r.Powermodel.Adversarial.upper);
             ("optimal", Json.Bool r.Powermodel.Adversarial.optimal);
           ]
          @ solver_stats r.Powermodel.Adversarial.stats))
  in
  Json.Obj [ ("agreement", Json.List agreement); ("bounded", bounded) ]

(* Fixed drifting workload through the full telemetry pipeline: online
   statistics sharded over the pool, drift detection at the phase
   switch, exact re-evaluation + Lin refit.  Deterministic by
   construction, so the stats digest doubles as a cross-jobs identity
   check; runs before the metrics snapshot (its counters are Sum
   non-local and count-deterministic). *)
let stream_probe ~jobs =
  heading "Streaming telemetry probe";
  let circuit = Circuits.Suite.case_study.Circuits.Suite.build () in
  let model = Powermodel.Model.build ~max_size:500 circuit in
  let bits = Netlist.Circuit.input_count circuit in
  let phases =
    [
      { Stream.Source.sp = 0.5; st = 0.05; count = 6144 };
      { Stream.Source.sp = 0.85; st = 0.4; count = 6144 };
    ]
  in
  match Stream.Source.generator ~seed:2024 ~bits phases with
  | Error e -> Json.Obj [ ("error", Guard.Error.to_json e) ]
  | Ok source -> (
    let t0 = Unix.gettimeofday () in
    let config = { Stream.Pipeline.default_config with jobs = Some jobs } in
    match Stream.Pipeline.run config ~model ~source with
    | Error e -> Json.Obj [ ("error", Guard.Error.to_json e) ]
    | Ok o ->
      let dt = Unix.gettimeofday () -. t0 in
      let n = Stream.Stats.vectors o.Stream.Pipeline.stats in
      let vps = float_of_int n /. dt in
      let digest =
        Digest.to_hex (Digest.string (Json.to_string (Stream.Pipeline.stats_json o)))
      in
      Printf.printf
        "  %d vectors on %d worker(s): %.0f vectors/sec, %d drift event(s), \
         stats digest %s\n"
        n jobs vps
        (List.length o.Stream.Pipeline.events)
        digest;
      Json.Obj
        [
          ("n", Json.Int n);
          ("jobs", Json.Int jobs);
          ("drift_events", Json.Int (List.length o.Stream.Pipeline.events));
          ("quarantined", Json.Int o.Stream.Pipeline.quarantined);
          ("stats_digest", Json.String digest);
          ("vectors_per_sec", Json.Float vps);
        ])

(* ------------------------------------------------------------------ *)
(* Machine-readable report.                                            *)

(* Obs.Metrics snapshot: only deterministic (Sum/Max, non-local)
   counters, so two runs of the same workload match key-for-key whatever
   the worker count.  The cfpm executable also links the model store and
   the query server, whose counters register at start-up; the bench never
   runs either, so their always-zero counters stay out. *)
let metrics_json () =
  let bench_layer (name, _) =
    not
      (String.starts_with ~prefix:"store." name
      || String.starts_with ~prefix:"serve." name)
  in
  Json.Obj
    (List.filter_map
       (fun ((name, v) as m) ->
         if bench_layer m then Some (name, Json.Int v) else None)
       (Obs.Metrics.snapshot ()))

let run ~vectors ~char_vectors ~only ~force_fail ~jobs ~policy ~resume ~out =
  let t0 = Unix.gettimeofday () in
  let names = match only with [] -> None | l -> Some l in
  (* an unknown --only name fails here, before the slow experiments *)
  ignore (Experiments.Table1.selected names);
  let jobs = Option.value jobs ~default:(Parallel.Pool.default_jobs ()) in
  Printf.printf
    "cfpm benchmark harness — Characterization-Free Behavioral Power \
     Modeling (DATE 1998)\n";
  Printf.printf "vectors per run: %d, characterization: %d, jobs: %d\n" vectors
    char_vectors jobs;
  let options =
    {
      Experiments.Durable.default_options with
      journal = resume;
      resume = resume <> None;
      policy;
      jobs = Some jobs;
    }
  in
  let fig7a =
    run_figure
      ~title:"Experiment E1: Fig. 7a — RE vs transition probability (cm85)"
      ~label:"fig7a" ~render:Experiments.Report.fig7a
      ~experiment:(fun () ->
        Experiments.Durable.fig7a ~options ~vectors ~char_vectors ())
  in
  let fig7b =
    run_figure
      ~title:"Experiment E2: Fig. 7b — accuracy/size trade-off (cm85)"
      ~label:"fig7b" ~render:Experiments.Report.fig7b
      ~experiment:(fun () ->
        Experiments.Durable.fig7b ~options ~vectors ~char_vectors ())
  in
  let table1 =
    run_table1 ~options ~names
      ~config:
        {
          Experiments.Table1.default_config with
          vectors;
          char_vectors;
          force_fail;
        }
  in
  ablation_weighting ~vectors ~jobs;
  ablation_accumulation ~vectors ~jobs;
  ablation_variable_pairing ();
  ablation_implementation_sensitivity ();
  let reorder = ablation_reorder ~only in
  let eval_batch = eval_batch_probe ~jobs in
  let stream = stream_probe ~jobs in
  let adversarial = adversarial_probe ~only in
  let metrics = metrics_json () in
  let outcome_json render (outcome, dt) =
    match outcome with
    | Ok o -> render ~wall_seconds:dt o
    | Error err -> Experiments.Bench_json.experiment_error ~wall_seconds:dt err
  in
  let surviving (r, _) =
    Option.bind (Result.to_option r) Experiments.Durable.survivor
  in
  let table1_outcomes, table1_seconds = table1 in
  let json =
    Json.Obj
      [
        ("schema", Json.String "cfpm-bench/9");
        ("jobs", Json.Int jobs);
        ("vectors", Json.Int vectors);
        ("char_vectors", Json.Int char_vectors);
        ( "only",
          match only with
          | [] -> Json.Null
          | l -> Json.String (String.concat "," l) );
        ( "force_fail",
          Json.List (List.map (fun n -> Json.String n) force_fail) );
        ("retries", Json.Int policy.Parallel.Pool.Supervisor.max_retries);
        ( "backoff_ms",
          Json.Float policy.Parallel.Pool.Supervisor.base_backoff_ms );
        ( "resume",
          match resume with Some p -> Json.String p | None -> Json.Null );
        ( "fault_spec",
          match Sys.getenv_opt "CFPM_FAULT_SPEC" with
          | Some s -> Json.String s
          | None -> Json.Null );
        ("total_seconds", Json.Float (Unix.gettimeofday () -. t0));
        (* taken after the experiments, ablations and probes *)
        ("metrics", metrics);
        ( "experiments",
          Json.Obj
            [
              ( "fig7a",
                outcome_json Experiments.Bench_json.fig7a_durable fig7a );
              ( "fig7b",
                outcome_json Experiments.Bench_json.fig7b_durable fig7b );
              ( "table1",
                Experiments.Bench_json.table1_durable
                  ~wall_seconds:table1_seconds table1_outcomes );
            ] );
        (* deterministic digest of a fixed eval_batch workload — CI diffs
           this member across worker counts (modulo the jobs field) *)
        ("eval_batch", eval_batch);
        (* ablation A5 rows: per-(circuit, policy) node counts, sift
           swaps, reorder gain and build wall time; CI asserts the
           cm85-exact sift row beats declared order *)
        ("reorder", reorder);
        (* streaming telemetry probe: a fixed drifting workload through
           the full pipeline; the stats digest is jobs-independent *)
        ("stream", stream);
        (* adversarial probe: ADD-vs-PBO agreement rows on the tractable
           suite plus one budget-bounded interval — conflict-ceiling
           budgets only, so the member is deterministic and CI asserts
           every row agrees *)
        ("adversarial", adversarial);
        (* surviving circuits only: quarantined/failed entries are
           reported under [experiments], never here, so the determinism
           diff compares like with like *)
        ( "model_errors",
          Experiments.Bench_json.model_errors ?fig7a:(surviving fig7a)
            ?fig7b:(surviving fig7b)
            ~table1:
              (List.filter_map
                 (fun (_, o) -> Experiments.Durable.survivor o)
                 table1_outcomes)
            () );
      ]
  in
  (* atomic: a crash mid-emit leaves the previous complete report *)
  Journal.write_atomic out (Json.to_string json);
  Printf.printf "\n[wrote %s]\n" out;
  Printf.printf "\nDone.\n"
