(* Crash-safe experiment runs: supervised retry over the pool, plus a
   journal of completed tasks so a relaunched run skips work already on
   disk.

   The flow per task list:

     recover journal  ->  split cached / to-run  ->  Supervisor.run the
     remainder (each completion appended to the journal from inside the
     task, so a kill between tasks loses nothing)  ->  merge back in
     submission order.

   Results recovered from the journal are byte-identical to freshly
   computed ones ([Json]'s exact float round trip), so a resumed bench
   run reproduces model_errors exactly. *)

module Supervisor = Parallel.Pool.Supervisor

type 'a outcome =
  | Fresh of 'a * int
  | Recovered of 'a * int
  | Quarantined of Guard.Error.t * int
  | Failed of Guard.Error.t * int

let survivor = function
  | Fresh (v, _) | Recovered (v, _) -> Some v
  | Quarantined _ | Failed _ -> None

let attempts = function
  | Fresh (_, n) | Recovered (_, n) | Quarantined (_, n) | Failed (_, n) -> n

type options = {
  journal : string option;
  resume : bool;
  policy : Supervisor.policy;
  jobs : int option;
  sleep : (float -> unit) option;
}

let default_options =
  {
    journal = None;
    resume = false;
    policy = Supervisor.default_policy;
    jobs = None;
    sleep = None;
  }

(* Journal payloads wrap the experiment result with the attempt count so
   a recovered row still reports how hard it was to compute. *)
let envelope ~attempts payload =
  Json.Obj [ ("attempts", Json.Int attempts); ("result", payload) ]

let of_envelope j =
  match (Json.member "attempts" j, Json.member "result" j) with
  | Some a, Some r -> (
    match Json.to_int a with Some n when n >= 1 -> Some (n, r) | _ -> None)
  | _ -> None

let recovered_outcome decode payload =
  match of_envelope payload with
  | None -> None
  | Some (n, r) -> (
    match decode r with
    | Ok v -> Some (Recovered (v, n))
    | Error _ ->
      (* written by a different code version: recompute, don't fail *)
      None)

let of_status (st : _ Supervisor.status) =
  match st.Supervisor.outcome with
  | Supervisor.Completed v -> Fresh (v, st.Supervisor.attempts)
  | Supervisor.Quarantined e -> Quarantined (e, st.Supervisor.attempts)
  | Supervisor.Fatal e -> Failed (e, st.Supervisor.attempts)

let run_keyed ~options ~encode ~decode tasks =
  let recovery =
    match options.journal with
    | Some path when options.resume -> (
      match Journal.recover path with
      | Ok r -> r
      | Error e -> Guard.Error.raise_ e)
    | Some _ | None -> Journal.empty_recovery
  in
  let cached =
    List.filter_map
      (fun (key, _) ->
        Option.bind (Journal.find recovery key) (fun payload ->
            Option.map (fun o -> (key, o)) (recovered_outcome decode payload)))
      tasks
  in
  let to_run =
    List.filter (fun (key, _) -> not (List.mem_assoc key cached)) tasks
  in
  let with_writer k =
    match options.journal with
    | None -> k None
    | Some path -> Journal.with_journal path (fun t -> k (Some t))
  in
  let statuses =
    if to_run = [] then []
    else
      with_writer (fun writer ->
          let wrap (key, f) =
            ( key,
              fun () ->
                let v = f () in
                (* append from inside the task: a kill between tasks
                   loses at most work in flight, never completed rows.
                   [Guard.Fault.attempt] is the ambient attempt index of
                   this supervised task. *)
                (match writer with
                | Some t ->
                  Journal.append t ~key
                    (envelope ~attempts:(Guard.Fault.attempt () + 1) (encode v))
                | None -> ());
                v )
          in
          Supervisor.run ?jobs:options.jobs ~policy:options.policy
            ?sleep:options.sleep (List.map wrap to_run))
  in
  let ran =
    List.map (fun (st : _ Supervisor.status) -> (st.Supervisor.key, of_status st))
      statuses
  in
  List.map
    (fun (key, _) ->
      match List.assoc_opt key cached with
      | Some o -> (key, o)
      | None -> (key, List.assoc key ran))
    tasks

(* ------------------------------------------------------------------ *)
(* Per-experiment drivers.  The task key covers every parameter that
   changes the numbers, so a journal written under different settings is
   never reused. *)

let table1 ?(options = default_options) ?(config = Table1.default_config)
    ?names () =
  let params =
    [
      ("vectors", string_of_int config.Table1.vectors);
      ("char_vectors", string_of_int config.Table1.char_vectors);
      ("seed", string_of_int config.Table1.seed);
      ("max_scale", Printf.sprintf "%.17g" config.Table1.max_scale);
    ]
  in
  let entries = Table1.selected names in
  let tasks =
    List.map
      (fun (e : Circuits.Suite.entry) ->
        ( Journal.task_key ~experiment:"table1" ~circuit:e.Circuits.Suite.name
            ~params,
          fun () -> Table1.run_entry ~config ?jobs:options.jobs e ))
      entries
  in
  let outcomes =
    run_keyed ~options ~encode:Table1.row_to_json ~decode:Table1.row_of_json
      tasks
  in
  List.map2
    (fun (e : Circuits.Suite.entry) (_, o) -> (e.Circuits.Suite.name, o))
    entries outcomes

(* fig7a/fig7b run as single supervised tasks; the pool's single-task
   inline path keeps their internal parallelism intact. *)

let single ~experiment ~params ~encode ~decode ~options f =
  let key =
    Journal.task_key ~experiment
      ~circuit:Circuits.Suite.case_study.Circuits.Suite.name ~params
  in
  match run_keyed ~options ~encode ~decode [ (key, f) ] with
  | [ (_, o) ] -> o
  | _ -> assert false

let sampling_params ~vectors ~char_vectors ~seed =
  [
    ("vectors", string_of_int vectors);
    ("char_vectors", string_of_int char_vectors);
    ("seed", string_of_int seed);
  ]

let fig7a ?(options = default_options) ?(vectors = 3000) ?(char_vectors = 3000)
    ?(seed = 7) () =
  single ~experiment:"fig7a"
    ~params:(sampling_params ~vectors ~char_vectors ~seed)
    ~encode:Fig7a.result_to_json ~decode:Fig7a.result_of_json ~options
    (fun () ->
      Fig7a.run ~vectors ~char_vectors ~seed ?jobs:options.jobs ())

let fig7b ?(options = default_options) ?(vectors = 3000) ?(char_vectors = 3000)
    ?(seed = 7) () =
  single ~experiment:"fig7b"
    ~params:(sampling_params ~vectors ~char_vectors ~seed)
    ~encode:Fig7b.result_to_json ~decode:Fig7b.result_of_json ~options
    (fun () ->
      Fig7b.run ~vectors ~char_vectors ~seed ?jobs:options.jobs ())
