(* Workload "serve": BLIF -> Model.build -> Store.save for the seven small
   Table 1 rows, then `cfpm serve` (2 workers) in its own process, warmed
   with every artifact.  The timed part is a closed loop of 2 client
   connections, each waiting for its answer before sending the next
   request: mostly single-transition eval, plus 256-transition
   eval_batch, expectation and worst (ADD method).  Every socket answer
   is checked, outside the timed window, against the in-process
   Serve.Handler.handle_string answer to the same request bytes. *)

open Common

let models = List.filter (fun n -> n <> "parity") Table1.rows
let clients = 2
(* Every pass of a client sends the same mix in the same order: each of
   the 7 models gets 28 eval and 4 each of eval_batch, expectation and
   worst.  The split is an assumption, not taken from a recorded caller:
   no request log of an RTL co-simulation client exists.  The traced run
   reports each op's measured share of the pass's processor time
   (serve.<op>_cpu_share).  The seed draws the transitions and
   statistics, not the order, so the cost of a pass does not depend on
   the seed.  A client cycles through a pool of 4 passes. *)
let pattern = [| 0; 0; 0; 1; 0; 0; 2; 0; 0; 3 |]  (* op of each slot *)
let per_pass = 7 * 40  (* requests per client per pass *)
let pool_size = 4 * per_pass
let batch = 256
let ops = [| "eval"; "eval_batch"; "expectation"; "worst" |]

(* ------------------------------------------------------------------ *)
(* Set-up: artifacts, server process, warm-up.                          *)

let build_artifacts dir =
  List.map
    (fun name ->
      let e = Table1.entry name in
      let parsed =
        span "netlist" "netlist.parse" (fun () ->
            let blif = Netlist.Blif.to_string (e.Circuits.Suite.build ()) in
            match Netlist.Blif.parse blif with
            | Ok c -> c
            | Error err -> failwith (name ^ ": " ^ Guard.Error.to_string err))
      in
      let model =
        span "model" "model.build_avg" (fun () ->
            Powermodel.Model.build ~max_size:e.Circuits.Suite.max_avg parsed)
      in
      let file = name ^ ".cfpm" in
      (match
         span "store" "store.save" (fun () ->
             Store.save ~path:(Filename.concat dir file) model)
       with
      | Ok _ -> ()
      | Error err -> failwith (name ^ ": " ^ Guard.Error.to_string err));
      (file, Netlist.Circuit.input_count parsed))
    models

type server = { pid : int; address : [ `Unix of string | `Tcp of string * int ] }

let live : int list ref = ref []

let stop_server s =
  if List.mem s.pid !live then begin
    live := List.filter (( <> ) s.pid) !live;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 10.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
      | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ()
  end

let () =
  at_exit (fun () ->
      List.iter (fun pid -> stop_server { pid; address = `Unix "" }) !live)

let start_server ~cpu ~cfpm ~dir ~models_dir =
  let sock = Filename.concat dir "serve.sock" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let serve =
    [| cfpm; "serve"; "--socket"; sock; "--models"; models_dir;
       "--workers"; "2"; "--jobs"; "1" |]
  in
  let argv =
    match cpu with
    | Some c -> Array.append [| "taskset"; "-c"; string_of_int c |] serve
    | None -> serve
  in
  let pid = Unix.create_process argv.(0) argv null null log in
  Unix.close log;
  Unix.close null;
  live := pid :: !live;
  let s = { pid; address = `Unix sock } in
  let deadline = now () +. 60.0 in
  let rec wait () =
    match Serve.Client.connect s.address with
    | Ok c -> Serve.Client.close c
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "cfpm serve exited during start-up (see serve.log)");
      if now () > deadline then
        failwith ("cfpm serve never listened: " ^ Guard.Error.to_string e);
      Unix.sleepf 0.01;
      wait ()
  in
  wait ();
  s

let request_ok conn text =
  match Serve.Client.request_raw conn text with
  | Ok r -> r
  | Error e -> failwith ("serve request failed: " ^ Guard.Error.to_string e)

let warm conn artifacts =
  List.iteri
    (fun i (file, _) ->
      let r =
        request_ok conn
          (Json.to_string ~pretty:false
             (Json.Obj
                [
                  ("id", Json.Int i);
                  ("op", Json.String "meta");
                  ("model", Json.String file);
                ]))
      in
      match Json.of_string r with
      | Ok j when Json.member "ok" j = Some (Json.Bool true) -> ()
      | _ -> failwith ("warm-up of " ^ file ^ " failed: " ^ r))
    artifacts

(* A short-lived connection: each server worker serves one connection at
   a time, so an idle one held open would take a worker from the loop. *)
let with_conn server f =
  match Serve.Client.connect server.address with
  | Ok c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)
  | Error e -> failwith (Guard.Error.to_string e)

let cache_counts server =
  let r = with_conn server (fun c -> request_ok c {|{"id":"stats","op":"stats"}|}) in
  let get k =
    match Json.of_string r with
    | Ok j -> (
      match Option.bind (Json.member "result" j) (Json.member "cache") with
      | Some c -> Option.value ~default:0 (Option.bind (Json.member k c) Json.to_int)
      | None -> 0)
    | Error _ -> 0
  in
  (get "hits", get "misses")

(* ------------------------------------------------------------------ *)
(* The request mix, a pure function of (seed, client).                  *)

type request = {
  text : string;
  op : int;  (* index into [ops] *)
  file : string;
  sp : float;
  st : float;
}

let bits prng n =
  String.init n (fun _ -> if Stimulus.Prng.bool prng ~p:0.5 then '1' else '0')

let pool ~seed ~artifacts client =
  let prng = Stimulus.Prng.create ((seed * 7919) + client) in
  let arts = Array.of_list artifacts in
  let n = Array.length arts in
  (* the second client starts at another model, so the two rarely ask
     the same model for an analytic answer at once *)
  let order =
    Array.init pool_size (fun i ->
        let slot = i mod per_pass in
        (pattern.((slot / n) mod Array.length pattern), arts.((slot + (3 * client)) mod n)))
  in
  Array.mapi
    (fun i (op, (file, inputs)) ->
      let sp = 0.1 +. (0.01 *. float (Stimulus.Prng.int prng ~bound:81)) in
      let st = 0.05 +. (0.01 *. float (Stimulus.Prng.int prng ~bound:86)) in
      let st = Stimulus.Generator.feasible_st ~sp st in
      let extra =
        match op with
        | 0 ->
          let x_i = bits prng inputs in
          [ ("x_i", Json.String x_i); ("x_f", Json.String (bits prng inputs)) ]
        | 1 ->
          [
            ( "transitions",
              Json.List
                (List.init batch (fun _ ->
                     let x_i = bits prng inputs in
                     Json.List [ Json.String x_i; Json.String (bits prng inputs) ])) );
          ]
        | 2 -> [ ("sp", Json.Float sp); ("st", Json.Float st) ]
        | _ -> [ ("method", Json.String "add") ]
      in
      let text =
        Json.to_string ~pretty:false
          (Json.Obj
             ([
                ("id", Json.Int ((client * pool_size) + i));
                ("op", Json.String ops.(op));
                ("model", Json.String file);
              ]
             @ extra))
      in
      { text; op; file; sp; st })
    order

(* ------------------------------------------------------------------ *)
(* The closed loop.                                                     *)

(* Latencies go into flat arrays allocated up front, so the record
   keeping adds no garbage and no memory growth to the timed loop. *)
let max_samples = 1 lsl 20

type client_log = {
  lat : Float.Array.t;  (* seconds, in send order *)
  lat_op : Bytes.t;  (* op index of each latency *)
  mutable n : int;  (* latencies recorded *)
  mutable record : bool;  (* false in the traced window *)
  digests : string option array;  (* first answer seen per pool slot *)
  mutable sent : int;
  mutable mismatched : int;  (* answers differing from an earlier one *)
  mutable dropped : int;
}

let new_log () =
  {
    lat = Float.Array.create max_samples;
    lat_op = Bytes.create max_samples;
    n = 0;
    record = true;
    digests = Array.make pool_size None;
    sent = 0;
    mismatched = 0;
    dropped = 0;
  }

(* One client sends [per_pass] requests, cycling through its pool. *)
let client_pass conn reqs log =
  for _ = 1 to per_pass do
    let slot = log.sent mod pool_size in
    let r = reqs.(slot) in
    let t0 = now () in
    let answer =
      span "serve" ("serve." ^ ops.(r.op)) (fun () -> Serve.Client.request_raw conn r.text)
    in
    let dt = now () -. t0 in
    log.sent <- log.sent + 1;
    match answer with
    | Error _ -> log.dropped <- log.dropped + 1
    | Ok a ->
      if log.record && log.n < max_samples then begin
        Float.Array.set log.lat log.n dt;
        Bytes.set log.lat_op log.n (Char.chr r.op);
        log.n <- log.n + 1
      end;
      let d = Digest.string a in
      (match log.digests.(slot) with
      | None -> log.digests.(slot) <- Some d
      | Some d' -> if d <> d' then log.mismatched <- log.mismatched + 1)
  done

(* Passes until [window] seconds are spent: both clients start each pass
   together and the pass ends when both have their answers. *)
let window ~conns ~pools ~logs window_s =
  let deadline = now () +. window_s in
  let walls = ref [] in
  let rec loop () =
    let t0 = now () in
    let threads =
      List.init clients (fun k ->
          Thread.create (fun () -> client_pass conns.(k) pools.(k) logs.(k)) ())
    in
    List.iter Thread.join threads;
    walls := (now () -. t0) :: !walls;
    if now () < deadline then loop ()
  in
  loop ();
  Array.of_list !walls

(* Each op's share of a pass's processor time (benchmark plus server):
   every request of that op in client 0's pool, sent alone on one
   connection, gives the op's processor time per request, weighted by
   its count in a pass.  The answers are checked like the window's.
   Returns the shares and the number of requests sent. *)
let cpu_shares server reqs log =
  let both_cpu () = cpu () +. cpu_of_pid server.pid in
  let per_request =
    Array.mapi
      (fun op _ ->
        let slots =
          List.filter (fun i -> reqs.(i).op = op) (List.init (Array.length reqs) Fun.id)
        in
        with_conn server (fun conn ->
            let c0 = both_cpu () in
            List.iter
              (fun i ->
                match Serve.Client.request_raw conn reqs.(i).text with
                | Error _ -> log.dropped <- log.dropped + 1
                | Ok a -> (
                  match log.digests.(i) with
                  | Some d when d <> Digest.string a ->
                    log.mismatched <- log.mismatched + 1
                  | _ -> ()))
              slots;
            (both_cpu () -. c0) /. float (List.length slots)))
      ops
  in
  let in_pass = Array.make (Array.length ops) 0 in
  Array.iteri (fun i r -> if i < per_pass then in_pass.(r.op) <- in_pass.(r.op) + 1) reqs;
  let weighted = Array.mapi (fun op c -> float in_pass.(op) *. c) per_request in
  let total = Array.fold_left ( +. ) 0.0 weighted in
  (Array.map (fun w -> w /. total) weighted, Array.length reqs)

(* ------------------------------------------------------------------ *)

let latency_metrics logs =
  let samples op =
    Array.concat
      (List.map
         (fun l ->
           Array.of_list
             (List.filter_map
                (fun i ->
                  if op < 0 || Char.code (Bytes.get l.lat_op i) = op then
                    Some (Float.Array.get l.lat i *. 1e6)
                  else None)
                (List.init l.n Fun.id)))
         (Array.to_list logs))
  in
  let total = samples (-1) in
  let per_op =
    List.concat
      (List.mapi
         (fun i op ->
           let xs = samples i in
           [
             ("serve." ^ op ^ "_p50_us", median xs, "us");
             ("serve." ^ op ^ "_p99_us", tail xs, "us");
             ("serve." ^ op ^ "_n", float (Array.length xs), "count");
           ])
         (Array.to_list ops))
  in
  ("query_p50_us", median total, "us") :: ("query_p99_us", tail total, "us") :: per_op

let run ~server_cpu ~cfpm ~seed ~seconds ~traced =
  let dir = work_dir "serve" in
  let models_dir = Filename.concat dir "models" in
  Sys.mkdir models_dir 0o755;
  (* set-up three times, keeping the last server; the last one is traced *)
  let setup last =
    (* from a compacted heap, so the memory high-water mark is that of
       one set-up *)
    Gc.compact ();
    if last && traced then tracing := true;
    let ((_, server) as r), client_cpu =
      cpu_time (fun () ->
          let artifacts = build_artifacts models_dir in
          let server = start_server ~cpu:server_cpu ~cfpm ~dir ~models_dir in
          with_conn server (fun c -> warm c artifacts);
          (artifacts, server))
    in
    tracing := false;
    (r, client_cpu +. cpu_of_pid server.pid)
  in
  let setups =
    Array.init 3 (fun i ->
        let ((_, s), _) as r = setup (i = 2) in
        if i < 2 then stop_server s;
        r)
  in
  let (artifacts, server), _ = setups.(2) in
  let setup_s = median (Array.map snd setups) in
  Gc.compact ();
  let pools = Array.init clients (pool ~seed ~artifacts) in
  let hits0, misses0 = cache_counts server in
  let conns =
    Array.init clients (fun _ ->
        match Serve.Client.connect server.address with
        | Ok c -> c
        | Error e -> failwith (Guard.Error.to_string e))
  in
  let logs = Array.init clients (fun _ -> new_log ()) in
  let both_cpu () = cpu () +. cpu_of_pid server.pid in
  let cpu0 = both_cpu () in
  let walls, traced_walls =
    if not traced then (window ~conns ~pools ~logs seconds, [||])
    else begin
      (* latencies come from the untraced window; every answer of both
         windows is checked *)
      let w = window ~conns ~pools ~logs (seconds /. 2.0) in
      Array.iter (fun l -> l.record <- false) logs;
      tracing := true;
      let tw = window ~conns ~pools ~logs (seconds /. 2.0) in
      tracing := false;
      (w, tw)
    end
  in
  (* client and server processor time per pass, over the whole window *)
  let pass_cpu = (both_cpu () -. cpu0) /. float (Array.length walls) in
  Array.iter Serve.Client.close conns;
  let hits1, misses1 = cache_counts server in
  if misses1 <> misses0 then
    fail_check "serve: %d cache misses after warm-up" (misses1 - misses0);
  let shares, probed =
    if traced then cpu_shares server pools.(0) logs.(0) else ([||], 0)
  in
  server_rss_kb := vm_hwm_kb (Some server.pid);
  stop_server server;
  (* the oracle: the same request bytes through the in-process handler *)
  let handler = Serve.Handler.create ~jobs:1 (Serve.Cache.create ~root:models_dir ()) in
  let cache = Serve.Handler.cache handler in
  let load_times =
    List.map
      (fun (file, _) ->
        snd
          (time (fun () ->
               span "store" "store.load" (fun () -> ignore (Serve.Cache.find_or_load cache file)))))
      artifacts
  in
  let handler_us = Array.make (Array.length ops) [] in
  let expectation_us = ref [] in
  let failed = ref 0 in
  if traced then tracing := true;
  Array.iteri
    (fun k l ->
      failed := !failed + l.dropped + l.mismatched;
      if l.mismatched > 0 then
        fail_check "serve: client %d saw %d differing answers to one request" k l.mismatched;
      Array.iteri
        (fun i d ->
          let r = pools.(k).(i) in
          let expected, dt =
            time (fun () ->
                span "handler" ("handler." ^ ops.(r.op)) (fun () ->
                    Serve.Handler.handle_string handler r.text))
          in
          handler_us.(r.op) <- (dt *. 1e6) :: handler_us.(r.op);
          if r.op = 2 then begin
            match Serve.Cache.find_or_load cache r.file with
            | Ok e ->
              let _, dt =
                time (fun () ->
                    span "analysis" "analysis.expectation" (fun () ->
                        Powermodel.Analysis.expected_capacitance e.Serve.Cache.loaded.Store.model
                          ~sp:r.sp ~st:r.st))
              in
              expectation_us := (dt *. 1e6) :: !expectation_us
            | Error _ -> ()
          end;
          match d with
          | None -> ()  (* slot never sent *)
          | Some d when d <> Digest.string expected ->
            fail_check "serve: socket answer to %s differs from the in-process one" r.text
          | Some _ -> (
            match Json.of_string expected with
            | Ok j when Json.member "ok" j = Some (Json.Bool true) -> ()
            | _ ->
              incr failed;
              fail_check "serve: error answer %s" expected))
        l.digests)
    logs;
  tracing := false;
  let attempted = Array.fold_left (fun a l -> a + l.sent) 0 logs + probed in
  let outcome metrics =
    { correct = !check_failures = []; attempted; failed = !failed; metrics }
  in
  if not traced then
    outcome [ ("setup_s", setup_s, "s"); ("pass_cpu_s", pass_cpu, "s") ]
  else begin
    let latency = latency_metrics logs in
    let untraced_qps = float (clients * per_pass) /. median walls in
    let traced_qps = float (clients * per_pass) /. median traced_walls in
    let handler_med i = median (Array.of_list handler_us.(i)) in
    let eval_p50 =
      List.assoc "serve.eval_p50_us" (List.map (fun (a, b, _) -> (a, b)) latency)
    in
    outcome
      (latency
      @ [
          ("queries_per_s", untraced_qps, "1/s");
          ("serve.transport_us", eval_p50 -. handler_med 0, "us");
          ("analysis.expectation_us", median (Array.of_list !expectation_us), "us");
          ("serve.cache_hits", float (hits1 - hits0), "count");
          ("serve.cache_misses", float (misses1 - misses0), "count");
          ("store.load_s", List.fold_left ( +. ) 0.0 load_times, "s");
          ("model.build_avg_s", span_total "model.build_avg", "s");
          ("netlist.parse_s", span_total "netlist.parse", "s");
          ("store.save_s", span_total "store.save", "s");
          ("trace.overhead_frac", (untraced_qps /. traced_qps) -. 1.0, "ratio");
        ]
      @ List.mapi
          (fun i op -> ("handler." ^ op ^ "_us", handler_med i, "us"))
          (Array.to_list ops)
      @ List.mapi
          (fun i op -> ("serve." ^ op ^ "_cpu_share", shares.(i), "ratio"))
          (Array.to_list ops))
  end
