(* The cfpm benchmark: command line, workload dispatch, result line.

     perfbench.exe --workload table1|serve|stream --seed N --seconds S
       --trace 0|1 [--cfpm PATH] [--server-cpu N]
     perfbench.exe record-references

   Run from the repository root (run.sh builds and calls it).  The last
   line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}: with --trace 0 it holds
   every end_to_end metric of BENCHMARK.json, with --trace 1 every
   per_layer one.  A per-layer metric of a layer the workload never calls
   reads 0.  The traced run also prints a per-layer self-time table and
   writes a Chrome trace to .bench_run/. *)

let declared kind =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc -> (
    match Json.member kind doc with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed " ^ kind ^ " entry"))
        l
    | _ -> failwith ("BENCHMARK.json: no " ^ kind ^ " list"))

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload table1|serve|stream --seed N --seconds S \
     --trace 0|1 [--cfpm PATH] [--server-cpu N]\n       perfbench.exe record-references";
  exit 2

let () =
  (* a stop signal still runs the at_exit clean-up (server, work dir) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "record-references" ] then begin
    Table1.record_reference ();
    Stream_w.record_reference ();
    exit 0
  end;
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let cfpm =
    Option.value ~default:(Filename.concat ".bench_build/default/bin" "cfpm.exe")
      (List.assoc_opt "cfpm" o)
  in
  let server_cpu =
    if List.mem_assoc "server-cpu" o then Some (int "server-cpu") else None
  in
  if seconds < 1 then usage ();
  let wanted = declared (if traced then "per_layer" else "end_to_end") in
  let seconds = float seconds in
  let outcome =
    match workload with
    | "table1" -> Table1.run ~seed ~seconds ~traced
    | "serve" -> Serve_w.run ~server_cpu ~cfpm ~seed ~seconds ~traced
    | "stream" -> Stream_w.run ~seed ~seconds ~traced
    | _ -> usage ()
  in
  let open Common in
  let fail_frac = float outcome.failed /. float (max 1 outcome.attempted) in
  let peak_rss_kb = if !server_rss_kb > 0 then !server_rss_kb else vm_hwm_kb None in
  let peak_rss_mb = float peak_rss_kb /. 1024.0 in
  let measured =
    ("peak_rss_mb", peak_rss_mb, "MB")
    :: ("fail_frac", fail_frac, "ratio")
    :: outcome.metrics
  in
  if traced then begin
    Printf.printf "per-layer self time (%s, traced pass)\n" workload;
    print_self_times stdout;
    (try Sys.mkdir ".bench_run" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".bench_run/trace-%s-%d.json" workload seed in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Json.to_string ~pretty:false (chrome_trace ())));
    Printf.printf "chrome trace: %s (%d spans)\n" path (List.length (recorded ()))
  end;
  let metrics =
    List.map
      (fun (name, unit_) ->
        let value =
          match List.find_opt (fun (n, _, _) -> n = name) measured with
          | Some (_, v, u) ->
            if u <> unit_ then
              failwith (Printf.sprintf "%s: unit %s, declared %s" name u unit_);
            v
          | None when traced -> 0.0
          | None -> failwith (Printf.sprintf "%s: end-to-end metric not measured" name)
        in
        if not (Float.is_finite value) then failwith (name ^ ": not a finite number");
        Printf.printf "%-40s %16.6f %s\n" name value unit_;
        (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ]))
      wanted
  in
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          [
            ("correct", Json.Bool outcome.correct);
            ("attempted", Json.Int outcome.attempted);
            ("failed", Json.Int outcome.failed);
            ("metrics", Json.Obj metrics);
          ]))
