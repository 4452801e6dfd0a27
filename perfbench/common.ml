(* Shared measurement plumbing: clock, order statistics, memory, the
   benchmark's own span recorder, and the result record each workload
   fills in. *)

let now = Guard.Budget.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Processor time of this process in seconds: every thread, including
   threads that have ended.  Unlike wall time it leaves out the time the
   machine gives to other work, the largest run-to-run noise on a shared
   host, so the end-to-end timings are processor times. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_time f =
  let c0 = cpu () in
  let r = f () in
  (r, cpu () -. c0)

(* Processor time of another live process: the run times of its threads,
   which /proc/<pid>/task/*/schedstat gives in nanoseconds.  A thread that
   ends between the listing and the read is skipped; a process whose
   threads cannot be read at all (no such process, or a kernel without
   schedstat) fails the run rather than reading as 0. *)
let cpu_of_pid pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  let tids =
    try Sys.readdir dir
    with Sys_error e -> failwith ("processor time of process: " ^ e)
  in
  let read = ref 0 in
  let total =
    Array.fold_left
      (fun acc tid ->
        let path = Filename.concat (Filename.concat dir tid) "schedstat" in
        match In_channel.with_open_bin path In_channel.input_line with
        | Some line -> (
          match Scanf.sscanf line "%f" Fun.id with
          | ns ->
            incr read;
            acc +. (ns /. 1e9)
          | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> acc)
        | None | (exception Sys_error _) -> acc)
      0.0 tids
  in
  if !read = 0 then failwith (Printf.sprintf "no readable %s/*/schedstat" dir);
  total

(* ------------------------------------------------------------------ *)
(* Order statistics.                                                  *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of an already sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float n)) - 1)))

let median xs = quantile_sorted (sorted xs) 0.5

(* The tail figure: p99 when at least ten samples lie beyond it,
   otherwise the highest rank that still leaves ten samples beyond it
   (the median when fewer than twenty samples exist). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n >= 1000 then quantile_sorted a 0.99
  else if n >= 20 then a.(n - 11)
  else quantile_sorted a 0.5

(* ------------------------------------------------------------------ *)
(* Memory: the kernel's high-water mark of a process's resident set.  *)

(* The high-water mark of the server process a workload ran, read just
   before it was stopped.  When set, it is the workload's peak_rss_mb:
   the server is the system under test, the benchmark process only its
   client. *)
let server_rss_kb = ref 0

let vm_hwm_kb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

(* ------------------------------------------------------------------ *)
(* Spans.  Recorded by the benchmark around its calls into each layer;
   kept in memory and exported as Chrome trace-event JSON at the end.
   Off by default: [span] is then a direct call. *)

type span = {
  id : int;
  parent : int;  (* 0 at top level *)
  layer : string;
  name : string;
  tid : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let span_lock = Mutex.create ()
let open_spans : (int, int list) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock span_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock span_lock) f

let span layer name f =
  if not !tracing then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans tid) in
          let parent = match stack with p :: _ -> p | [] -> 0 in
          Hashtbl.replace open_spans tid (!next_id :: stack);
          (!next_id, parent))
    in
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        locked (fun () ->
            (match Hashtbl.find_opt open_spans tid with
            | Some (_ :: rest) -> Hashtbl.replace open_spans tid rest
            | _ -> ());
            spans := { id; parent; layer; name; tid; t0; t1 } :: !spans))
  end

let recorded () = locked (fun () -> List.rev !spans)

(* Total span time of one name. *)
let span_total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 (recorded ())

(* Per-layer self time: each span's duration minus the time its direct
   children cover, summed by layer.  Returned sorted by self time. *)
let self_times () =
  let all = recorded () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    all;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        (s.t1 -. s.t0) -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      let calls, total, selfs =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_layer s.layer)
      in
      Hashtbl.replace by_layer s.layer (calls + 1, total +. (s.t1 -. s.t0), selfs +. self))
    all;
  Hashtbl.fold (fun layer (c, t, sf) acc -> (layer, c, t, sf) :: acc) by_layer []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let print_self_times oc =
  Printf.fprintf oc "%-14s %8s %12s %12s\n" "layer" "spans" "total_s" "self_s";
  List.iter
    (fun (layer, calls, total, self) ->
      Printf.fprintf oc "%-14s %8d %12.6f %12.6f\n" layer calls total self)
    (self_times ())

let chrome_trace () =
  let all = recorded () in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity all in
  let us t = Json.Float (Float.round ((t -. origin) *. 1e7) /. 10.0) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("cat", Json.String s.layer);
                   ("ph", Json.String "X");
                   ("ts", us s.t0);
                   ("dur", Json.Float (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.0));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int s.tid);
                   ( "args",
                     Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ] );
                 ])
             all) );
      ("displayTimeUnit", Json.String "ms");
    ]

(* ------------------------------------------------------------------ *)
(* Obs.Metrics deltas: exact, host-independent work counts.           *)

(* A registered metric's current value (0 if never registered).  Read
   after an [Obs.Metrics.reset], it is the count since the reset. *)
let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.snapshot_all ()))

(* ------------------------------------------------------------------ *)
(* What a workload reports.                                           *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

let check_failures : string list ref = ref []

let fail_check fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: CHECK FAILED: " ^ msg);
      check_failures := msg :: !check_failures)
    fmt

(* A scratch directory inside the checkout, removed at exit. *)
let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let work_dir workload =
  let name = Printf.sprintf "%s-%d" workload (Unix.getpid ()) in
  let dir = Filename.concat ".bench_run" name in
  (try Sys.mkdir ".bench_run" 0o755 with Sys_error _ -> ());
  remove_tree dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () -> remove_tree dir);
  dir
