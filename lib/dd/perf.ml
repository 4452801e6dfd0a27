type counter = { mutable hits : int; mutable misses : int }

type t = {
  counters : (string, counter) Hashtbl.t;
  mutable peak_nodes : int;
  mutable collapse_passes : int;
}

let create () =
  { counters = Hashtbl.create 16; peak_nodes = 0; collapse_passes = 0 }

let reset t =
  Hashtbl.iter
    (fun _ c ->
      c.hits <- 0;
      c.misses <- 0)
    t.counters;
  t.peak_nodes <- 0;
  t.collapse_passes <- 0

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { hits = 0; misses = 0 } in
    Hashtbl.add t.counters name c;
    c

let hit c = c.hits <- c.hits + 1
let miss c = c.misses <- c.misses + 1

let note_peak t nodes = if nodes > t.peak_nodes then t.peak_nodes <- nodes
let note_collapse t = t.collapse_passes <- t.collapse_passes + 1

let peak_nodes t = t.peak_nodes
let collapse_passes t = t.collapse_passes

let hits t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.hits | None -> 0

let misses t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.misses | None -> 0

let rate ~hits ~misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let total_hits t =
  Hashtbl.fold (fun _ c acc -> acc + c.hits) t.counters 0

let total_misses t =
  Hashtbl.fold (fun _ c acc -> acc + c.misses) t.counters 0

let total_hit_rate t = rate ~hits:(total_hits t) ~misses:(total_misses t)

let active t =
  Hashtbl.fold
    (fun name c acc -> if c.hits + c.misses > 0 then (name, c) :: acc else acc)
    t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counter_names t = List.map fst (active t)

let to_json t =
  Json.Obj
    [
      ("peak_nodes", Json.Int t.peak_nodes);
      ("collapse_passes", Json.Int t.collapse_passes);
      ( "counters",
        Json.Obj
          (List.map
             (fun (name, c) ->
               ( name,
                 Json.Obj
                   [
                     ("hits", Json.Int c.hits);
                     ("misses", Json.Int c.misses);
                     ( "hit_rate",
                       Json.Float (rate ~hits:c.hits ~misses:c.misses) );
                   ] ))
             (active t)) );
    ]

let of_json json =
  let int_member name j =
    match Json.member name j with
    | Some v -> (
      match Json.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "Perf.of_json: %S is not an int" name))
    | None -> Error (Printf.sprintf "Perf.of_json: missing %S" name)
  in
  let ( let* ) r f = Result.bind r f in
  let* peak = int_member "peak_nodes" json in
  let* passes = int_member "collapse_passes" json in
  let* members =
    match Json.member "counters" json with
    | Some (Json.Obj members) -> Ok members
    | Some _ -> Error "Perf.of_json: \"counters\" is not an object"
    | None -> Error "Perf.of_json: missing \"counters\""
  in
  let t = create () in
  t.peak_nodes <- peak;
  t.collapse_passes <- passes;
  let rec fill = function
    | [] -> Ok t
    | (name, entry) :: rest ->
      let* hits = int_member "hits" entry in
      let* misses = int_member "misses" entry in
      let c = counter t name in
      c.hits <- hits;
      c.misses <- misses;
      fill rest
  in
  fill members
