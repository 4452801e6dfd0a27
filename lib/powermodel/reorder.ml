(* Variable-order policies for model construction.

   The model's diagrams live over the interleaved transition variables
   (x_j_initial = 2j, x_j_final = 2j + 1); everything downstream —
   Markov's pair contexts, Add.shift's offset-1 renaming, the
   sensitivity queries — leans on a pair (2j, 2j+1) being adjacent.  So
   all policies here permute *input pairs*, never split one: a pair
   order p (level k holds input p.(k)) expands to the variable order
   [2p(0), 2p(0)+1, 2p(1), 2p(1)+1, ...].

   Info_static is the characterization-free ordering heuristic: a
   cheap structural information measure per input computed from the
   netlist alone (after the information-theoretic BDD-ordering line of
   work; see PAPERS.md).  An input scores high when it feeds many
   high-load, shallow, narrow-support gates — exactly the inputs whose
   early testing splits the capacitance function most unevenly — and
   high scorers go near the root. *)

type policy = Declared | Info_static | Sift | Info_then_sift

let all = [ Declared; Info_static; Sift; Info_then_sift ]

let to_string = function
  | Declared -> "declared"
  | Info_static -> "info"
  | Sift -> "sift"
  | Info_then_sift -> "info+sift"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "declared" | "natural" -> Some Declared
  | "info" | "info_static" | "info-static" -> Some Info_static
  | "sift" -> Some Sift
  | "info+sift" | "info_then_sift" | "info-sift" -> Some Info_then_sift
  | _ -> None

(* The knob: a process-wide override, set by cfpm's --order flag; the
   default is the declared circuit order — reordering is opt-in. *)
let override = Atomic.make None

let set_policy p = Atomic.set override (Some p)

let ambient () = Option.value (Atomic.get override) ~default:Declared

(* Structural information measure, one topological pass.

   support.(net) is the primary-input support of the net's function
   (structural: ignores logical masking, which we cannot see without
   building the very diagrams we are trying to order); depth.(net) is
   the gate depth.  Input j earns, from every gate output it supports,

     loads(out) / (1 + depth(out)) / |support(out)|

   — load because high-capacitance nets dominate the function's range,
   inverse depth because shallow nets are the least diluted by
   reconvergence, and inverse support width because an input sharing a
   gate with few others explains more of that gate alone. *)
let info_pair_order circuit =
  let open Netlist.Circuit in
  let n = input_count circuit in
  let words = (n + 62) / 63 in
  let support = Array.make_matrix circuit.net_count words 0 in
  let depth = Array.make circuit.net_count 0 in
  for j = 0 to n - 1 do
    support.(j).(j / 63) <- 1 lsl (j mod 63)
  done;
  Array.iter
    (fun g ->
      let s = support.(g.out) in
      let d = ref 0 in
      Array.iter
        (fun i ->
          let si = support.(i) in
          for w = 0 to words - 1 do
            s.(w) <- s.(w) lor si.(w)
          done;
          if depth.(i) > !d then d := depth.(i))
        g.ins;
      depth.(g.out) <- !d + 1)
    circuit.gates;
  let loads = loads circuit in
  let score = Array.make n 0.0 in
  let rec bits w acc = if w = 0 then acc else bits (w land (w - 1)) (acc + 1) in
  let popcount s = Array.fold_left (fun acc w -> bits w acc) 0 s in
  Array.iter
    (fun g ->
      let s = support.(g.out) in
      let width = popcount s in
      if width > 0 then begin
        let gain =
          loads.(g.out)
          /. (1.0 +. Float.of_int depth.(g.out))
          /. Float.of_int width
        in
        for j = 0 to n - 1 do
          if s.(j / 63) land (1 lsl (j mod 63)) <> 0 then
            score.(j) <- score.(j) +. gain
        done
      end)
    circuit.gates;
  let ord = Array.init n Fun.id in
  (* descending score, ties by ascending declared index: deterministic *)
  Array.sort
    (fun a b ->
      match compare score.(b) score.(a) with
      | 0 -> compare a b
      | c -> c)
    ord;
  ord

let order ~inputs pair_order =
  if Array.length pair_order <> inputs then
    invalid_arg "Reorder.order: pair order length must equal inputs";
  Array.init (2 * inputs) (fun l -> (2 * pair_order.(l / 2)) + (l land 1))
