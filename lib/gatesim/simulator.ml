type t = {
  circuit : Netlist.Circuit.t;
  loads : float array; (* per net, fF *)
}

let default_vdd = 3.3

let create ?output_load ?loads circuit =
  (* chaos-testing seam: inert unless a fault spec is armed and we are
     inside a supervised task (see Guard.Fault) *)
  Guard.Fault.inject "simulate";
  let loads =
    match loads with
    | Some loads ->
      if Array.length loads <> circuit.Netlist.Circuit.net_count then
        invalid_arg "Simulator.create: loads length must equal net count";
      Array.copy loads
    | None -> (
      match output_load with
      | None -> Netlist.Circuit.loads circuit
      | Some output_load -> Netlist.Circuit.loads ~output_load circuit)
  in
  { circuit; loads }

let circuit t = t.circuit
let loads t = t.loads

let eval t env = Netlist.Circuit.eval_all Netlist.Cell.bool_logic t.circuit env

let eval_outputs t env =
  Netlist.Circuit.eval_outputs Netlist.Cell.bool_logic t.circuit env

(* Zero-delay switched capacitance of the transition [before -> after]:
   the loads of gate-output nets with a rising transition (Eq. 2-3 of the
   paper; falling transitions discharge to ground and draw no supply
   current; primary-input nets are driven externally and not counted). *)
let switched_capacitance_of_values t before after =
  let n = Netlist.Circuit.input_count t.circuit in
  let total = ref 0.0 in
  for net = n to Array.length before - 1 do
    if (not before.(net)) && after.(net) then total := !total +. t.loads.(net)
  done;
  !total

type run = {
  patterns : int;          (** number of transitions simulated *)
  average : float;         (** mean switched capacitance per transition, fF *)
  maximum : float;         (** largest switched capacitance observed, fF *)
  total : float;           (** sum over all transitions, fF *)
  per_pattern : float array;
}

(* Work counters, one update per call: transitions accounted and netlist
   word evaluations made for them. *)
let transitions_metric = Obs.Metrics.metric "gatesim.transitions"

let word_evals_metric = Obs.Metrics.metric "gatesim.word_evals"

(* Word-parallel evaluation: lane j of an [int] carries vector j. *)
let word_logic =
  {
    Netlist.Cell.ltrue = -1;
    lfalse = 0;
    lnot;
    land_ = ( land );
    lor_ = ( lor );
    lxor_ = ( lxor );
  }

(* A sequence is cut into blocks of up to [Sys.int_size] consecutive
   vectors, the next block starting on the last vector of this one, so
   each transition lies inside exactly one block.  Net by net in
   increasing order, the lanes of a block where the net rises add its
   load to their transition, so every per-pattern sum is made of the
   additions, in the order, of [switched_capacitance_of_values]. *)
let run t vectors =
  let count = Array.length vectors in
  if count < 2 then invalid_arg "Simulator.run: need at least two vectors";
  let circuit = t.circuit in
  let n = Netlist.Circuit.input_count circuit in
  let per_pattern = Array.make (count - 1) 0.0 in
  let words = Array.make n 0 in
  let evals = ref 0 in
  let first = ref 0 in
  while !first < count - 1 do
    let s = !first in
    let width = min Sys.int_size (count - s) in
    Array.fill words 0 n 0;
    for j = 0 to width - 1 do
      let v = vectors.(s + j) in
      (* [eval]'s message, for the first bad vector in sequence order *)
      if Array.length v <> n then
        invalid_arg
          (Printf.sprintf "Circuit.eval_all: expected %d inputs, got %d" n
             (Array.length v));
      let bit = 1 lsl j in
      for i = 0 to n - 1 do
        if v.(i) then words.(i) <- words.(i) lor bit
      done
    done;
    let value = Netlist.Circuit.eval_all word_logic circuit words in
    incr evals;
    (* lane j holds the transition s + j, for j < width - 1 *)
    let mask = (1 lsl (width - 1)) - 1 in
    for net = n to Array.length value - 1 do
      let x = value.(net) in
      let rising = ref (lnot x land (x lsr 1) land mask) in
      if !rising <> 0 then begin
        let load = t.loads.(net) in
        let k = ref s in
        while !rising <> 0 do
          if !rising land 1 <> 0 then
            per_pattern.(!k) <- per_pattern.(!k) +. load;
          rising := !rising lsr 1;
          incr k
        done
      end
    done;
    first := s + width - 1
  done;
  Obs.Metrics.add transitions_metric (count - 1);
  Obs.Metrics.add word_evals_metric !evals;
  let total = ref 0.0 and maximum = ref 0.0 in
  Array.iter
    (fun c ->
      total := !total +. c;
      if c > !maximum then maximum := c)
    per_pattern;
  {
    patterns = count - 1;
    average = !total /. float_of_int (count - 1);
    maximum = !maximum;
    total = !total;
    per_pattern;
  }

(* [x_i] in lane 0 and [x_f] in lane 1: one netlist evaluation. *)
let switched_capacitance t x_i x_f = (run t [| x_i; x_f |]).per_pattern.(0)

let energy ?(vdd = default_vdd) t x_i x_f =
  vdd *. vdd *. switched_capacitance t x_i x_f

let average_power ?(vdd = default_vdd) ~period run =
  (* femto-Farad * V^2 / s: returns femto-Joule / s when period is in s. *)
  vdd *. vdd *. run.average /. period

let worst_case_capacitance_exhaustive t =
  (* Exact worst case by enumerating all pairs of input vectors: O(4^n),
     usable only for small circuits (the infeasibility the paper notes). *)
  let n = Netlist.Circuit.input_count t.circuit in
  if n > 13 then
    invalid_arg
      "Simulator.worst_case_capacitance_exhaustive: too many inputs";
  let vec k = Array.init n (fun i -> (k lsr i) land 1 = 1) in
  let all_values = Array.init (1 lsl n) (fun k -> eval t (vec k)) in
  let best = ref 0.0 in
  Array.iter
    (fun before ->
      Array.iter
        (fun after ->
          let c = switched_capacitance_of_values t before after in
          if c > !best then best := c)
        all_values)
    all_values;
  !best
