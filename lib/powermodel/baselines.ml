(* The two characterization-based reference models of Section 4:

   - [Con]: a constant estimator, the sample mean of the per-pattern
     switched capacitance observed in a gate-level characterization run;
   - [Lin]: a linear model  C ~ c0 + sum_j c_j a_j  with a_j = x_i_j XOR
     x_f_j (the input transition bits), least-squares fitted on the same
     run.

   Both are characterized with random vectors at sp = st = 0.5, exactly as
   the paper does, which is what makes their out-of-sample error explode
   when the input statistics move. *)

type t =
  | Con of { value : float }
  | Lin of { coeffs : float array (* c0 :: per-input *) }

let name = function Con _ -> "Con" | Lin _ -> "Lin"

let characterization_sample sim vectors =
  let run = Gatesim.Simulator.run sim vectors in
  (run, vectors)

let characterize_con sim vectors =
  let run, _ = characterization_sample sim vectors in
  Con { value = run.Gatesim.Simulator.average }

let transition_features x_i x_f =
  let n = Array.length x_i in
  Array.init (n + 1) (fun k ->
      if k = 0 then 1.0
      else if x_i.(k - 1) <> x_f.(k - 1) then 1.0
      else 0.0)

let characterize_lin sim vectors =
  let run, vectors = characterization_sample sim vectors in
  let rows = ref [] in
  let count = Array.length vectors in
  for k = count - 1 downto 1 do
    rows :=
      ( transition_features vectors.(k - 1) vectors.(k),
        run.Gatesim.Simulator.per_pattern.(k - 1) )
      :: !rows
  done;
  let n = Array.length vectors.(0) in
  let coeffs = Linalg.Lstsq.fit !rows ~features:(n + 1) in
  Lin { coeffs }

let estimate t ~x_i ~x_f =
  match t with
  | Con { value } -> value
  | Lin { coeffs } ->
    (* [Lstsq.predict coeffs (transition_features x_i x_f)] without the
       feature row: the same products, summed left to right from 0.0. *)
    let n = Array.length x_i in
    if Array.length coeffs <> n + 1 then
      invalid_arg "Lstsq.predict: width mismatch";
    let s = ref (0.0 +. (coeffs.(0) *. 1.0)) in
    for k = 1 to n do
      let a = if x_i.(k - 1) <> x_f.(k - 1) then 1.0 else 0.0 in
      s := !s +. (coeffs.(k) *. a)
    done;
    !s

type run = {
  patterns : int;
  average : float;
  maximum : float;
}

let run t vectors =
  let count = Array.length vectors in
  if count < 2 then invalid_arg "Baselines.run: need at least two vectors";
  let total = ref 0.0 and maximum = ref neg_infinity in
  for k = 1 to count - 1 do
    let c = estimate t ~x_i:vectors.(k - 1) ~x_f:vectors.(k) in
    total := !total +. c;
    if c > !maximum then maximum := c
  done;
  {
    patterns = count - 1;
    average = !total /. float_of_int (count - 1);
    maximum = !maximum;
  }
