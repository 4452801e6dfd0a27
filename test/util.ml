(* Shared helpers for the test suites. *)

let close ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_close ?(eps = 1e-9) msg expected actual =
  if not (close ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Enumerate all assignments of [n] booleans. *)
let assignments n =
  List.init (1 lsl n) (fun k -> Array.init n (fun i -> (k lsr i) land 1 = 1))

(* Simple first-order Boolean expressions for randomized BDD testing. *)
type expr =
  | Var of int
  | Const of bool
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr
  | Ite of expr * expr * expr

let rec eval_expr env = function
  | Var i -> env.(i)
  | Const b -> b
  | Not e -> not (eval_expr env e)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Or (a, b) -> eval_expr env a || eval_expr env b
  | Xor (a, b) -> eval_expr env a <> eval_expr env b
  | Ite (c, t, e) -> if eval_expr env c then eval_expr env t else eval_expr env e

let rec bdd_of_expr mgr = function
  | Var i -> Dd.Bdd.var mgr i
  | Const b -> Dd.Bdd.of_bool b
  | Not e -> Dd.Bdd.bnot mgr (bdd_of_expr mgr e)
  | And (a, b) -> Dd.Bdd.band mgr (bdd_of_expr mgr a) (bdd_of_expr mgr b)
  | Or (a, b) -> Dd.Bdd.bor mgr (bdd_of_expr mgr a) (bdd_of_expr mgr b)
  | Xor (a, b) -> Dd.Bdd.bxor mgr (bdd_of_expr mgr a) (bdd_of_expr mgr b)
  | Ite (c, t, e) ->
    (* (c and t) or (not c and e): the same function as ite(c, t, e), so
       canonicity yields the same node *)
    let c = bdd_of_expr mgr c in
    Dd.Bdd.bor mgr
      (Dd.Bdd.band mgr c (bdd_of_expr mgr t))
      (Dd.Bdd.band mgr (Dd.Bdd.bnot mgr c) (bdd_of_expr mgr e))

let expr_gen ~vars =
  let open QCheck.Gen in
  sized_size (int_bound 6) @@ fix (fun self fuel ->
      if fuel = 0 then
        oneof [ map (fun i -> Var i) (int_bound (vars - 1));
                map (fun b -> Const b) bool ]
      else
        frequency
          [
            (2, map (fun i -> Var i) (int_bound (vars - 1)));
            (1, map (fun e -> Not e) (self (fuel - 1)));
            (2, map2 (fun a b -> And (a, b)) (self (fuel / 2)) (self (fuel / 2)));
            (2, map2 (fun a b -> Or (a, b)) (self (fuel / 2)) (self (fuel / 2)));
            (1, map2 (fun a b -> Xor (a, b)) (self (fuel / 2)) (self (fuel / 2)));
            (1,
             map3 (fun a b c -> Ite (a, b, c)) (self (fuel / 3)) (self (fuel / 3))
               (self (fuel / 3)));
          ])

let expr_arbitrary ~vars =
  QCheck.make
    ~print:(fun e ->
      let rec go = function
        | Var i -> Printf.sprintf "x%d" i
        | Const b -> string_of_bool b
        | Not e -> Printf.sprintf "!(%s)" (go e)
        | And (a, b) -> Printf.sprintf "(%s & %s)" (go a) (go b)
        | Or (a, b) -> Printf.sprintf "(%s | %s)" (go a) (go b)
        | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (go a) (go b)
        | Ite (a, b, c) -> Printf.sprintf "(%s ? %s : %s)" (go a) (go b) (go c)
      in
      go e)
    (expr_gen ~vars)

(* A deterministic random circuit for cross-checking model vs simulator. *)
let small_random_circuit seed =
  Circuits.Random_logic.generate
    {
      Circuits.Random_logic.name = Printf.sprintf "rand%d" seed;
      inputs = 6;
      gates = 25;
      seed;
      window = 20;
      support_cap = 6;
      max_outputs = 4;
    }

let qtest ?(count = 100) name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary prop)
