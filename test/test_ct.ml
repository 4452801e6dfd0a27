(* Kernel cost: the slot hash spreads every key family the managers use,
   apply work stays within the pair bound, and the terminal identities of
   Add.apply2 return the operand itself.  A lossy cache can only cost work,
   never change a value, so these are the tests that catch a bad hash. *)

let bits = 16
let keys = 10_000

(* A uniform hash puts 10,000 keys into about 65536 * (1 - e^(-10000/65536))
   = 9,270 distinct slots of 65,536; the floor leaves room for chance but
   not for a mix that drops key bits (a multiply-and-fold filled 8). *)
let min_slots = 9_000

let occupied slot_of =
  let seen = Array.make (1 lsl bits) false in
  for i = 0 to keys - 1 do
    seen.(slot_of i) <- true
  done;
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen

let check_spread name slot_of =
  let n = occupied slot_of in
  if n < min_slots then
    Alcotest.failf "%s: %d keys occupy %d of %d slots (want >= %d)" name keys n
      (1 lsl bits) min_slots

let op_tags = List.init 5 Fun.id (* Bdd and Add both tag ops 0..4 *)

let fixed = 1 (* a small id, like the leaf every (node, Leaf 0) add reaches *)

let packed_keys_spread () =
  let c = Dd.Ct.cache ~bits ~dummy:0 in
  List.iter
    (fun tag ->
      check_spread (Printf.sprintf "(tag %d, a, fixed b)" tag) (fun a ->
          Dd.Ct.slot c (Dd.Ct.pack tag a fixed));
      check_spread (Printf.sprintf "(tag %d, fixed a, b)" tag) (fun b ->
          Dd.Ct.slot c (Dd.Ct.pack tag fixed b)))
    op_tags

let two_word_keys_spread () =
  let c = Dd.Ct.cache2 ~bits ~dummy:0 in
  let slot f g h = Dd.Ct.slot2 c (Dd.Ct.pack2 f g) h in
  check_spread "ite (f, fixed g, fixed h)" (fun f -> slot f fixed 0);
  check_spread "ite (fixed f, g, fixed h)" (fun g -> slot fixed g 0);
  check_spread "ite (fixed f, fixed g, h)" (fun h -> slot fixed 0 h);
  (* shift keys are (node id, offset) *)
  check_spread "shift (id, fixed offset)" (fun id -> slot id 1 0)

let unique_triples_spread () =
  let mask = (1 lsl bits) - 1 in
  let slot v l h = Dd.Ct.uhash v l h land mask in
  check_spread "(fixed var, lo, fixed hi)" (fun l -> slot 3 l fixed);
  check_spread "(fixed var, fixed lo, hi)" (fun h -> slot 3 fixed h);
  check_spread "(var, lo, lo + 1)" (fun i -> slot (i mod 32) i (i + 1));
  check_spread "(var, fixed lo, fixed hi)" (fun v -> slot v 0 fixed)

(* ---- work bound ---------------------------------------------------- *)

(* Without evictions, apply2 misses once per distinct operand pair it
   reaches, so at most |a| * |b| times.  [c] leaves room for the few
   evictions a 2^16-slot table sees on operands this small. *)
let c = 2

let vars = 12

(* Operands shaped like model builds: weighted sums of node functions.  The
   parity-like terms share heavily (2^k paths through O(k) nodes), so a
   hash that thrashes unfolds them into trees and overshoots the bound by
   orders of magnitude. *)
type term = Xor_chain of int list | Expr of Util.expr

let term_gen =
  let open QCheck.Gen in
  let weight = map (fun k -> float_of_int (k + 1) /. 2.0) (int_bound 15) in
  let chain =
    map (fun vs -> Xor_chain vs) (list_size (int_range 2 vars) (int_bound (vars - 1)))
  in
  let expr = map (fun e -> Expr e) (Util.expr_gen ~vars) in
  pair weight (frequency [ (1, chain); (2, expr) ])

type operand = Sum of (float * term) list | Const of float

let operand_gen =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun ts -> Sum ts) (list_size (int_range 1 5) term_gen));
      (1, map (fun k -> Const (float_of_int k)) (int_range 2 5));
    ]

let bdd_of_term bm = function
  | Xor_chain vs ->
    List.fold_left
      (fun f v -> Dd.Bdd.bxor bm f (Dd.Bdd.var bm v))
      Dd.Bdd.zero vs
  | Expr e -> Util.bdd_of_expr bm e

let build_operand m bm = function
  | Const v -> Dd.Add.const m v
  | Sum terms ->
    List.fold_left
      (fun acc (w, t) ->
        Dd.Add.add m acc (Dd.Add.of_bdd m ~one_value:w (bdd_of_term bm t)))
      (Dd.Add.const m 0.0) terms

let ops =
  Dd.Add.
    [ (Plus, "plus"); (Minus, "minus"); (Times, "times"); (Min, "min"); (Max, "max") ]

let work_bound =
  Util.qtest ~count:100 "apply2 misses <= 2 |a| |b|"
    (QCheck.make ~print:(fun _ -> "<operands>")
       (QCheck.Gen.pair operand_gen operand_gen))
    (fun (ta, tb) ->
      let m = Dd.Add.manager () and bm = Dd.Bdd.manager () in
      let a = build_operand m bm ta and b = build_operand m bm tb in
      let bound = c * Dd.Add.size a * Dd.Add.size b in
      List.for_all
        (fun (op, name) ->
          Dd.Add.clear_caches m;
          ignore (Dd.Add.apply2 m op a b);
          let misses = Dd.Perf.misses (Dd.Add.perf m) name in
          if misses > bound then
            QCheck.Test.fail_reportf "%s: %d misses > %d * %d * %d" name
              misses c (Dd.Add.size a) (Dd.Add.size b);
          true)
        ops)

(* The Table 1 row most sensitive to the slot hash: parity's upper-bound
   model at MAX = 500 costs about 13 kernel misses per final node, and
   about 240,000 under a mix that drops the first id's bits. *)
let parity_ub_misses_per_node () =
  let e = Option.get (Circuits.Suite.find "parity") in
  let misses () = Obs.Metrics.value (Obs.Metrics.metric "dd.cache_misses") in
  let m0 = misses () in
  let ub =
    Powermodel.Bounds.build ~max_size:e.Circuits.Suite.max_ub (e.build ())
  in
  let per_node = (misses () - m0) / Powermodel.Model.size ub in
  if per_node > 1_000 then
    Alcotest.failf "parity ub: %d misses per final node (want <= 1000)" per_node

(* ---- terminal identities ------------------------------------------- *)

let sample m bm =
  let v = Dd.Bdd.var bm in
  let f = Dd.Bdd.bxor bm (v 0) (Dd.Bdd.band bm (v 1) (v 2)) in
  let g = Dd.Bdd.bor bm (v 1) (v 3) in
  Dd.Add.add m
    (Dd.Add.of_bdd m ~one_value:2.5 f)
    (Dd.Add.of_bdd m ~one_value:4.0 g)

let identities_return_the_operand () =
  let m = Dd.Add.manager () and bm = Dd.Bdd.manager () in
  let x = sample m bm in
  let zero = Dd.Add.const m 0.0 and one = Dd.Add.const m 1.0 in
  let before = Dd.Add.unique_size m in
  Dd.Add.clear_caches m;
  let same name r = Alcotest.(check bool) name true (Dd.Add.equal r x) in
  same "x + 0" (Dd.Add.add m x zero);
  same "0 + x" (Dd.Add.add m zero x);
  same "x * 1" (Dd.Add.mul m x one);
  same "1 * x" (Dd.Add.mul m one x);
  same "min x x" (Dd.Add.apply2 m Dd.Add.Min x x);
  same "max x x" (Dd.Add.apply2 m Dd.Add.Max x x);
  Alcotest.(check int) "no table work" 0
    (Dd.Perf.total_hits (Dd.Add.perf m) + Dd.Perf.total_misses (Dd.Add.perf m));
  Alcotest.(check int) "no node made" before (Dd.Add.unique_size m)

let bits_of t = List.map Int64.bits_of_float (Dd.Add.terminal_values t)

(* -0.0 + 0.0 is +0.0, so x + (+0.0) must rebuild an operand holding -0.0,
   while x + (-0.0) is exact for every x. *)
let plus_zero_keeps_signed_zeros () =
  let m = Dd.Add.manager () and bm = Dd.Bdd.manager () in
  let x =
    Dd.Add.of_bdd m ~one_value:3.0 ~zero_value:(-0.0) (Dd.Bdd.var bm 0)
  in
  let pos = Dd.Add.add m x (Dd.Add.const m 0.0) in
  Alcotest.(check (list int64)) "x + 0.0 turns -0.0 into +0.0"
    (List.map Int64.bits_of_float [ 0.0; 3.0 ])
    (bits_of pos);
  Alcotest.(check bool) "x + -0.0 is x" true
    (Dd.Add.equal x (Dd.Add.add m x (Dd.Add.const m (-0.0))))

(* x * 0 is no identity: inf * 0 is NaN and -3 * 0 is -0.0. *)
let times_zero_is_computed () =
  let m = Dd.Add.manager () and bm = Dd.Bdd.manager () in
  let x =
    Dd.Add.of_bdd m ~one_value:infinity ~zero_value:(-3.0) (Dd.Bdd.var bm 0)
  in
  let r = Dd.Add.mul m x (Dd.Add.const m 0.0) in
  let v = Dd.Add.eval r [| true |] and w = Dd.Add.eval r [| false |] in
  Alcotest.(check bool) "inf * 0 is NaN" true (Float.is_nan v);
  Alcotest.(check bool) "-3 * 0 is -0.0" true (w = 0.0 && Float.sign_bit w)

let suite =
  [
    Alcotest.test_case "packed keys spread" `Quick packed_keys_spread;
    Alcotest.test_case "two-word keys spread" `Quick two_word_keys_spread;
    Alcotest.test_case "unique triples spread" `Quick unique_triples_spread;
    work_bound;
    Alcotest.test_case "parity ub misses per node" `Quick parity_ub_misses_per_node;
    Alcotest.test_case "identities return the operand" `Quick
      identities_return_the_operand;
    Alcotest.test_case "plus zero keeps signed zeros" `Quick
      plus_zero_keeps_signed_zeros;
    Alcotest.test_case "times zero is computed" `Quick times_zero_is_computed;
  ]
