type t =
  | False
  | True
  | Node of { id : int; var : int; low : t; high : t }

(* Operation tags for the shared computed table; must stay < 16 so the
   packed (op, id, id) key fits a non-negative OCaml int. *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_not = 3

(* Cache geometry: fixed-size, direct-mapped, lossy (CUDD-style).  A
   conflicting entry is overwritten; a lost entry only costs recomputation,
   never correctness. *)
let cache_bits = 16
let shift_bits = 13

type manager = {
  mutable next_id : int;
  (* Unique (hash-consing) table: open addressing with linear probing over
     parallel int arrays — the key is the (var, low, high) int triple
     itself, so probing never hashes a boxed tuple.  [u_var] = -1 marks an
     empty slot; capacity is a power of two, grown at 50% load. *)
  mutable u_var : int array;
  mutable u_low : int array;
  mutable u_high : int array;
  mutable u_node : t array;
  mutable u_count : int;
  (* Static variable order: [perm] maps a variable to its level (depth
     from the root) and is the identity beyond its length, so the empty
     array of a fresh manager means the natural order and costs one bounds
     check on the hot paths. *)
  mutable perm : int array;
  (* Computed tables. *)
  cache : t Ct.cache;      (* and/or/xor/not, packed (op, a, b) *)
  shift_cache : t Ct.cache2; (* (node id, offset) *)
  perf : Perf.t;
  (* counters pre-fetched at creation so the operation loops never hash a
     name on the hot path *)
  c_not : Perf.counter;
  c_and : Perf.counter;
  c_or : Perf.counter;
  c_xor : Perf.counter;
  c_shift : Perf.counter;
}

let initial_unique_bits = 12

let manager ?perf () =
  let perf = match perf with Some p -> p | None -> Perf.create () in
  let n = 1 lsl initial_unique_bits in
  {
    next_id = 2;
    u_var = Array.make n (-1);
    u_low = Array.make n 0;
    u_high = Array.make n 0;
    u_node = Array.make n False;
    u_count = 0;
    perm = [||];
    cache = Ct.cache ~bits:cache_bits ~dummy:False;
    shift_cache = Ct.cache2 ~bits:shift_bits ~dummy:False;
    perf;
    c_not = Perf.counter perf "not";
    c_and = Perf.counter perf "and";
    c_or = Perf.counter perf "or";
    c_xor = Perf.counter perf "xor";
    c_shift = Perf.counter perf "shift";
  }

let clear_caches m =
  Ct.clear m.cache;
  Ct.clear2 m.shift_cache;
  Perf.reset m.perf

let node_count m = m.next_id - 2

let perf m = m.perf

let unique_size m = m.u_count

let node_id = function False -> 0 | True -> 1 | Node n -> n.id

let level m v = if v < Array.length m.perm then m.perm.(v) else v

let set_order m ord =
  if m.u_count > 0 then
    invalid_arg "Bdd.set_order: manager already contains nodes";
  let n = Array.length ord in
  let perm = Array.make n (-1) in
  Array.iteri
    (fun lvl v ->
      if v < 0 || v >= n || perm.(v) >= 0 then
        invalid_arg "Bdd.set_order: not a permutation of 0..n-1";
      perm.(v) <- lvl)
    ord;
  m.perm <- perm

let zero = False
let one = True

let of_bool b = if b then True else False

let grow_unique m =
  let old_var = m.u_var
  and old_low = m.u_low
  and old_high = m.u_high
  and old_node = m.u_node in
  let n = 2 * Array.length old_var in
  let mask = n - 1 in
  let u_var = Array.make n (-1)
  and u_low = Array.make n 0
  and u_high = Array.make n 0
  and u_node = Array.make n False in
  for i = 0 to Array.length old_var - 1 do
    let v = old_var.(i) in
    if v >= 0 then begin
      (* keys are unique, so reinsertion only needs an empty slot *)
      let j = ref (Ct.uhash v old_low.(i) old_high.(i) land mask) in
      while u_var.(!j) >= 0 do
        j := (!j + 1) land mask
      done;
      u_var.(!j) <- v;
      u_low.(!j) <- old_low.(i);
      u_high.(!j) <- old_high.(i);
      u_node.(!j) <- old_node.(i)
    end
  done;
  m.u_var <- u_var;
  m.u_low <- u_low;
  m.u_high <- u_high;
  m.u_node <- u_node

(* Hash-consing constructor: enforces reduction (low != high) and sharing. *)
let mk m v low high =
  if low == high then low
  else begin
    let il = node_id low and ih = node_id high in
    let mask = Array.length m.u_var - 1 in
    let rec probe i =
      let uv = m.u_var.(i) in
      if uv < 0 then begin
        Ct.check_id m.next_id;
        let n = Node { id = m.next_id; var = v; low; high } in
        m.next_id <- m.next_id + 1;
        m.u_var.(i) <- v;
        m.u_low.(i) <- il;
        m.u_high.(i) <- ih;
        m.u_node.(i) <- n;
        m.u_count <- m.u_count + 1;
        Perf.note_peak m.perf (m.next_id - 2);
        if 2 * m.u_count >= Array.length m.u_var then grow_unique m;
        n
      end
      else if uv = v && m.u_low.(i) = il && m.u_high.(i) = ih then m.u_node.(i)
      else probe ((i + 1) land mask)
    in
    probe (Ct.uhash v il ih land mask)
  end

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative variable";
  Ct.check_var i;
  mk m i False True

let top_var m a b =
  match a, b with
  | Node na, Node nb ->
    if level m na.var <= level m nb.var then na.var else nb.var
  | Node na, (False | True) -> na.var
  | (False | True), Node nb -> nb.var
  | (False | True), (False | True) -> invalid_arg "Bdd.top_var: two terminals"

let cofactors f v =
  match f with
  | Node n when n.var = v -> (n.low, n.high)
  | False | True | Node _ -> (f, f)

let bnot m f =
  let cache = m.cache in
  let rec go f =
    match f with
    | False -> True
    | True -> False
    | Node n ->
      let key = Ct.pack op_not n.id 0 in
      let i = Ct.slot cache key in
      if cache.Ct.keys.(i) = key then begin
        Perf.hit m.c_not;
        cache.Ct.vals.(i)
      end
      else begin
        Perf.miss m.c_not;
        let r = mk m n.var (go n.low) (go n.high) in
        cache.Ct.keys.(i) <- key;
        cache.Ct.vals.(i) <- r;
        r
      end
  in
  go f

(* Symmetric binary operations share this skeleton; [terminal] decides the
   base cases, the shared computed table memoizes on the (commutatively
   normalized) packed key and [ctr] counts its hits/misses. *)
let apply_comm m op ctr terminal a b =
  let cache = m.cache in
  let rec go a b =
    match terminal a b with
    | Some r -> r
    | None ->
      let ia = node_id a and ib = node_id b in
      let key = if ia <= ib then Ct.pack op ia ib else Ct.pack op ib ia in
      let i = Ct.slot cache key in
      if cache.Ct.keys.(i) = key then begin
        Perf.hit ctr;
        cache.Ct.vals.(i)
      end
      else begin
        Perf.miss ctr;
        let v = top_var m a b in
        let a0, a1 = cofactors a v and b0, b1 = cofactors b v in
        let r = mk m v (go a0 b0) (go a1 b1) in
        cache.Ct.keys.(i) <- key;
        cache.Ct.vals.(i) <- r;
        r
      end
  in
  go a b

let and_terminal a b =
  match a, b with
  | False, _ | _, False -> Some False
  | True, x | x, True -> Some x
  | Node na, Node nb -> if na.id = nb.id then Some a else None

let or_terminal a b =
  match a, b with
  | True, _ | _, True -> Some True
  | False, x | x, False -> Some x
  | Node na, Node nb -> if na.id = nb.id then Some a else None

let band m a b = apply_comm m op_and m.c_and and_terminal a b
let bor m a b = apply_comm m op_or m.c_or or_terminal a b

let bxor m a b =
  let terminal a b =
    match a, b with
    | False, x | x, False -> Some x
    | True, x | x, True ->
      (* xor with true is negation; recurse through bnot (cached). *)
      Some (bnot m x)
    | Node na, Node nb -> if na.id = nb.id then Some False else None
  in
  apply_comm m op_xor m.c_xor terminal a b

let band_list m fs = List.fold_left (band m) one fs

let shift m k f =
  if k = 0 then f
  else begin
    let cache = m.shift_cache in
    let rec go f =
      match f with
      | False | True -> f
      | Node n ->
        let k1 = n.id and k2 = k in
        let i = Ct.slot2 cache k1 k2 in
        if cache.Ct.k1.(i) = k1 && cache.Ct.k2.(i) = k2 then begin
          Perf.hit m.c_shift;
          cache.Ct.vals2.(i)
        end
        else begin
          Perf.miss m.c_shift;
          let v = n.var + k in
          if v < 0 then invalid_arg "Bdd.shift: negative shifted variable";
          Ct.check_var v;
          let r = mk m v (go n.low) (go n.high) in
          cache.Ct.k1.(i) <- k1;
          cache.Ct.k2.(i) <- k2;
          cache.Ct.vals2.(i) <- r;
          r
        end
    in
    go f
  end

let equal a b = a == b
let is_true f = f == True
let is_false f = f == False

let rec eval f env =
  match f with
  | False -> false
  | True -> true
  | Node n ->
    if n.var >= Array.length env then
      invalid_arg "Bdd.eval: environment too short";
    if env.(n.var) then eval n.high env else eval n.low env

let size f =
  let seen = Hashtbl.create 64 in
  let rec go f =
    let id = node_id f in
    if Hashtbl.mem seen id then ()
    else begin
      Hashtbl.add seen id ();
      match f with
      | False | True -> ()
      | Node n ->
        go n.low;
        go n.high
    end
  in
  go f;
  Hashtbl.length seen

let sat_fraction f =
  let memo = Hashtbl.create 64 in
  let rec go f =
    match f with
    | False -> 0.0
    | True -> 1.0
    | Node n -> (
      match Hashtbl.find_opt memo n.id with
      | Some r -> r
      | None ->
        let r = 0.5 *. (go n.low +. go n.high) in
        Hashtbl.add memo n.id r;
        r)
  in
  go f
