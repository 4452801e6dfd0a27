type t =
  | False
  | True
  | Node of { id : int; mutable var : int; mutable low : t; mutable high : t }
(* The fields are mutable for exactly one client: the in-place adjacent-level
   swap of the reordering engine below, which rewrites a node's (var, low,
   high) while preserving its id, its physical identity and the function it
   denotes.  Every other code path treats nodes as immutable. *)

(* Operation tags for the shared computed table; must stay < 16 so the
   packed (op, id, id) key fits a non-negative OCaml int. *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_not = 3
let op_exists = 4

(* Cache geometry: fixed-size, direct-mapped, lossy (CUDD-style).  A
   conflicting entry is overwritten; a lost entry only costs recomputation,
   never correctness. *)
let cache_bits = 16
let ite_bits = 14
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
  (* Variable order: [perm] maps a variable to its level (depth from the
     root), [invperm] maps a level back to its variable.  Both are identity
     beyond their length, so the empty arrays of a fresh manager mean the
     natural order and cost one bounds check on the hot paths. *)
  mutable perm : int array;
  mutable invperm : int array;
  (* Computed tables. *)
  cache : t Ct.cache;      (* and/or/xor/not/exists, packed (op, a, b) *)
  ite_cache : t Ct.cache2; (* (f, g) packed + h *)
  shift_cache : t Ct.cache2; (* (node id, offset) *)
  perf : Perf.t;
  (* counters pre-fetched at creation so the operation loops never hash a
     name on the hot path *)
  c_not : Perf.counter;
  c_and : Perf.counter;
  c_or : Perf.counter;
  c_xor : Perf.counter;
  c_ite : Perf.counter;
  c_exists : Perf.counter;
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
    invperm = [||];
    cache = Ct.cache ~bits:cache_bits ~dummy:False;
    ite_cache = Ct.cache2 ~bits:ite_bits ~dummy:False;
    shift_cache = Ct.cache2 ~bits:shift_bits ~dummy:False;
    perf;
    c_not = Perf.counter perf "not";
    c_and = Perf.counter perf "and";
    c_or = Perf.counter perf "or";
    c_xor = Perf.counter perf "xor";
    c_ite = Perf.counter perf "ite";
    c_exists = Perf.counter perf "exists";
    c_shift = Perf.counter perf "shift";
  }

let clear_caches m =
  Ct.clear m.cache;
  Ct.clear2 m.ite_cache;
  Ct.clear2 m.shift_cache;
  Perf.reset m.perf

let node_count m = m.next_id - 2

let perf m = m.perf

let unique_size m = m.u_count

let node_id = function False -> 0 | True -> 1 | Node n -> n.id

let level m v = if v < Array.length m.perm then m.perm.(v) else v

(* Extend the order maps to cover [n] variables; the extension is the
   identity, which is consistent because [perm] always maps {0..len-1}
   onto {0..len-1}. *)
let ensure_order m n =
  let len = Array.length m.perm in
  if n > len then begin
    m.perm <- Array.init n (fun i -> if i < len then m.perm.(i) else i);
    m.invperm <- Array.init n (fun i -> if i < len then m.invperm.(i) else i)
  end

let order m = Array.copy m.invperm

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
  m.perm <- perm;
  m.invperm <- Array.copy ord

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

let nvar m i =
  if i < 0 then invalid_arg "Bdd.nvar: negative variable";
  Ct.check_var i;
  mk m i True False

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

let bnand m a b = bnot m (band m a b)
let bnor m a b = bnot m (bor m a b)
let bxnor m a b = bnot m (bxor m a b)
let bimply m a b = bor m (bnot m a) b

let ite m f g h =
  let cache = m.ite_cache in
  let rec go f g h =
    match f with
    | True -> g
    | False -> h
    | Node nf ->
      if g == h then g
      else if g == True && h == False then f
      else begin
        let k1 = Ct.pack2 nf.id (node_id g) and k2 = node_id h in
        let i = Ct.slot2 cache k1 k2 in
        if cache.Ct.k1.(i) = k1 && cache.Ct.k2.(i) = k2 then begin
          Perf.hit m.c_ite;
          cache.Ct.vals2.(i)
        end
        else begin
          Perf.miss m.c_ite;
          let v = nf.var in
          let v =
            match g with
            | Node n when level m n.var < level m v -> n.var
            | _ -> v
          in
          let v =
            match h with
            | Node n when level m n.var < level m v -> n.var
            | _ -> v
          in
          let f0, f1 = cofactors f v in
          let g0, g1 = cofactors g v in
          let h0, h1 = cofactors h v in
          let r = mk m v (go f0 g0 h0) (go f1 g1 h1) in
          cache.Ct.k1.(i) <- k1;
          cache.Ct.k2.(i) <- k2;
          cache.Ct.vals2.(i) <- r;
          r
        end
      end
  in
  go f g h

let band_list m fs = List.fold_left (band m) one fs
let bor_list m fs = List.fold_left (bor m) zero fs

let restrict m f ~var ~value =
  let memo = Hashtbl.create 64 in
  let lvl = level m var in
  let rec go f =
    match f with
    | False | True -> f
    | Node n when level m n.var > lvl -> f
    | Node n when n.var = var -> if value then n.high else n.low
    | Node n -> (
      match Hashtbl.find_opt memo n.id with
      | Some r -> r
      | None ->
        let r = mk m n.var (go n.low) (go n.high) in
        Hashtbl.add memo n.id r;
        r)
  in
  go f

let exists m vars f =
  let vars = List.sort_uniq compare vars in
  let cache = m.cache in
  (* memoized on (variable, node), so the cache survives across the
     quantified variables of one call and across calls *)
  let quantify_one v f =
    let lvl = level m v in
    let rec go f =
      match f with
      | False | True -> f
      | Node n when level m n.var > lvl -> f
      | Node n when n.var = v -> bor m n.low n.high
      | Node n ->
        let key = Ct.pack op_exists v n.id in
        let i = Ct.slot cache key in
        if cache.Ct.keys.(i) = key then begin
          Perf.hit m.c_exists;
          cache.Ct.vals.(i)
        end
        else begin
          Perf.miss m.c_exists;
          let r = mk m n.var (go n.low) (go n.high) in
          cache.Ct.keys.(i) <- key;
          cache.Ct.vals.(i) <- r;
          r
        end
    in
    go f
  in
  List.fold_left (fun acc v -> quantify_one v acc) f vars

let forall m vars f = bnot m (exists m vars (bnot m f))

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

let support f =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go f =
    match f with
    | False | True -> ()
    | Node n ->
      if not (Hashtbl.mem seen n.id) then begin
        Hashtbl.add seen n.id ();
        Hashtbl.replace vars n.var ();
        go n.low;
        go n.high
      end
  in
  go f;
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort compare

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

let any_sat f =
  let rec go f acc =
    match f with
    | False -> None
    | True -> Some (List.rev acc)
    | Node n -> (
      match go n.high ((n.var, true) :: acc) with
      | Some r -> Some r
      | None -> go n.low ((n.var, false) :: acc))
  in
  go f []

(* ------------------------------------------------------------------ *)
(* Dynamic variable reordering: CUDD-style sifting over in-place
   adjacent-level swaps.

   The swap of levels l and l+1 (variables u and v) rewrites exactly the
   u-nodes that have a v-child, in place: such a node keeps its id and
   physical identity but becomes a v-node over fresh-or-shared u-children
   built from the four grandcofactors, so every parent pointer and every
   denoted function is preserved.  u-nodes without a v-child simply
   change level (their var stays u), and v-nodes are untouched except
   that some may lose their last parent and die.  Unique-table keys never
   collide during the rewrite: a (v, new_low, new_high) entry would
   denote the same function as the rewritten node, and canonicity says
   that function had exactly one live representative before the swap —
   the node being rewritten.

   Liveness is tracked with a per-session refcount (parents + root
   pins); nodes that drop to zero are deleted from the open-addressing
   table immediately (backward-shift deletion), cascading to their
   children, so the table always holds exactly the live node set and
   sifting's size objective is honest.  The computed tables are
   invalidated at the end of a session: ids are never reused and
   functions are preserved, but a cached result could name a node whose
   table entry died, and resurrecting it would break canonicity. *)

type sift_stats = {
  swaps : int;
  size_before : int;
  size_after : int;
  capped : bool;
}

let default_max_growth = 1.2

(* Remove the unique-table entry with key (v, il, ih); linear-probing
   deletion rehashes the cluster that follows the freed slot. *)
let delete_key m v il ih =
  let mask = Array.length m.u_var - 1 in
  let rec find i =
    let uv = m.u_var.(i) in
    if uv < 0 then failwith "Bdd: reorder lost a unique-table entry"
    else if uv = v && m.u_low.(i) = il && m.u_high.(i) = ih then i
    else find ((i + 1) land mask)
  in
  let i = find (Ct.uhash v il ih land mask) in
  m.u_var.(i) <- -1;
  m.u_node.(i) <- False;
  m.u_count <- m.u_count - 1;
  let j = ref ((i + 1) land mask) in
  while m.u_var.(!j) >= 0 do
    let v' = m.u_var.(!j)
    and l' = m.u_low.(!j)
    and h' = m.u_high.(!j)
    and n' = m.u_node.(!j) in
    m.u_var.(!j) <- -1;
    m.u_node.(!j) <- False;
    let k = ref (Ct.uhash v' l' h' land mask) in
    while m.u_var.(!k) >= 0 do
      k := (!k + 1) land mask
    done;
    m.u_var.(!k) <- v';
    m.u_low.(!k) <- l';
    m.u_high.(!k) <- h';
    m.u_node.(!k) <- n';
    j := (!j + 1) land mask
  done

(* Insert an existing (rewritten) node under its current key.  The key is
   collision-free by the canonicity argument above, so only an empty slot
   is needed. *)
let insert_node m node =
  match node with
  | False | True -> ()
  | Node n ->
    let il = node_id n.low and ih = node_id n.high in
    if 2 * (m.u_count + 1) >= Array.length m.u_var then grow_unique m;
    let mask = Array.length m.u_var - 1 in
    let i = ref (Ct.uhash n.var il ih land mask) in
    while m.u_var.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    m.u_var.(!i) <- n.var;
    m.u_low.(!i) <- il;
    m.u_high.(!i) <- ih;
    m.u_node.(!i) <- node;
    m.u_count <- m.u_count + 1

(* Keep exactly the nodes reachable from [roots]: rebuild the unique table
   at a fitted capacity and invalidate the computed tables (a cached result
   could otherwise resurrect a dropped node outside the table). *)
let sweep_roots m roots =
  let live = Hashtbl.create 1024 in
  let rec mark t =
    match t with
    | False | True -> ()
    | Node n ->
      if not (Hashtbl.mem live n.id) then begin
        Hashtbl.add live n.id ();
        mark n.low;
        mark n.high
      end
  in
  List.iter mark roots;
  let survivors = ref [] in
  let survivor_count = ref 0 in
  for i = 0 to Array.length m.u_var - 1 do
    if m.u_var.(i) >= 0 && Hashtbl.mem live (node_id m.u_node.(i)) then begin
      survivors := m.u_node.(i) :: !survivors;
      incr survivor_count
    end
  done;
  let capacity = ref (1 lsl initial_unique_bits) in
  while !capacity < 4 * !survivor_count do
    capacity := 2 * !capacity
  done;
  let n = !capacity in
  let mask = n - 1 in
  m.u_var <- Array.make n (-1);
  m.u_low <- Array.make n 0;
  m.u_high <- Array.make n 0;
  m.u_node <- Array.make n False;
  m.u_count <- !survivor_count;
  List.iter
    (fun node ->
      match node with
      | False | True -> ()
      | Node nd ->
        let il = node_id nd.low and ih = node_id nd.high in
        let j = ref (Ct.uhash nd.var il ih land mask) in
        while m.u_var.(!j) >= 0 do
          j := (!j + 1) land mask
        done;
        m.u_var.(!j) <- nd.var;
        m.u_low.(!j) <- il;
        m.u_high.(!j) <- ih;
        m.u_node.(!j) <- node)
    !survivors;
  Ct.clear m.cache;
  Ct.clear2 m.ite_cache;
  Ct.clear2 m.shift_cache

(* Per-session reordering state. *)
type session = {
  mutable refs : int array; (* per node id: live parents + root pins *)
  mutable at : t list array; (* level -> nodes currently on that level *)
  mutable live : int;       (* live internal nodes *)
  mutable swaps : int;
}

let ensure_refs s n =
  if n > Array.length s.refs then begin
    let cap = ref (2 * Array.length s.refs) in
    while !cap < n do
      cap := 2 * !cap
    done;
    let fresh = Array.make !cap 0 in
    Array.blit s.refs 0 fresh 0 (Array.length s.refs);
    s.refs <- fresh
  end

let session_of m roots nlevels =
  let s =
    {
      refs = Array.make (max 1024 m.next_id) 0;
      at = Array.make (max 1 nlevels) [];
      live = 0;
      swaps = 0;
    }
  in
  for i = 0 to Array.length m.u_var - 1 do
    if m.u_var.(i) >= 0 then begin
      match m.u_node.(i) with
      | Node n as node ->
        s.live <- s.live + 1;
        let l = level m n.var in
        s.at.(l) <- node :: s.at.(l);
        (match n.low with
        | Node c -> s.refs.(c.id) <- s.refs.(c.id) + 1
        | _ -> ());
        (match n.high with
        | Node c -> s.refs.(c.id) <- s.refs.(c.id) + 1
        | _ -> ())
      | False | True -> ()
    end
  done;
  List.iter
    (fun r ->
      match r with
      | Node n -> s.refs.(n.id) <- s.refs.(n.id) + 1
      | False | True -> ())
    roots;
  s

(* Swap levels [lvl] and [lvl + 1] in place.  See the block comment above
   for the invariants. *)
let swap_adjacent_in m s lvl =
  let u = m.invperm.(lvl) and v = m.invperm.(lvl + 1) in
  let list_a = s.at.(lvl) and list_b = s.at.(lvl + 1) in
  let new_a = ref [] and new_b = ref [] in
  let pending = ref [] in
  let release c =
    match c with
    | Node cn ->
      s.refs.(cn.id) <- s.refs.(cn.id) - 1;
      if s.refs.(cn.id) = 0 then pending := c :: !pending
    | False | True -> ()
  in
  List.iter
    (fun node ->
      match node with
      | Node n when s.refs.(n.id) > 0 ->
        let f0 = n.low and f1 = n.high in
        let low_hits =
          match f0 with Node c -> c.var = v | False | True -> false
        and high_hits =
          match f1 with Node c -> c.var = v | False | True -> false
        in
        if not (low_hits || high_hits) then
          (* no v-child: the node just changes level *)
          new_b := node :: !new_b
        else begin
          let f00, f01 =
            match f0 with
            | Node c when c.var = v -> (c.low, c.high)
            | _ -> (f0, f0)
          and f10, f11 =
            match f1 with
            | Node c when c.var = v -> (c.low, c.high)
            | _ -> (f1, f1)
          in
          delete_key m u (node_id f0) (node_id f1);
          (* child of the rewritten node: the u-branch over cofactors
             (a = u:=0, b = u:=1); fresh nodes acquire refs on their
             children and land on the lower level *)
          let acquire c =
            match c with
            | Node cn -> s.refs.(cn.id) <- s.refs.(cn.id) + 1
            | False | True -> ()
          in
          let attach a b =
            if a == b then begin
              acquire a;
              a
            end
            else begin
              let before = m.next_id in
              let r = mk m u a b in
              if m.next_id > before then begin
                ensure_refs s m.next_id;
                acquire a;
                acquire b;
                s.live <- s.live + 1;
                new_b := r :: !new_b
              end;
              acquire r;
              r
            end
          in
          let nl = attach f00 f10 in
          let nh = attach f01 f11 in
          release f0;
          release f1;
          n.var <- v;
          n.low <- nl;
          n.high <- nh;
          insert_node m node;
          new_a := node :: !new_a
        end
      | _ -> ())
    list_a;
  (* cascade deletion of nodes whose last parent dropped them *)
  let rec drain () =
    match !pending with
    | [] -> ()
    | c :: rest ->
      pending := rest;
      (match c with
      | Node cn when s.refs.(cn.id) = 0 ->
        delete_key m cn.var (node_id cn.low) (node_id cn.high);
        s.live <- s.live - 1;
        release cn.low;
        release cn.high
      | _ -> ());
      drain ()
  in
  drain ();
  (* surviving v-nodes move up to level [lvl] *)
  List.iter
    (fun node ->
      match node with
      | Node n when s.refs.(n.id) > 0 && n.var = v -> new_a := node :: !new_a
      | _ -> ())
    list_b;
  s.at.(lvl) <- !new_a;
  s.at.(lvl + 1) <- !new_b;
  m.invperm.(lvl) <- v;
  m.invperm.(lvl + 1) <- u;
  m.perm.(u) <- lvl + 1;
  m.perm.(v) <- lvl;
  s.swaps <- s.swaps + 1

let clear_op_caches m =
  Ct.clear m.cache;
  Ct.clear2 m.ite_cache;
  Ct.clear2 m.shift_cache

(* Highest occupied level + 1 (0 when only terminals are live). *)
let level_span m =
  let max_lvl = ref (-1) in
  for i = 0 to Array.length m.u_var - 1 do
    if m.u_var.(i) >= 0 then begin
      let l = level m m.u_var.(i) in
      if l > !max_lvl then max_lvl := l
    end
  done;
  !max_lvl + 1

let validate_pairs m nlevels =
  let k = ref 0 in
  while 2 * !k < nlevels do
    let e = m.invperm.(2 * !k) and o = m.invperm.((2 * !k) + 1) in
    if e land 1 <> 0 || o <> e + 1 then
      invalid_arg
        "sift: group_pairs requires an order of adjacent (even, odd) \
         variable pairs";
    incr k
  done

let swap_adjacent m ~roots lvl =
  if lvl < 0 then invalid_arg "Bdd.swap_adjacent: negative level";
  sweep_roots m roots;
  ensure_order m (max (lvl + 2) (level_span m));
  let s = session_of m roots (Array.length m.invperm) in
  swap_adjacent_in m s lvl;
  if s.live <> m.u_count then
    failwith "Bdd.swap_adjacent: internal accounting mismatch";
  clear_op_caches m

let sift ?(group_pairs = false) ?(max_growth = default_max_growth) ?max_swaps
    m ~roots =
  if not (max_growth >= 1.0) then
    invalid_arg "Bdd.sift: max_growth must be >= 1.0";
  (match max_swaps with
  | Some k when k < 0 -> invalid_arg "Bdd.sift: max_swaps must be >= 0"
  | _ -> ());
  sweep_roots m roots;
  let nlevels =
    let n = level_span m in
    if group_pairs && n land 1 = 1 then n + 1 else n
  in
  ensure_order m nlevels;
  let w = if group_pairs then 2 else 1 in
  if group_pairs then validate_pairs m nlevels;
  let s = session_of m roots nlevels in
  let size0 = s.live in
  let ngroups = nlevels / w in
  let budget_left =
    ref (match max_swaps with Some k -> k | None -> max_int)
  in
  let capped = ref false in
  if ngroups > 1 then begin
    (* biggest groups first, index ascending on ties: deterministic *)
    let gsize g =
      let total = ref 0 in
      for lv = g * w to (g * w) + w - 1 do
        List.iter
          (fun node ->
            match node with
            | Node n when s.refs.(n.id) > 0 -> incr total
            | _ -> ())
          s.at.(lv)
      done;
      !total
    in
    let by_size = Array.init ngroups (fun g -> (gsize g, g)) in
    Array.sort
      (fun (sa, ga) (sb, gb) ->
        match compare sb sa with 0 -> compare ga gb | c -> c)
      by_size;
    let pos = Array.init ngroups Fun.id in
    let which = Array.init ngroups Fun.id in
    (* exchange the adjacent same-width blocks at positions p and p+1 *)
    let move_down p =
      let a = p * w in
      for k = 0 to w - 1 do
        for l = a + w + k downto a + k + 1 do
          swap_adjacent_in m s (l - 1);
          decr budget_left
        done
      done;
      let g1 = which.(p) and g2 = which.(p + 1) in
      which.(p) <- g2;
      which.(p + 1) <- g1;
      pos.(g2) <- p;
      pos.(g1) <- p + 1
    in
    let move_up p = move_down (p - 1) in
    Array.iter
      (fun (_, g) ->
        if not !capped then begin
          (* worst case for one group: to the far end, to the other end,
             and back — reserve it so a capped sift still ends with every
             explored group parked at its best position *)
          let need = 3 * (ngroups - 1) * w * w in
          if !budget_left < need then capped := true
          else begin
            let p0 = pos.(g) in
            let start = s.live in
            let limit =
              int_of_float (Float.of_int start *. max_growth) + 1
            in
            let best = ref s.live and best_p = ref p0 in
            let record () =
              if s.live < !best then begin
                best := s.live;
                best_p := pos.(g)
              end
            in
            let walk_down () =
              while pos.(g) < ngroups - 1 && s.live <= limit do
                move_down pos.(g);
                record ()
              done
            and walk_up () =
              while pos.(g) > 0 && s.live <= limit do
                move_up pos.(g);
                record ()
              done
            in
            if ngroups - 1 - p0 <= p0 then begin
              walk_down ();
              walk_up ()
            end
            else begin
              walk_up ();
              walk_down ()
            end;
            while pos.(g) < !best_p do
              move_down pos.(g)
            done;
            while pos.(g) > !best_p do
              move_up pos.(g)
            done
          end
        end)
      by_size
  end;
  if s.live <> m.u_count then
    failwith "Bdd.sift: internal accounting mismatch";
  clear_op_caches m;
  { swaps = s.swaps; size_before = size0; size_after = s.live;
    capped = !capped }
