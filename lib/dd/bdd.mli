(** Reduced ordered binary decision diagrams (ROBDDs).

    This is the Boolean half of the decision-diagram package the paper builds
    its models with (the authors used CUDD; we implement from scratch the
    operations model construction runs).  Nodes are hash-consed inside a
    {!manager}, so two structurally equal diagrams built in the same manager
    are physically equal, and equality tests are [==].

    Variables are non-negative integers.  By default the variable order is
    the natural integer order (variable 0 closest to the root); {!set_order}
    installs another static order before any node exists, and all ordered
    operations compare variables through it.  Live reordering happens on
    the ADD side only ({!Add.sift}, {!Add.reorder_to}).  All operations are
    memoized in per-manager caches. *)

type t = private
  | False
  | True
  | Node of { id : int; var : int; low : t; high : t }
      (** [Node {var; low; high}] is [if var then high else low].  Invariant:
          [low != high] and both children sit on strictly deeper levels than
          [var] under the manager's order. *)

type manager
(** Mutable state: unique table and operation caches.  Diagrams from
    different managers must never be mixed. *)

val manager : ?perf:Perf.t -> unit -> manager
(** [perf] shares an existing counter set (e.g. to carry counters across a
    manager migration); a fresh one is created by default. *)

val clear_caches : manager -> unit
(** Drop all operation caches (the unique table is kept, so existing nodes
    stay valid) and reset the {!Perf} counters.  Useful to bound memory in
    long runs. *)

val node_count : manager -> int
(** Number of live hash-consed nodes ever created in this manager. *)

val perf : manager -> Perf.t
(** The manager's performance counters: computed-table hits/misses per
    operation ({e not}, {e and}, {e or}, {e xor}, {e shift}) and the peak
    node count.  The computed tables are direct-mapped and lossy, so an
    evicted entry counts as a miss when re-probed. *)

val unique_size : manager -> int
(** Current number of entries in the unique (hash-consing) table. *)

val set_order : manager -> int array -> unit
(** [set_order m ord] installs the static order [ord] (level-to-variable, a
    permutation of [0 .. n-1]; variables [>= n] keep their natural level).
    Only valid on a manager with no internal nodes yet — raises
    [Invalid_argument] otherwise, and on a non-permutation. *)

(** {1 Construction} *)

val zero : t
val one : t

val of_bool : bool -> t

val var : manager -> int -> t
(** [var m i] is the projection function of variable [i].  Raises
    [Invalid_argument] if [i < 0]. *)

(** {1 Boolean operations} *)

val bnot : manager -> t -> t
val band : manager -> t -> t -> t
val bor : manager -> t -> t -> t
val bxor : manager -> t -> t -> t

val band_list : manager -> t list -> t

val shift : manager -> int -> t -> t
(** [shift m k f] renames every variable [v] of [f] to [v + k].  Under the
    natural order adding a constant preserves the variable order, so this
    is a single memoized structural copy — no apply operations.
    {!Powermodel.Model} uses it to derive the final-copy node functions
    from the initial-copy ones (interleaved numbering, offset 1) instead of
    re-evaluating the netlist.  Under a custom order the caller must ensure
    the renaming is still order-preserving — the pair-preserving orders of
    {!Powermodel.Reorder} keep offset-1 shifts of even-variable diagrams
    valid.  Raises [Invalid_argument] if any shifted variable would be
    negative. *)

(** {1 Queries} *)

val node_id : t -> int
(** Unique id within the manager ([False] is 0, [True] is 1). *)

val equal : t -> t -> bool
(** Physical equality; valid for diagrams of the same manager. *)

val is_true : t -> bool
val is_false : t -> bool

val eval : t -> bool array -> bool
(** [eval f env] evaluates [f] under [env] where [env.(i)] is the value of
    variable [i].  Linear in the number of variables on the path.  Raises
    [Invalid_argument] if the path mentions a variable outside [env]. *)

val size : t -> int
(** Number of distinct nodes reachable from the root, terminals included. *)

val sat_fraction : t -> float
(** Probability that [f] is true when every variable is an independent fair
    coin — i.e. the signal probability of the function under uniform inputs.
    Exact, computed by a memoized traversal. *)
