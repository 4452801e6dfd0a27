(** Per-manager performance counters for the decision-diagram package.

    Every {!Add.manager} owns one [Perf.t]; the hot operation loops count
    computed-table hits and misses into pre-fetched {!counter} records (no
    hashing on the hot path) — [plus], [minus], [times], [min], [max],
    [and], [or], [xor] and [shift] — the hash-consing constructor tracks
    the peak allocated node count, and {!Approx}
    counts its collapse passes.  [clear_caches] on the owning manager
    resets the counters along with the caches, so a counter window always
    matches a cache window.

    Counters are plain mutable ints with no synchronization: a manager —
    and therefore its [Perf.t] — must stay confined to one domain, which
    is the same discipline the managers themselves already require.  The
    parallel experiment engine gives every task its own manager, so each
    task gets an isolated, race-free counter set. *)

type counter = { mutable hits : int; mutable misses : int }

type t

val create : unit -> t

val reset : t -> unit
(** Zero every counter (records stay valid — callers holding a
    {!counter} keep counting into the same cell), the peak node count and
    the collapse-pass count. *)

val counter : t -> string -> counter
(** Find-or-create the named counter.  The returned record is stable for
    the lifetime of [t]; fetch it once and bump it directly. *)

val hit : counter -> unit
val miss : counter -> unit

val note_peak : t -> int -> unit
(** Record an allocation high-water mark (monotonic max). *)

val note_collapse : t -> unit
(** Count one {!Approx} collapse pass. *)

(** {1 Queries} *)

val peak_nodes : t -> int
val collapse_passes : t -> int

val hits : t -> string -> int
(** 0 for an unknown counter name. *)

val misses : t -> string -> int

val total_hits : t -> int
val total_misses : t -> int

val total_hit_rate : t -> float
(** Aggregate hit rate over every counter. *)

val counter_names : t -> string list
(** Sorted; only counters that fired at least once. *)

(** {1 Serialization} *)

val to_json : t -> Json.t
(** Deterministic: counters render sorted by name, idle counters are
    skipped.  [of_json (to_json t)] reconstructs an equivalent [t]. *)

val of_json : Json.t -> (t, string) result
