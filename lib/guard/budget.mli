(** Resource budgets with cooperative checkpoints.

    A budget caps five things a hostile netlist can blow up: wall-clock
    time (monotonic, immune to NTP steps), decision-diagram nodes (the
    model manager's unique table: node functions and capacitance ADD
    together, the real memory driver), collapse invocations (each
    one is a full-diagram rebuild, the real CPU driver beyond the node
    count), reorder swaps (each adjacent-level swap of a sifting pass
    is cheap, but a sift is quadratic in levels without a cap), and PBO
    solver conflicts (each bound-prune of the branch-and-bound search;
    the knob that makes adversarial search anytime).  All are optional;
    an empty budget never trips.

    Enforcement is {e cooperative}: long-running loops call {!check} at
    natural step boundaries (one gate of Fig. 6's construction, one task
    of a pool) and act on the verdict.  Node pressure is reported
    separately from hard exhaustion because the caller may be able to
    {e degrade} — collapse harder, free garbage — instead of giving up;
    deadline and collapse-ceiling hits are final.

    The {e ambient} budget is a per-domain slot ({!with_ambient} /
    {!ambient}) that lets a fault-isolation boundary (e.g.
    {!Parallel.Pool.run_isolated} with a per-task deadline) impose a
    budget on code it calls through opaque closures: budget-aware callees
    ({!Powermodel.Model.build}) pick it up as their default. *)

type t

val create :
  ?wall_seconds:float ->
  ?node_ceiling:int ->
  ?collapse_ceiling:int ->
  ?swap_ceiling:int ->
  ?conflict_ceiling:int ->
  unit ->
  t
(** The wall clock starts now.  [wall_seconds] must be finite and
    non-negative; ceilings must be positive ([Invalid_argument]
    otherwise). *)

type verdict =
  | Within
  | Node_pressure of { nodes : int; ceiling : int }
      (** over the node ceiling; the caller may degrade and re-check *)
  | Exhausted of Error.t
      (** deadline or collapse ceiling hit — [Resource] error, final *)

val check :
  ?nodes:int -> ?collapses:int -> ?swaps:int -> ?conflicts:int -> t -> verdict
(** The cooperative checkpoint.  Checks, in order: deadline, conflict
    ceiling, collapse ceiling, swap ceiling, node ceiling.  Counters the
    caller does not pass are not checked.  The swap ceiling is also
    passed down as the sifting pass's [max_swaps], which stops {e before}
    exceeding it — the [check] clause only trips if a caller reports an
    overrun. *)

val exhausted_nodes : t -> nodes:int -> Error.t
(** The [Resource] error for a node ceiling the caller failed to degrade
    under — used to convert a final [Node_pressure] into a failure. *)

val exhausted_swaps : t -> swaps:int -> Error.t
(** The [Resource] error for a reorder swap-ceiling overrun. *)

val exhausted_conflicts : t -> conflicts:int -> Error.t
(** The [Resource] error for a PBO-solver conflict-ceiling overrun.  The
    solver stops {e at} the ceiling and reports a bounded (non-optimal)
    result; this error is the typed form callers surface when a bounded
    answer is not acceptable. *)

val elapsed_seconds : t -> float

val remaining_seconds : t -> float option
(** [None] when no deadline was set; can be negative once overrun. *)

val node_ceiling : t -> int option
val collapse_ceiling : t -> int option
val swap_ceiling : t -> int option
val conflict_ceiling : t -> int option
val deadline_seconds : t -> float option

val now : unit -> float
(** The monotonic clock, in seconds from an arbitrary origin.  Exposed so
    other layers can report wall durations on the same clock. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install a budget as the calling domain's ambient budget for the
    duration of the thunk (restored on exit, exceptions included). *)

val ambient : unit -> t option
(** The calling domain's ambient budget, if inside [with_ambient]. *)

val reset_ambient : unit -> unit
(** Unconditionally clear the calling domain's ambient budget.  Fault
    boundaries ([Parallel.Pool.isolate]) call this in a [Fun.protect]
    finalizer after {e every} task, so a task that escapes its
    [with_ambient] scope abnormally (e.g. raising from a deadline
    handler) cannot leak its budget into the next task scheduled on the
    same worker domain. *)
