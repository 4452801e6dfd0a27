(** The paper's contribution: characterization-free, pattern-dependent
    RT-level models of switching capacitance.

    [build] constructs the ADD of [C(x_i, x_f)] (Eq. 4) directly from the
    gate-level golden model, with no simulation: the netlist is evaluated
    twice symbolically (over the [x_i] and [x_f] variable copies), and each
    gate contributes [NOT g(x_i) AND g(x_f)] weighted by its load
    capacitance — the iterative loop of Fig. 6.  When a size bound is given,
    every intermediate ADD is kept under it by node collapsing
    ({!Dd.Approx}), using the model's strategy:

    - {!Dd.Approx.Average} models are tuned for average-power accuracy;
    - {!Dd.Approx.Upper_bound} models are conservative pattern-dependent
      upper bounds ([estimate >= truth] for every transition).

    An unbounded model is {e exact}: it reproduces the zero-delay gate-level
    simulation pattern by pattern, for any input statistics. *)

type build_stats = {
  gates : int;          (** gates in the circuit *)
  gates_done : int;     (** gates fully accumulated — < [gates] iff aborted *)
  skipped : int;        (** zero-load gates contributing nothing *)
  approx_calls : int;   (** node-collapsing invocations (Fig. 6 [add_approx]) *)
  peak_size : int;      (** largest intermediate ADD observed *)
  final_size : int;
  bdd_nodes : int;
      (** internal nodes the node functions hold live: the unique-table
          size after the sweep that follows their construction *)
  cpu_seconds : float;
      (** [Sys.time]-based, i.e. process-wide CPU: misleading under
          parallel domains — prefer [wall_seconds] for reporting *)
  wall_seconds : float; (** monotonic wall clock of this build *)
  degrade_steps : int;
      (** times the budget ladder halved the effective MAX under node
          pressure (0 when unbudgeted or within budget) *)
  sift_swaps : int;
      (** adjacent-level swaps spent by the reorder policy (0 under
          [Declared]) *)
  reorder_gain : int;
      (** nodes removed from the finished model by post-build
          reordering ([size before - size after]; 0 under [Declared],
          and for exact builds whose info order was installed
          statically).  Never negative: a post-build reorder that
          inflated the model is reverted, so a policy can only shrink
          the finished diagram or leave it unchanged. *)
}

type t = {
  circuit_name : string;
  inputs : int;
  strategy : Dd.Approx.strategy;
  weighting : Dd.Approx.weighting;
  max_size : int option;
  reorder : Reorder.policy;  (** the policy this model was built under *)
  add_manager : Dd.Add.manager;
  cap : Dd.Add.t;       (** the model: switching capacitance in fF over
                            the {!Vars} variable numbering *)
  stats : build_stats;
}

exception Build_aborted of Guard.Error.t * build_stats
(** Raised by {!build} on budget exhaustion: a [Resource]-kind error plus
    the statistics of the partial construction (how many gates were
    accumulated, peak sizes, elapsed time).  {!Guard.Error.of_exn} knows
    this exception, so fault-isolation boundaries recover the structured
    error automatically; use {!build_checked} to avoid the exception
    entirely. *)

val build :
  ?budget:Guard.Budget.t ->
  ?reorder:Reorder.policy ->
  ?strategy:Dd.Approx.strategy ->
  ?weighting:Dd.Approx.weighting ->
  ?max_size:int ->
  ?output_load:float ->
  ?loads:float array ->
  Netlist.Circuit.t ->
  t
(** Construct the model.  [max_size] is the paper's [MAX] (omit it for an
    exact model); [strategy] defaults to {!Dd.Approx.Average}; [weighting]
    to the statistics-robust default ({!Dd.Approx.default_weighting});
    [output_load] is forwarded to {!Netlist.Circuit.loads}, or [loads]
    (per-net, full length) replaces the derived back-annotation
    entirely.  Raises [Invalid_argument] on a negative, NaN or infinite
    [output_load] or entry of [loads].

    [budget] (default: the ambient {!Guard.Budget}, if any) is enforced
    cooperatively, one checkpoint per gate.  Under node pressure the
    construction {e degrades} before it fails: dead nodes are swept, then
    the effective [max_size] is halved (escalating collapse) step by step
    down to a small floor.  Only when the maximally collapsed model still
    cannot fit the ceiling — or on a deadline / collapse-ceiling hit,
    which admit no degradation — does it raise {!Build_aborted}.

    [reorder] (default: the ambient {!Reorder.ambient} policy)
    selects the variable-order policy.
    Info orders are installed statically for exact builds; bounded
    builds always construct in the declared order and reorder the
    finished model in place, so the model's {e values} — and therefore
    every power estimate — are byte-identical across policies, only the
    diagram's shape and size change.  A post-build reorder that grew the
    model (a collapsed diagram is shaped by its build order) is reverted,
    so no policy ever yields a larger finished model than [Declared]'s.
    A {!Guard.Budget.swap_ceiling} caps the sifting pass's swaps. *)

type build_failure = {
  error : Guard.Error.t;
  partial : build_stats option;
      (** statistics of the partial construction, when the gate loop
          started (budget aborts); [None] for argument validation *)
}

val build_checked :
  ?budget:Guard.Budget.t ->
  ?reorder:Reorder.policy ->
  ?strategy:Dd.Approx.strategy ->
  ?weighting:Dd.Approx.weighting ->
  ?max_size:int ->
  ?output_load:float ->
  ?loads:float array ->
  Netlist.Circuit.t ->
  (t, build_failure) result
(** {!build} with every failure mode — budget exhaustion, argument
    validation, internal invariants — returned as a classified
    {!Guard.Error} instead of an exception. *)

val is_exact : t -> bool
(** True when no approximation was ever applied. *)

val size : t -> int

val switched_capacitance : t -> x_i:bool array -> x_f:bool array -> float
(** Model lookup for one transition — linear in the number of inputs. *)

val energy : ?vdd:float -> t -> x_i:bool array -> x_f:bool array -> float
(** [Vdd^2 * C] (Eq. 1), fJ for fF loads. *)

(** {1 Sequence runs} *)

type run = {
  patterns : int;
  average : float;  (** mean estimated capacitance per transition, fF *)
  maximum : float;
  total : float;
}

val run : t -> bool array array -> run
(** Estimate every consecutive transition of a vector sequence — the RTL
    side of the paper's concurrent RTL/gate-level evaluation. *)

(** {1 Compiled bulk evaluation}

    {!switched_capacitance} walks the hash-consed ADD per query;
    {!compile} flattens the model into a {!Dd.Compiled} program (flat
    int-array triples, depth-first renumbering) whose batched entry
    points stream whole vector blocks, sharded deterministically across
    the {!Parallel.Pool} — the high-volume query path.  The program is
    immutable and shares nothing mutable with the manager, so one
    compiled model can serve any number of domains concurrently. *)

type compiled

val compile : t -> compiled
(** Compile over the full interleaved width ({!Vars.count}), so packed
    batches always use a stride of [2 * inputs] bytes per transition. *)

val compiled_model : compiled -> t
val compiled_program : compiled -> Dd.Compiled.t

val switched_capacitance_compiled :
  compiled -> x_i:bool array -> x_f:bool array -> float
(** Single-transition lookup through the compiled program; equal to
    {!switched_capacitance} bit for bit. *)

val pack_transitions : compiled -> bool array array -> Bytes.t * int
(** Pack the [n - 1] consecutive transitions of a vector sequence into a
    batch buffer ([2 * inputs] bytes per transition, {!Vars} interleaved
    layout) plus the transition count.  Raises [Invalid_argument] on
    fewer than two vectors or a width mismatch. *)

val eval_batch : ?jobs:int -> compiled -> inputs:Bytes.t -> n:int -> float array
(** Evaluate a packed transition batch; slot [i] equals
    {!switched_capacitance} of transition [i] bit for bit, whatever
    [jobs] (or [CFPM_JOBS]) says — see {!Dd.Compiled.eval_batch}. *)

val run_compiled : ?jobs:int -> compiled -> bool array array -> run
(** {!run} through the compiled program: packs the sequence's transitions
    and folds sum/max without materializing per-transition outputs.
    [maximum] equals the interpreted run exactly; [average]/[total] may
    differ in the last bits (blockwise summation) but are themselves
    byte-identical across job counts. *)

(** {1 Analysis} *)

val average_capacitance : t -> float
(** Exact expectation of the model under uniform independent inputs
    (sp = st = 0.5). *)

val max_capacitance : t -> float
(** Largest value the model can produce; for an upper-bound model this is
    the constant worst-case estimator of Table 1's [Con] bound column. *)

val var_name : t -> int -> string

val to_dot : t -> string
(** Graphviz rendering of the model's ADD (Fig. 3/4-style). *)
