(** Zero-delay gate-level simulation with switched-capacitance accounting.

    This is the golden reference of the paper's experiments: on each input
    transition it evaluates the netlist before and after, and charges the
    load capacitance of every gate output that rises (Eq. 1–3).  Energy is
    [Vdd^2 * C]; short-circuit currents, charge sharing and glitches are
    parasitic phenomena outside the zero-delay golden model by design.

    {b Word-parallel evaluation.}  {!run} and {!switched_capacitance}
    evaluate the netlist once per block of up to [Sys.int_size] (63)
    consecutive vectors, over [int] words whose lane [j] holds the block's
    vector [j].  Consecutive blocks overlap by one vector, so each
    transition falls inside exactly one block; a gate-output net rises on
    the transition out of lane [j] where [lnot x land (x lsr 1)] has bit
    [j] set.  Each transition's load sum is then accumulated net by net in
    increasing net order, starting from [0.0] — the additions, in the
    order, of {!switched_capacitance_of_values} — so every per-pattern
    value, total, average and maximum is bit-identical to evaluating one
    vector at a time.

    A [t] holds no mutable state: every call allocates its own buffers,
    so one simulator may be shared read-only by any number of domains.
    Each {!run} adds its transitions to the [gatesim.transitions] metric
    and its netlist evaluations to [gatesim.word_evals]. *)

type t

val default_vdd : float
(** Supply voltage used when none is given (3.3 V, typical of the paper's
    era). *)

val create :
  ?output_load:float -> ?loads:float array -> Netlist.Circuit.t -> t
(** Compile a circuit: back-annotates per-net loads via
    {!Netlist.Circuit.loads}, or uses [loads] verbatim (indexed by net;
    must cover every net) when supplied. *)

val circuit : t -> Netlist.Circuit.t
val loads : t -> float array

val eval : t -> bool array -> bool array
(** All net values under the given primary-input vector. *)

val eval_outputs : t -> bool array -> bool array

val switched_capacitance : t -> bool array -> bool array -> float
(** [switched_capacitance t x_i x_f] is the total load (fF) of gate outputs
    rising in the transition — the golden value the paper's
    [C(x_i, x_f)] models.  A two-vector {!run}: [x_i] in lane 0, [x_f] in
    lane 1, one netlist evaluation. *)

val switched_capacitance_of_values : t -> bool array -> bool array -> float
(** Same, from precomputed net-value arrays (avoids re-evaluating shared
    endpoints when sweeping a sequence). *)

val energy : ?vdd:float -> t -> bool array -> bool array -> float
(** [Vdd^2 * C], in fJ when loads are fF. *)

(** {1 Sequence runs} *)

type run = {
  patterns : int;
  average : float;
  maximum : float;
  total : float;
  per_pattern : float array;
}

val run : t -> bool array array -> run
(** Simulate a vector sequence (at least two vectors) and account every
    consecutive transition.  Raises [Invalid_argument] with fewer than two
    vectors, or for the first vector (in sequence order) whose width is
    not the circuit's input count, with {!Netlist.Circuit.eval_all}'s
    message. *)

val average_power : ?vdd:float -> period:float -> run -> float
(** Mean supply power for a clock period in seconds (fJ/s when loads are
    fF). *)

val worst_case_capacitance_exhaustive : t -> float
(** Exact maximum over all input-vector pairs, by exhaustive enumeration —
    exponential, restricted to circuits with at most 13 inputs.  Used by
    tests to validate conservative bounds. *)
