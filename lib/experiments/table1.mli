(** Table 1 reproduction: ARE of the average estimators ([Con], [Lin],
    [ADD]) and of the conservative upper bounds (constant vs
    pattern-dependent ADD) for every benchmark in the suite, plus the MAX
    bounds used and the model construction CPU times. *)

type row = {
  name : string;
  inputs : int;     (** paper column n *)
  gates : int;      (** paper column N *)
  are_con : float;
  are_lin : float;
  are_add : float;
  max_avg : int;
  cpu_avg : float;
      (** [Sys.time]-based build time — process-wide CPU, inflated under
          parallel runs; prefer [build_wall_avg] *)
  build_wall_avg : float;  (** monotonic wall clock of the average build *)
  are_con_ub : float;  (** constant worst-case estimator's ARE on maxima *)
  are_add_ub : float;  (** pattern-dependent bound's ARE on maxima *)
  max_ub : int;
  cpu_ub : float;
  build_wall_ub : float;   (** monotonic wall clock of the bound build *)
  wall_seconds : float;
      (** end-to-end wall clock of the row (build + characterize +
          evaluate), for the bench JSON's perf trajectory *)
  model_nodes : int;   (** final node count of the average model *)
  bound_nodes : int;   (** final node count of the upper-bound model *)
  cache_hit_rate : float;
      (** aggregate ADD apply-cache hit rate of the average model's
          construction ({!Dd.Perf.total_hit_rate}) *)
}

type config = {
  vectors : int;
  char_vectors : int;
  seed : int;
  max_scale : float;
      (** multiplies the Table 1 MAX bounds; < 1 for quicker runs *)
  force_fail : string list;
      (** circuits whose builds get an unsatisfiable node ceiling: a
          deterministic failure injection for exercising fault isolation
          (same outcome for every job count, unlike a deadline) *)
}

val default_config : config

val selected : string list option -> Circuits.Suite.entry list
(** The suite (or the named subset, in the order given) — the task list
    every runner below iterates.  An unknown name raises
    [Guard.Error.Guarded] with a [Validation] error whose context names
    the circuit and lists the valid ones. *)

val run_entry : ?config:config -> ?jobs:int -> Circuits.Suite.entry -> row
(** One row, self-contained: the entry builds its own managers,
    simulator and PRNG streams, so concurrent [run_entry] calls share
    nothing mutable. *)

val run : ?config:config -> ?names:string list -> ?jobs:int -> unit -> row list
(** The full table (or a named subset), in suite order.  Rows execute on
    a {!Parallel.Pool} with [jobs] workers (default
    {!Parallel.Pool.default_jobs}); results are identical for every job
    count.  A failing circuit propagates its exception; {!Durable.table1}
    isolates and retries failures per circuit. *)

val row_to_json : row -> Json.t
(** Journal codec.  Floats round-trip bit-identically through [Json]'s
    printer, so a row recovered from a journal re-renders byte-for-byte
    in the bench report's [model_errors]. *)

val row_of_json : Json.t -> (row, Guard.Error.t) result
(** Inverse of {!row_to_json}; a [Parse] error means the journal was
    written by a different code version and the task should rerun. *)
