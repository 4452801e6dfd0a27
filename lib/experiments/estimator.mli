(** A uniform view of the competing RT-level estimators (ADD model, [Con],
    [Lin]) so the sweep machinery can evaluate them side by side.

    ADD models come in two flavours: {!Add_model} walks the hash-consed
    diagram per query (the paper-literal path), {!Compiled_model} streams
    whole transition batches through a {!Dd.Compiled} program — same
    estimates, bulk throughput.  {!add_model} picks between them by the
    process-wide {!mode} knob, so the experiments' Monte-Carlo loops use
    the compiled path by default while the interpreted one stays a flag
    flip away for testing. *)

type t =
  | Add_model of Powermodel.Model.t
  | Compiled_model of Powermodel.Model.compiled
  | Characterized of Powermodel.Baselines.t

type mode = Interpreted | Compiled

val mode : unit -> mode
(** The active evaluation mode: {!set_mode}'s override if any, else
    [Compiled]. *)

val set_mode : mode -> unit
(** Process-wide override (used by [cfpm --compiled]). *)

val add_model : Powermodel.Model.t -> t
(** Wrap a model for evaluation, compiling it when {!mode} is
    [Compiled].  Compilation happens here, eagerly — estimators are
    shared read-only across pool worker domains, which a lazy compile
    could not survive. *)

val name : t -> string
(** Both ADD flavours report ["ADD"] — the mode is an implementation
    detail of the evaluation loop, not a different estimator. *)

val estimate : t -> x_i:bool array -> x_f:bool array -> float

type run = { average : float; maximum : float }

val run : t -> bool array array -> run
(** Per-transition estimates over a vector sequence, summarized.  For a
    {!Compiled_model} this is one batched fold ({!Powermodel.Model.run_compiled});
    [maximum] matches the interpreted path exactly, [average] up to
    blockwise-summation rounding. *)
