(** Crash-safe, self-healing experiment runs.

    Composes the two robustness layers: {!Parallel.Pool.Supervisor}
    (retry transient failures with deterministic backoff, quarantine
    poison tasks) and {!Journal} (append every completed result,
    write-then-fsync, so a killed run resumes where it stopped).  A task
    recovered from the journal re-renders byte-identically to a freshly
    computed one, so resuming never perturbs the bench determinism
    check. *)

type 'a outcome =
  | Fresh of 'a * int  (** computed this run, in [n] attempts *)
  | Recovered of 'a * int  (** read back from the journal *)
  | Quarantined of Guard.Error.t * int
      (** retryable but still failing after the policy's attempt budget *)
  | Failed of Guard.Error.t * int  (** non-retryable ([Parse]/[Validation]) *)

val survivor : 'a outcome -> 'a option
val attempts : 'a outcome -> int

type options = {
  journal : string option;  (** append completed tasks here when set *)
  resume : bool;
      (** recover [journal] first and skip tasks already on disk (a
          missing journal file is an empty recovery, i.e. a fresh run) *)
  policy : Parallel.Pool.Supervisor.policy;
  jobs : int option;
  sleep : (float -> unit) option;  (** backoff test seam *)
}

val default_options : options
(** No journal, no resume, {!Parallel.Pool.Supervisor.default_policy}. *)

val run_keyed :
  options:options ->
  encode:('a -> Json.t) ->
  decode:(Json.t -> ('a, Guard.Error.t) result) ->
  (string * (unit -> 'a)) list ->
  (string * 'a outcome) list
(** The generic engine: one [(key, outcome)] per task, in submission
    order.  Journaled results whose payload decodes are [Recovered]
    without running; an undecodable payload (journal from another code
    version) silently falls back to recomputing.  Raises
    [Guard.Error.Guarded] only if [resume] is set and the journal file
    exists but cannot be read at all. *)

val table1 :
  ?options:options -> ?config:Table1.config -> ?names:string list -> unit ->
  (string * Table1.row outcome) list
(** Durable Table 1: one supervised task per circuit, keyed on
    [vectors]/[char_vectors]/[seed]/[max_scale] so a journal written
    under different settings is never reused. *)

val fig7a :
  ?options:options -> ?vectors:int -> ?char_vectors:int -> ?seed:int ->
  unit -> Fig7a.result outcome

val fig7b :
  ?options:options -> ?vectors:int -> ?char_vectors:int -> ?seed:int ->
  unit -> Fig7b.result outcome
(** Fig. 7a/7b run as single supervised tasks (the pool's single-task
    inline path preserves their internal parallelism). *)
