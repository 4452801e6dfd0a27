(** A small fixed-size work pool over OCaml 5 domains.

    The paper's evaluation is embarrassingly parallel: every benchmark
    circuit builds its own DD manager, ADD model and simulator with zero
    shared state, so the experiment layer hands this pool one closure per
    circuit (or per sweep point) and gets the results back {e in
    submission order}, regardless of which worker finished first or when.
    Pool parallelism therefore never changes a result — only wall-clock.

    Mechanics: tasks go into a queue drained by a fixed set of worker
    domains under a [Mutex]; the caller blocks on a [Condition] until the
    last task completes, then joins the workers.  The worker count comes
    from [?jobs], else the [CFPM_JOBS] environment variable, else
    [Domain.recommended_domain_count ()].

    Exceptions raised by a task are captured with their backtrace and
    re-raised on the caller after the remaining tasks finish; when several
    tasks fail, the one with the smallest submission index wins.

    Nested calls degrade gracefully: a [run] issued from inside a worker
    executes its tasks inline on that worker rather than spawning a second
    generation of domains (OCaml's runtime degrades badly when domains are
    oversubscribed).  Results are identical either way. *)

val default_jobs : unit -> int
(** [CFPM_JOBS] if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  A malformed value (["4x"],
    ["0"]) falls back to the domain count with a one-time warning on
    stderr. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** Execute every thunk and return the results in submission order.
    [jobs] (clamped to the task count, minimum 1) fixes the worker count;
    [jobs:1] — and any call made from inside a worker — runs inline on
    the calling domain with no domain spawned. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [run ~jobs (List.map (fun x () -> f x) xs)]. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list

(** {1 Fault isolation}

    [run] re-raises the earliest task failure and discards every other
    result — the right default for all-or-nothing computations, and the
    wrong one for a long evaluation run where one hostile circuit should
    cost one table row, not the whole run.  The [_isolated] variants give
    every task its own [result] slot instead. *)

val run_isolated :
  ?jobs:int ->
  ?deadline:float ->
  (unit -> 'a) list ->
  ('a, Guard.Error.t) result list
(** Execute every thunk; a task that raises yields [Error] (classified by
    {!Guard.Error.of_exn}) in its own submission-order slot and the other
    tasks run to completion.  [deadline] (seconds, per task) installs an
    ambient {!Guard.Budget} around each task — measured from task start,
    not submission — which budget-aware callees such as
    [Powermodel.Model.build] enforce cooperatively; a task that exhausts
    it surfaces as [Error] with kind [Resource]. *)

val map_isolated :
  ?jobs:int ->
  ?deadline:float ->
  ('a -> 'b) ->
  'a list ->
  ('b, Guard.Error.t) result list

(** {1 Supervision}

    [run_isolated] turns one crash into one [Error] — but a transiently
    failing task (injected fault, deadline hit under load, OOM-killed
    worker) fails forever, and a long sweep pays for it with a lost row.
    The supervisor layers retry-with-backoff over isolation: transient
    failures heal, poison tasks are {e quarantined} after a bounded
    number of attempts instead of sinking the run, and input errors fail
    fast. *)

module Supervisor : sig
  type policy = {
    max_retries : int;  (** retries {e after} the first attempt *)
    base_backoff_ms : float;
    max_backoff_ms : float;  (** cap on the exponential step *)
  }

  val default_policy : policy
  (** 2 retries, 50 ms base, 2 s cap. *)

  val policy :
    ?max_retries:int -> ?base_backoff_ms:float -> ?max_backoff_ms:float ->
    unit -> policy
  (** Validating constructor ([Invalid_argument] on a negative retry
      count or a non-finite/negative base). *)

  val retryable : Guard.Error.t -> bool
  (** The retry taxonomy: [Resource] and [Internal] errors are
      transient-shaped and retried; [Parse] and [Validation] errors are
      properties of the input and never retried. *)

  val backoff_ms : policy -> key:string -> attempt:int -> float
  (** Delay before retry [attempt + 1]: capped exponential with
      deterministic jitter in [step/2, step), seeded from the task key —
      a pure function, so jobs=1 and jobs=N runs sleep the same schedule
      and produce byte-identical results. *)

  type 'a outcome =
    | Completed of 'a
    | Quarantined of Guard.Error.t
        (** still failing after [max_retries + 1] attempts; the error
            carries an ["attempts"] context entry *)
    | Fatal of Guard.Error.t  (** non-retryable: failed fast *)

  type 'a status = { key : string; outcome : 'a outcome; attempts : int }

  val run :
    ?jobs:int ->
    ?deadline:float ->
    ?policy:policy ->
    ?sleep:(float -> unit) ->
    (string * (unit -> 'a)) list ->
    'a status list
  (** Execute keyed tasks on the pool, each under supervision.  Every
      attempt runs fault-isolated (with the per-task [deadline], as
      {!run_isolated}) and inside [Guard.Fault.with_task ~key ~attempt],
      which (a) keys fault injection deterministically and (b) lets a
      task observe its own attempt index.  The retry loop runs inside
      the task's worker slot, so results keep submission order.
      [sleep] (default [Unix.sleepf]) is a test seam for capturing the
      backoff schedule. *)

  val map :
    ?jobs:int ->
    ?deadline:float ->
    ?policy:policy ->
    ?sleep:(float -> unit) ->
    key:('a -> string) ->
    ('a -> 'b) ->
    'a list ->
    'b status list
end
