(** The flat view every analytic pass over a diagram runs on: the paper's
    Eq. 5–8 statistics, and exact node masses and conditional moments of
    a transition ADD under Markov input statistics.

    The collapse criterion of {!Approx} must decide how much damage
    replacing a sub-ADD by a constant does.  Under the uniform measure the
    near-diagonal region (transitions with few toggles) has vanishing mass,
    yet it is exactly where evaluation concentrates when the input toggle
    rate is low — so a uniform-mass criterion silently sacrifices low-[st]
    accuracy.  This module computes, {e analytically}, each node's reach
    probability and conditional subfunction moments under any [(sp, st)]
    stimulus statistics, so that the collapse can be made robust across a
    family of statistics while remaining characterization-free (no
    simulation anywhere).

    Variables are assumed to follow the interleaved transition convention
    (variable [2j] = input [j] at [t_i], variable [2j+1] = input [j] at
    [t_f]); the one-variable dependency between the two copies is threaded
    through the reduced DAG as a "pending partner" context. *)

type statistics = { sp : float; st : float }

val uniform : statistics

val default_anchors : statistics list
(** The family of statistics the robust collapse criterion guards: a spread
    of toggle rates at [sp = 0.5] plus skewed signal probabilities. *)

val p_toggle_given : initial:bool -> statistics -> float
(** Markov toggle probability conditioned on the initial value; [0] when
    [st = 0]. *)

(** {1 Flat view} *)

type view = {
  nodes : Add.t array;  (** parents-first; [nodes.(0)] is the root *)
  var : int array;  (** [-1] for leaves *)
  low : int array;  (** child indices; [-1] for leaves *)
  high : int array;
  leaf_value : float array;  (** meaningful where [var = -1] *)
  low_slot : int array;
      (** [3 * low + ctx]: the Markov-pass slot of the low child in the
          context it is reached in from this node; [-1] for leaves *)
  high_slot : int array;
}

val view : Add.manager -> Add.t -> view
(** [view m root] is every node reachable from [root], once, in
    parents-first topological order: post-order with the low child
    before the high one, reversed, so [nodes.(0)] is the root and every
    child sits after all its parents.  Numbered on [m]'s visit stamps
    ({!Add.topo}); [root] must live in [m], and like {!Add.size_in} the
    call writes [m]'s stamps, so calls on one manager from several
    domains must be serialized.  The per-node passes below return arrays
    indexed like [nodes]. *)

(** {1 Uniform statistics (Eq. 5–8)} *)

type summary = {
  avg : float array;  (** uniform-input average of the sub-function (Eq. 6) *)
  variance : float array;  (** uniform-input variance (Eq. 5) *)
  min : float array;  (** smallest terminal value of the sub-function *)
  max : float array;  (** largest terminal value of the sub-function *)
}

val summary : view -> summary
(** One bottom-up pass of the Eq. 7 recursion (leaves have [avg = value],
    [variance = 0]). *)

val mse_upper : summary -> int -> float
(** Mean square error incurred by replacing node [i]'s sub-function with
    its maximum (Eq. 8): [variance + (max - avg)^2]. *)

val mse_lower : summary -> int -> float
(** Symmetric quantity for lower bounds: [variance + (min - avg)^2]. *)

(** {1 Markov passes}

    Per node and pending-partner context, at index [3 * i + ctx]; context
    [0] is "no pending partner", the root's context. *)

val moments : view -> statistics -> float array * float array
(** Bottom-up: [(E[f | reach], E[f^2 | reach])] of every node's
    subfunction in every context.  The root is reached with mass 1 in
    context 0, so its expectation under the statistics is
    [(fst (moments v s)).(0)]. *)

val masses : view -> statistics -> float array
(** Top-down: reach probability of every node in every context (the root
    has mass 1 in context 0). *)

val moments_into : view -> statistics -> float array -> float array -> unit
(** [moments_into v s m1 m2] is {!moments} written into caller-owned
    arrays of length [3 * Array.length v.nodes], bit for bit. *)

val masses_into : view -> statistics -> float array -> unit
(** {!masses} written into a caller-owned array of length
    [3 * Array.length v.nodes], bit for bit. *)

type rows = { m : float array; e1 : float array; e2 : float array }
(** Per-node context mixes, written at an offset so one set of arrays can
    hold several statistics' rows. *)

val mixed_into :
  view -> summary -> float array -> float array -> float array -> rows ->
  int -> unit
(** [mixed_into v s mass m1 m2 rows o], over the arrays of {!masses_into}
    and {!moments_into}, writes every node [i]'s
    [(mass, E[f | reach], E[f^2 | reach])], mixing its contexts by their
    masses, at index [o + i] of [rows.m], [rows.e1] and [rows.e2].  An
    unreached node gets zero mass and its uniform moments from [s]:
    [avg] and [variance + avg^2]. *)
