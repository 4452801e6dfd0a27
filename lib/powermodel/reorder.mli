(** Variable-order policies for model construction.

    The model's diagrams are built over interleaved transition variables
    ([x_j_initial = 2j], [x_j_final = 2j + 1]); {!Dd.Markov},
    {!Dd.Add.shift} and the sensitivity queries all rely on a pair
    [(2j, 2j + 1)] being level-adjacent.  Every policy here therefore
    permutes whole {e input pairs} and never splits one.

    - [Declared]: the circuit's declared input order (the historic
      behavior, and the default).
    - [Info_static]: a static order from a structural information
      measure computed on the netlist before any diagram exists.
    - [Sift]: pair-grouped sifting ({!Dd.Add.sift}) of the built model.
    - [Info_then_sift]: the static order as a starting point, then a
      sifting pass.

    Whatever the policy, {!Model.build} produces the {e same function}:
    power estimates are byte-identical across policies; only diagram
    shapes, sizes and build times differ. *)

type policy = Declared | Info_static | Sift | Info_then_sift

val all : policy list

val to_string : policy -> string
(** ["declared"] / ["info"] / ["sift"] / ["info+sift"]. *)

val of_string : string -> policy option
(** Inverse of {!to_string} (case-insensitive; also accepts a few
    spelling variants such as ["info_then_sift"]). *)

val set_policy : policy -> unit
(** Process-wide override, as set by [cfpm --order]. *)

val ambient : unit -> policy
(** The ambient policy: the {!set_policy} override if any, else
    [Declared]. *)

val info_pair_order : Netlist.Circuit.t -> int array
(** [info_pair_order c] ranks the primary inputs by the structural
    information measure (descending; ties by declared index): slot [k]
    holds the input to place at pair level [k].  One topological pass —
    no diagrams are built.  Deterministic. *)

val order : inputs:int -> int array -> int array
(** [order ~inputs pair_order] expands a pair order into the
    level-to-variable order over the [2 * inputs] transition variables:
    level [2k] holds variable [2 * pair_order.(k)], level [2k + 1] its
    final-copy partner.  Raises [Invalid_argument] on a length
    mismatch. *)
