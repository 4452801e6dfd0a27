(** Graphviz DOT export of ADDs (Fig. 3-style pictures).

    High cofactors are drawn with solid edges, low cofactors with dashed
    edges, matching the paper's figures. *)

val add : ?name:string -> ?var_name:(int -> string) -> Add.t -> string
(** DOT source for an ADD; leaves are rendered as boxed values.
    [var_name] labels variable indices (defaults to ["x<i>"]). *)
