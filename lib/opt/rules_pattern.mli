(** The pattern-aware heuristic rules of the RBO (paper §6.1).

    - {!filter_into_pattern}: push SELECT predicates that target a single
      pattern element into that element, so constraints apply during
      matching instead of after it.
    - {!join_to_pattern}: fuse [JOIN(MATCH p1, MATCH p2)] into a single
      MATCH when the join keys are exactly the shared pattern vertices
      (sound under homomorphism semantics, Remark 3.1).
    - {!com_sub_pattern}: factor the common subpattern out of the two
      branches of a UNION, matching it once and continuing each branch from
      its bindings.
    - {!pattern_probe}: turn a single-edge pattern predicate
      [WHERE [NOT] (a)-[:T]-(b)] over already-bound vertices from a
      semi/anti hash join into an adjacency-probe filter (graph-native, in
      the spirit of the paper's rules; not one of its four).
    - {!field_trim} (a whole-plan pass rather than a local rule): drop
      fields as soon as they are no longer referenced, inserting PROJECTs
      after pattern matches and annotating pattern vertices with the
      property columns actually used. *)

val filter_into_pattern : Rule.t
val join_to_pattern : Rule.t
val com_sub_pattern : Rule.t

val pattern_probe : Rule.t
(** [Join {kind = Semi | Anti; right = Match p}] becomes
    [Select (left, [NOT] Adjacent {src; dst; con; directed})] when [p] is a
    single-hop edge with no edge predicate, its two distinct endpoints are
    exactly the join keys, and neither endpoint adds a predicate or a type
    constraint beyond what [left] binds. The result is the same bag of rows,
    null endpoints under OPTIONAL MATCH included. *)

val field_trim : Gopt_gir.Logical.t -> Gopt_gir.Logical.t
(** Top-down needed-fields analysis; inserts trimming PROJECT operators and
    sets [v_columns] on pattern vertices. *)

val all : Rule.t list
(** The four local rules, in recommended order. *)
