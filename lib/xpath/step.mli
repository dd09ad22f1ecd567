(** Loop-lifted XPath steps over sequence tables.

    A step takes the [iter|pos|item] table of context nodes (as left by
    the previous step or FLWOR binding) and produces the result table,
    duplicate-free and in document order per iteration.  Contexts that
    span several documents are partitioned per document first — steps
    never match across fragments. *)

(** Raised when a context item is not a node. *)
exception Not_a_node of Standoff_relalg.Item.t

(** [positional t k] keeps the [k]-th row of every iteration group of
    [t] — the fused form of a literal positional predicate over a
    step result (which is duplicate-free and in document order per
    iteration, so group row rank is the XPath position). *)
val positional : Standoff_relalg.Table.t -> int -> Standoff_relalg.Table.t

(** [axis_step coll axis ?position ?within ~test context] evaluates a
    standard axis step; [position] is a fused positional predicate
    applied to the result.  [within doc], when given, is a sorted pre
    array the result is restricted to in each document (before
    [position]) — an attribute-value index's hits.  Child and
    descendant steps with no more hits than context rows are answered
    from the hits (a parent or ancestor check per hit); otherwise the
    step runs and drops the rows that are not hits.  Either way no item
    is built for a dropped row.  Attribute items in the context
    contribute only to the [Parent] axis (their owner element); they
    have no descendants or siblings. *)
val axis_step :
  Standoff_store.Collection.t ->
  Axes.axis ->
  ?position:int ->
  ?within:(Standoff_store.Doc.t -> int array) ->
  test:Node_test.t ->
  Standoff_relalg.Table.t ->
  Standoff_relalg.Table.t

(** [attribute_step coll ~test context] evaluates [attribute::test],
    producing [Attribute] items in attribute-name order per owner. *)
val attribute_step :
  Standoff_store.Collection.t ->
  test:Node_test.t ->
  Standoff_relalg.Table.t ->
  Standoff_relalg.Table.t
