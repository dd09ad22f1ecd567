(** Rule-based rewriter over {!Plan.t}.

    A single bottom-up pass applies constant folding, attribute-value
    pushdown ([E\[@a = "literal"\]] becomes a {!Plan.value_test}
    restriction of the name-tested StandOff join, DataGuide path
    lookup or child/descendant step producing [E]), step/filter fusion
    (positional and [self::name] predicates), node-test pushdown into
    StandOff-join candidate sets (paper §4.3), and strategy pinning.
    All rewrites are result-preserving. *)

(** Collection statistics consulted by the pushdown rule and the cost
    model. *)
type stats = {
  st_annotations : unit -> int;
      (** total area-annotations across the collection *)
  st_named : string -> int;  (** total elements with this name *)
  st_path : (bool * string) list -> int;
      (** elements a collapsed child/descendant path reaches — the
          DataGuide's per-path cardinality when guides are on, the
          final step's name count otherwise *)
}

(** Statistics that report zero everywhere; pushdown then always
    fires (restricting a candidate index can only shrink it). *)
val no_stats : stats

(** [collection_stats ?dataguide coll catalog config] derives lazy
    statistics from the collection's cached {!Standoff.Annots} tables.
    With [dataguide:true], [st_path] answers from each document's
    strong DataGuide ({!Standoff_store.Dataguide}), built lazily at
    the document's current catalogue generation.  Documents whose
    region markup is invalid under [config] contribute nothing (the
    error still surfaces when a query touches them).  Annotation
    tables and DataGuides built on first use run under ["index-build"]
    spans of [trace] ({!Standoff.Catalog.annots},
    {!Standoff_store.Dataguide.get}). *)
val collection_stats :
  ?dataguide:bool ->
  ?trace:Standoff_obs.Trace.t ->
  Standoff_store.Collection.t ->
  Standoff.Catalog.t ->
  Standoff.Config.t ->
  stats

(** [optimize ?pin_strategy ?stats ?dataguide p] is the rewritten
    plan.  [pin_strategy] forces every StandOff operator to that
    strategy (engine-wide override); absent, operators keep their
    {!Plan.strategy_choice}.  With [dataguide:true] (default [false]),
    consecutive child/descendant name steps rooted at a document-node
    source ([doc(…)], the leading-[/] [root(…)]) collapse into a
    single {!Plan.desc.Path_lookup} answered by the DataGuide; results
    are byte-identical either way. *)
val optimize :
  ?pin_strategy:Standoff.Config.strategy ->
  ?stats:stats ->
  ?dataguide:bool ->
  Plan.t ->
  Plan.t

(** [estimate_cost ~stats p] is a coarse work estimate for evaluating
    [p], in rows touched: per StandOff join, the candidate-set size
    its merge sweep scans (named-element count under pushdown, the
    whole annotation population otherwise); per named axis step, the
    matching-element count.  A value-restricted operator counts only
    its context side: it reads its index hits, not the named
    population, and no index is built to estimate them.  The engine's adaptive parallelism choice
    thresholds on it — cheap requests run sequential and leave domains
    to concurrent requests. *)
val estimate_cost : stats:stats -> Plan.t -> int
