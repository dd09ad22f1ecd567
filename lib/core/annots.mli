(** Extraction of area-annotations from a shredded document, under a
    given {!Config} (paper §2).

    In the attribute representation, an element is an area-annotation
    when it carries both the start and the end attribute; in the
    element representation, when it has at least one region child
    element.  Descendants of an area-annotation may freely be
    area-annotations themselves, with no containment restriction. *)

exception Invalid_region of { pre : int; msg : string }
(** Raised when an element has region markup that cannot be
    interpreted — one of the two names missing, a position that is not
    an integer, a position that does not fit in 63 bits (the region
    index keeps native [int] columns), or [start > end]. *)

type restricted_cache
(** A small LRU ({!Standoff_cache.Lru}) of candidate restrictions,
    keyed structurally on the candidate id array — structurally equal
    candidate sets from separate [prepare] calls hit, and the bound
    keeps it from growing without limit.  Safe to share across domains
    (the lock is held under [Fun.protect], so exception paths cannot
    poison it); hit/miss/eviction counts are exported as
    [standoff_cache_*{cache="restricted"}]. *)

type t = private {
  doc : Standoff_store.Doc.t;
  ids : int array;  (** area-annotation pres, sorted *)
  first_row : int array;
      (** length [|ids| + 1]: the regions of annotation [ids.(i)] are
          the table rows [first_row.(i) .. first_row.(i+1) - 1] *)
  starts : int array;
      (** the annotation table: one row per region, in (pre, rank)
          order — each area's canonical regions, sorted on start *)
  ends : int array;  (** parallel to [starts] *)
  index : Region_index.t;  (** the same rows, in index order *)
  max_regions_per_area : int;
      (** [1] enables the single-region fast paths of the joins *)
  restricted_cache : restricted_cache;
}
(** Positions are native [int]s; {!area_of} boxes an area's regions
    only when asked. *)

(** [extract config doc] scans the document once and builds the
    annotation table and the region index in the same pass.  In the
    attribute representation the start/end names are resolved to
    interned ids once per document, and plain decimal positions parse
    without allocating.  Both representations append each annotation's
    regions to the same int columns of the table, which
    {!Region_index.of_rows} then sorts into the index (run-adaptive:
    about one comparison per row on annotations that nest like the
    tree).
    @raise Invalid_region on malformed region markup. *)
val extract : Config.t -> Standoff_store.Doc.t -> t

(** [position_of_string ~pre ~what s] is the position [s] denotes:
    [Int64.of_string_opt (String.trim s)], narrowed to a native [int].
    Plain decimal strings of up to 18 digits take an allocation-free
    fast path with the same result.
    @raise Invalid_region (on node [pre], naming the [what] end) when
    [s] is not an integer, or when it does not fit in 63 bits. *)
val position_of_string : pre:int -> what:string -> string -> int

(** [annotation_count t] is the number of area-annotations. *)
val annotation_count : t -> int

(** [area_of t pre] is the area of annotation [pre], if [pre] is an
    area-annotation (built from the table on each call). *)
val area_of : t -> int -> Standoff_interval.Area.t option

(** [area_at t i] is the area of annotation [ids.(i)]. *)
val area_at : t -> int -> Standoff_interval.Area.t

(** [region_count t pre] is the number of regions of annotation
    [pre]; [0] when [pre] is not an area-annotation. *)
val region_count : t -> int -> int

(** [iter_regions t pre f] applies [f] to each region of annotation
    [pre], in canonical order (none when [pre] is not an
    area-annotation) — the table's positions, unboxed. *)
val iter_regions : t -> int -> (start:int -> end_:int -> unit) -> unit

(** [is_annotation t pre] tests membership in constant-ish time
    (binary search). *)
val is_annotation : t -> int -> bool

(** [restrict_ids t ~candidates] intersects the sorted candidate pre
    array with the annotation ids, returning the sorted pres that are
    both candidates and area-annotations. *)
val restrict_ids : t -> candidates:int array -> int array

(** [candidate_index ?trace t ~candidates] is the §4.3 candidate
    sequence: the region index restricted to [candidates] ([None] means
    the entire index).  Built from the candidate side — the candidates'
    rows are gathered from the annotation table's columns and sorted by
    {!Region_index.of_rows}, as ordered on arrival as the table's own
    since candidates come in document order — and cached per candidate
    set (structural key, small LRU), so a loop-lifted query pays for it
    once.  [cache:false] (default [true]) neither consults nor fills
    the LRU: one-off candidate sets (a value-index probe's few hits)
    must not evict the name-restricted indexes repeat queries reuse.
    A build (a cache miss) runs under an ["index-build"] span of
    [trace] with attributes [index = "restricted"], [mode = "warm"]
    (derived from an already built table) and [rows]. *)
val candidate_index :
  ?trace:Standoff_obs.Trace.t ->
  ?cache:bool ->
  t ->
  candidates:int array option ->
  Region_index.t

(** [candidate_index_scan t ~candidates] is the same restriction
    computed the way the paper's pre-loop-lifting engine computes it on
    {e every} invocation: one full scan of the region index,
    intersecting on node id (§4.3).  The per-iteration strategies use
    this — "repeated full scans of the region index" is precisely why
    Basic StandOff MergeJoin does not finish XMark Q2 (§4.6). *)
val candidate_index_scan : t -> candidates:int array option -> Region_index.t
