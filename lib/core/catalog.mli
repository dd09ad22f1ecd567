(** Per-document annotation catalogues.

    The region index is part of the document's stored representation
    in the paper ("we added a region index to the relational
    representation of XML documents", §4.3).  This module gives each
    (document, configuration) pair exactly one extracted
    {!Annots.t}, built on first use. *)

type t

(** [create ()] is an empty catalogue. *)
val create : unit -> t

(** [annots ?trace cat config doc] is the cached annotation table of
    [doc] under [config], extracting it on first request.  Lookups and
    inserts are mutex-protected (extraction itself runs outside the
    lock), so the catalogue may be shared across pool domains.  An
    extraction runs under an ["index-build"] span of [trace] with
    attributes [index = "annotations"], [mode = "cold"] and [rows]
    (region-index rows built). *)
val annots :
  ?trace:Standoff_obs.Trace.t -> t -> Config.t -> Standoff_store.Doc.t -> Annots.t

(** [invalidate cat doc] drops cached entries for [doc] (all
    configurations) and bumps both [doc]'s generation counter and the
    catalogue-wide {!version}.  Every in-place mutation
    ([Update.set_region], [Update.shift_annotations]) ends here, which
    is what makes generation-stamped caches update-safe: a result
    cached before the update carries an older version stamp and can
    never be served again. *)
val invalidate : t -> Standoff_store.Doc.t -> unit

(** [bump cat] advances the catalogue-wide version without touching
    any per-document entry or generation — the right invalidation for
    a change to the *document set* (bulk ingestion): new documents
    have no cached state to expire, existing documents' caches stay
    warm, and the single version bump expires whole-collection results
    exactly once per batch. *)
val bump : t -> unit

(** [generation cat name] is the number of times the document called
    [name] has been invalidated.  Monotonic; [0] for never-invalidated
    (including unknown) names, and the counter survives the cached
    entries — invalidation must outlive the rebuild. *)
val generation : t -> string -> int

(** [version cat] is the catalogue-wide invalidation counter: the sum
    of every per-document generation bump.  Monotonic, so two equal
    readings bracket an interval with no invalidation at all — the
    stamp the engine's result cache uses. *)
val version : t -> int
