(** Attribute-value index: answers [\[@a = "literal"\]] by seeking.

    For one interned attribute name the index is a permutation of that
    name's rows of the attribute table, sorted by (value hash, owner
    pre), with the hashes alongside ({!Doc.value_index}).  A
    probe is a binary search on the hashes and returns the owners of
    the rows whose value is equal, ascending.

    Indexes build lazily per (document, attribute name) on first
    probe, under the document's own index lock (double-checked
    publication, like {!Dataguide.get}).  Updates rewrite attribute
    values in place ([Update.set_region], [Update.shift_annotations]),
    so every index is stamped with the caller's catalogue generation
    and {!get} rebuilds on mismatch. *)

(** [get ?trace ~generation d name] is [d]'s value index of attribute
    [name]: the cached one when its stamp matches [generation], else a
    fresh build published under the document's index lock.  A build
    runs under an ["index-build"] span of [trace] ([index =
    "attr-value"], [mode = "cold"], [rows] = the name's attribute
    rows).  A name the document never
    uses yields an empty index; nothing is built or cached. *)
val get :
  ?trace:Standoff_obs.Trace.t -> generation:int -> Doc.t -> string -> Doc.value_index

(** [probe d vi value] is the sorted, duplicate-free array of pres of
    the elements whose attribute (the one [vi] indexes) equals [value]
    as a string — the semantics of the general comparison
    [@a = "value"] on untyped attribute data. *)
val probe : Doc.t -> Doc.value_index -> string -> int array
