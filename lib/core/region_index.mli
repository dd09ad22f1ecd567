(** The region index (paper §4.3): [start|end|id] rows kept clustered
    on [start], the access path of the StandOff merge joins.

    The rows are native [int] columns, MonetDB-BAT style: a sweep
    compares positions without chasing a pointer.  Positions are
    therefore limited to 63 bits (OCaml's [int]); {!Annots} rejects a
    document whose positions do not fit.

    Non-contiguous areas repeat their node id across several rows, one
    per region; [region_rank] says which of the area's regions a row
    carries so that the multi-region containment post-processing can
    count coverage. *)

type t = private {
  starts : int array;
  ends : int array;
  ids : int array;          (** annotation node ids (pre ranks) *)
  region_ranks : int array; (** index of the region within its area *)
}
(** Invariant: rows sorted on [(start asc, end desc, id asc, rank asc)]
    — a total order, so the sorted form of a given row multiset is
    unique regardless of the order the rows arrive in. *)

(** {1 Building} *)

(** [of_rows ~starts ~ends ~ids ~ranks] indexes the rows given as
    parallel columns, in any order; the arrays are not modified.  The
    sort is run-adaptive: it orders an [int] permutation of the rows by
    cutting it into the runs already in order (reversing descending
    ones), then merging neighbouring runs, where stretches coming from
    one run are found by galloping and moved in one copy.  Rows that
    arrive almost in order — annotations in document order nest like
    the tree — cost about one comparison each, and runs that interleave
    in long blocks a few comparisons per block.  The columns are then
    gathered once, through the permutation.
    @raise Invalid_argument if the columns differ in length. *)
val of_rows :
  starts:int array -> ends:int array -> ids:int array -> ranks:int array -> t

(** [build annots] indexes [(id, area)] pairs, one row per region of
    each area, ranked in the area's canonical order ({!of_rows}).
    @raise Invalid_argument if a position does not fit in 63 bits. *)
val build : (int * Standoff_interval.Area.t) list -> t

(** {1 Reading} *)

(** [row_count idx] is the number of region rows. *)
val row_count : t -> int

(** [annotation_ids idx] is the sorted, duplicate-free array of node
    ids appearing in the index. *)
val annotation_ids : t -> int array

(** [restrict idx ~ids] performs the index intersection of §4.3:
    keeps only rows whose id occurs in the sorted array [ids],
    preserving the [start] clustering.  Membership tests use a bitmap
    over the candidate ids (one sweep, O(1) per row). *)
val restrict : t -> ids:int array -> t

(** [region idx row] is the region of row [row]. *)
val region : t -> int -> Standoff_interval.Region.t

(** [pp fmt idx] dumps the rows, for debugging. *)
val pp : Format.formatter -> t -> unit
