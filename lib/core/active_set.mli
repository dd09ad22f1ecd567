(** The set of active context regions maintained by the StandOff merge
    joins, with two interchangeable implementations.

    The sweep needs three operations:
    - [add]: a context region becomes active (subject to the
      single-region per-iteration skip/replace refinements);
    - [trim]: retire regions ending before the sweep position;
    - [iter_end_ge]: visit every active region whose end reaches a
      threshold (the result-emitting scan).

    {b Sorted_list} is the paper's published structure (§4.5, §5): a
    list sorted on [end] descending, trimmed at the tail, with
    deletions possibly in the middle — O(n) worst-case per insertion.

    {b Lazy_heap} is the paper's suggested improvement ("it could be
    beneficial to substitute the stack … by a heap, in
    data-distributions that cause it to grow long"): a max-heap on
    [end] with lazy invalidation backed by the per-iteration table, so
    insertion is O(log n) and the emitting scan visits only the heap's
    qualifying top portion.  Available in single-region mode (where the
    per-iteration table pins the one live region per iteration).

    Both implementations produce identical match sets; the ablation
    benchmark ([bench/main.exe active-set]) shows where they part on
    adversarial overlap distributions. *)

type kind =
  | Sorted_list
  | Lazy_heap

(** [kind_of_string s] parses ["list" | "heap"].
    @raise Invalid_argument otherwise. *)
val kind_of_string : string -> kind

val kind_to_string : kind -> string

type t

(** Trace callbacks, forwarded to the merge join's trace hook. *)
type callbacks = {
  on_add : iter:int -> ctx:int -> unit;
  on_skip : iter:int -> ctx:int -> unit;
  on_replace : iter:int -> removed:int -> by:int -> unit;
  on_trim : iter:int -> ctx:int -> unit;
}

val no_callbacks : callbacks

(** [create kind ~single_region ~callbacks] — [Lazy_heap] requires
    [single_region].
    @raise Invalid_argument on [Lazy_heap] in multi-region mode. *)
val create : kind -> single_region:bool -> callbacks:callbacks -> t

(** [size t] is the number of live active regions. *)
val size : t -> int

(** [add t ~iter ~ctx ~end_] activates a context region.  In
    single-region mode a region covered by its iteration's live region
    is skipped, and a region reaching further replaces it. *)
val add : t -> iter:int -> ctx:int -> end_:int -> unit

(** [trim t ~start] retires every region with [end < start]. *)
val trim : t -> start:int -> unit

(** [iter_end_ge t threshold f] applies [f ~iter ~ctx] to every live
    region with [end >= threshold].  Visit order is unspecified (the
    joins sort matches afterwards); [Sorted_list] happens to visit in
    descending end order, which the Figure 4 trace relies on. *)
val iter_end_ge : t -> int -> (iter:int -> ctx:int -> unit) -> unit

(** [iter_all t f] applies [f] to every live region (the overlap sweep
    emits against all active regions). *)
val iter_all : t -> (iter:int -> ctx:int -> unit) -> unit

(** [covered t ~iter ~end_] — single-region mode: does the iteration's
    live region already reach [end_]?  (Exposed for the wide sweep's
    skip decision.)  Always [false] in multi-region mode. *)
val covered : t -> iter:int -> end_:int -> bool
