(** The XMark queries of the paper's evaluation (§4.6): Q1, Q2, Q6 and
    Q7, each in the original form (child/descendant steps, for the
    un-transformed document) and in the StandOff form of Figure 5
    (steps replaced by [select-narrow::], for the transformed
    document). *)

type query = {
  id : string;          (** "Q1" … "Q7" *)
  description : string; (** what the query asks, from the XMark suite *)
  standard : string -> string;
      (** standard form, parameterized by document name *)
  standoff : string -> string;
      (** StandOff form, parameterized by document name *)
}

(** [q1], [q2], [q6], [q7] — the four queries of Figure 6. *)
val q1 : query

val q2 : query
val q6 : query
val q7 : query

(** [all] in paper order. *)
val all : query list

(** [a1] — not in the paper: a single-auction lookup (one
    [open_auction] by [@id], then its first bidder's increase), the
    serving benchmark's second point request.  Not in {!all}. *)
val a1 : query

(** [find id] looks a query up by its id (case-insensitive).
    @raise Not_found on unknown ids. *)
val find : string -> query

(** Further XMark queries in their original (tree-step) form — not part
    of the paper's evaluation, but useful for exercising the engine on
    the standard document: positional comparisons (Q3), value
    predicates (Q5), value joins (Q8), full-text-ish filters (Q14),
    existence tests (Q17) and aggregation (Q20). *)
type extended_query = {
  ext_id : string;
  ext_description : string;
  ext_standard : string -> string;
}

val extended : extended_query list
