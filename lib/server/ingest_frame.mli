(** The framing of a bulk-ingest body ([POST /ingest] without
    [?name=]): a sequence of frames, each a header line
    [<name> <decimal-length>] followed by exactly [length] payload
    bytes, with whitespace between frames skipped.  One codec for the
    server (which parses the parts), the router (which splits a batch
    per shard and rebuilds the sub-batches verbatim), the bench and
    the tests. *)

(** The only exception {!scan} raises on a hostile or truncated body;
    the message is the client-facing diagnosis (a 400 on either
    service). *)
exception Malformed of string

(** [scan body on_part] calls [on_part name payload] for every frame of
    [body], in order, as each is reached.
    @raise Malformed on an empty body, a header line without a newline
    or without a non-empty name and a non-negative length, or a
    payload running past the end of [body]. *)
val scan : string -> (string -> string -> unit) -> unit

(** [add buf name payload] appends one frame.  [name] must be
    non-empty, free of newlines and free of surrounding whitespace —
    the names {!scan} gives back unchanged.
    @raise Invalid_argument otherwise. *)
val add : Buffer.t -> string -> string -> unit

(** [encode parts] is the body {!scan} turns back into [parts]. *)
val encode : (string * string) list -> string
