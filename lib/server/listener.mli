(** The serving skeleton shared by {!Server} and the shard router: an
    HTTP/1.1 listener that owns everything about a connection except
    what a request means.

    - {b Admission.}  One acceptor thread hands accepted connections
      to a bounded queue feeding a fixed set of workers.  At most
      [workers + queue_capacity] connections are admitted at once;
      past that the acceptor sheds the connection itself with [503]
      and [Retry-After], without queueing it.
    - {b Connections.}  A worker serves every request a connection
      carries (keep-alive, bounded by [max_requests_per_connection]),
      with [socket_timeout_s] receive/send timeouts.  Malformed
      requests answer [400], oversized bodies [413], chunked request
      bodies [501]; each closes the connection.
    - {b Dispatch.}  A request is matched against the route table by
      path: no route answers [404]; a [protected] route without the
      configured bearer token answers [401] with
      [WWW-Authenticate: Bearer] (constant-time compare); a method the
      route does not list answers [405] with [Allow] naming the ones
      it does.  A handler raising {!Reply} answers that reply; any
      other exception is logged and answers [500].
    - {b Replies.}  A {!Full} body goes out with [Content-Length].  A
      {!Stream} body commits to chunked transfer encoding lazily, on
      its first emitted byte: a producer failing before then answers
      the buffered reply its [on_error] gives; one failing after it
      ends the body without the terminating chunk — the truncation
      signal — and closes the connection.
    - {b Shutdown.}  {!stop} stops accepting, lets the workers drain
      queued and in-flight connections (keep-alive replies now say
      [Connection: close]) up to a grace period, then shuts down the
      sockets still open and joins every worker.

    Metrics are per service, named [standoff_<service>_…]: connections
    accepted, shed, queue depth, connections in flight, request
    latency, responses by status code, streamed and truncated
    responses. *)

type reply = {
  status : int;
  headers : (string * string) list;
  content_type : string;
  body : body;
}

and body = Full of string | Stream of stream

and stream = {
  sf : (string -> unit) -> unit;
      (** the producer: calls its argument with each piece of the body *)
  on_error : exn -> reply;
      (** maps a failure before the first emitted byte to a reply; must
          be total and return a {!Full} body *)
}

val text_reply : ?headers:(string * string) list -> int -> string -> reply
val json_reply : ?headers:(string * string) list -> int -> string -> reply

(** [json_error status msg] is [{"error": msg}]; [request_id] adds a
    ["request_id"] member and [extra] is spliced in verbatim after it
    (it must start with [", "]). *)
val json_error :
  ?headers:(string * string) list ->
  ?request_id:string ->
  ?extra:string ->
  int ->
  string ->
  reply

(** [close_noerr fd] closes [fd], ignoring any error. *)
val close_noerr : Unix.file_descr -> unit

(** A handler's early exit: the listener answers the carried reply. *)
exception Reply of reply

(** [fail ?headers status msg] raises {!Reply} with {!json_error}. *)
val fail : ?headers:(string * string) list -> int -> string -> 'a

(** [bool_param ?on req name] reads an on/off query parameter: [None]
    when absent; ["on"], ["1"], ["true"], ["yes"] (and the extra
    spellings in [on]) are [Some true]; ["off"], ["0"], ["false"],
    ["no"] are [Some false]; case and surrounding blanks are ignored.
    @raise Reply (a [400]) on any other value. *)
val bool_param : ?on:string list -> Http.request -> string -> bool option

type route = {
  path : string;
  methods : string list;  (** also the [Allow] list of a [405] *)
  protected : bool;  (** behind the bearer token, when one is set *)
  handler : Http.request -> reply;
}

val route :
  ?protected:bool -> string -> string list -> (Http.request -> reply) -> route

type config = {
  service : string;
      (** ["server"], ["router"]: the metric-name infix and log tag *)
  host : string;
  port : int;  (** [0] picks an ephemeral port *)
  workers : int;  (** at least 1 *)
  queue_capacity : int;
      (** connections admitted beyond the busy workers; [0] admits
          only as many as there are workers *)
  max_body_bytes : int;
  max_requests_per_connection : int;
  socket_timeout_s : float;
  retry_after_s : int;  (** the [Retry-After] of a shed [503] *)
  auth_token : string option;
}

type t

(** [create config] binds and listens, so {!port} is known; nothing is
    served until {!start}.
    @raise Unix.Unix_error when binding fails. *)
val create : config -> t

val port : t -> int

(** [start t ~spawn routes] starts the acceptor and [config.workers]
    workers, each by [spawn run], which must run [run ()] on a fresh
    domain or thread and return the function that joins it.
    @raise Invalid_argument if [t] was already started. *)
val start : t -> spawn:((unit -> unit) -> unit -> unit) -> route list -> unit

(** Whether {!stop} has begun (the drain, or after). *)
val stopping : t -> bool

(** Whether {!start} has run and {!stop} has not completed. *)
val running : t -> bool

(** [stop t ~grace_s] drains and shuts down as described above; blocks
    until every worker has been joined.  On a listener never started it
    just closes the socket.  Idempotent. *)
val stop : t -> grace_s:float -> unit
