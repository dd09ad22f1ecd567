module Metrics = Standoff_obs.Metrics
module Timing = Standoff_util.Timing

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

type reply = {
  status : int;
  headers : (string * string) list;
  content_type : string;
  body : body;
}

and body = Full of string | Stream of stream

and stream = {
  sf : (string -> unit) -> unit;
  on_error : exn -> reply;
}

let text_reply ?(headers = []) status body =
  { status; headers; content_type = "text/plain; charset=utf-8"; body = Full body }

let json_reply ?(headers = []) status body =
  { status; headers; content_type = "application/json"; body = Full body }

let json_error ?headers ?request_id ?(extra = "") status msg =
  let rid =
    match request_id with
    | Some id -> Printf.sprintf ", \"request_id\": \"%s\"" id
    | None -> ""
  in
  json_reply ?headers status
    (Printf.sprintf "{\"error\": \"%s\"%s%s}\n" (Metrics.json_escape msg) rid
       extra)

exception Reply of reply

let fail ?headers status msg = raise (Reply (json_error ?headers status msg))

let bool_param ?(on = []) req name =
  match Http.param req name with
  | None -> None
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "off" | "0" | "false" | "no" -> Some false
      | "on" | "1" | "true" | "yes" -> Some true
      | s when List.mem s on -> Some true
      | _ -> fail 400 (Printf.sprintf "malformed %s=%S" name v))

(* ------------------------------------------------------------------ *)
(* The listener                                                        *)

type route = {
  path : string;
  methods : string list;
  protected : bool;
  handler : Http.request -> reply;
}

let route ?(protected = false) path methods handler =
  { path; methods; protected; handler }

type config = {
  service : string;
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  max_body_bytes : int;
  max_requests_per_connection : int;
  socket_timeout_s : float;
  retry_after_s : int;
  auth_token : string option;
}

type state = Created | Running | Stopping | Stopped

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  (* Self-pipe waking the acceptor out of [select]: closing a listening
     socket does not reliably interrupt a thread already blocked in
     [accept], so the acceptor multiplexes over both. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  bound_port : int;
  mutable routes : route list;
  (* [m] guards the admission queue, the admitted count, the per-worker
     connection slots (so [stop]'s force-shutdown never races a
     worker's own close) and [state]. *)
  m : Mutex.t;
  nonempty : Condition.t;
  queue : Unix.file_descr Queue.t;
  mutable closed : bool;
  mutable admitted : int;  (* queued plus being served *)
  conns : Unix.file_descr option array;
  mutable state : state;
  stopping : bool Atomic.t;
  mutable acceptor : Thread.t option;
  mutable joins : (unit -> unit) list;
  m_connections : Metrics.counter;
  m_shed : Metrics.counter;
  m_queue_depth : Metrics.gauge;
  m_in_flight : Metrics.gauge;
  m_request_seconds : Metrics.histogram;
  m_streamed : Metrics.counter;
  m_stream_truncated : Metrics.counter;
}

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let create cfg =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen fd 128
   with e ->
     close_noerr fd;
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let name s = Printf.sprintf "standoff_%s_%s" cfg.service s in
  {
    cfg;
    listen_fd = fd;
    wake_r;
    wake_w;
    bound_port;
    routes = [];
    m = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    closed = false;
    admitted = 0;
    conns = Array.make cfg.workers None;
    state = Created;
    stopping = Atomic.make false;
    acceptor = None;
    joins = [];
    m_connections =
      Metrics.counter (name "connections_total")
        ~help:"Connections accepted (shed ones included)";
    m_shed =
      Metrics.counter (name "shed_total")
        ~help:"Connections shed with 503 because the admission queue was full";
    m_queue_depth =
      Metrics.gauge (name "queue_depth")
        ~help:"Connections waiting in the admission queue";
    m_in_flight =
      Metrics.gauge (name "in_flight")
        ~help:"Connections currently being served by a worker";
    m_request_seconds =
      Metrics.histogram (name "request_seconds")
        ~buckets:Metrics.duration_buckets
        ~help:"Wall-clock request latency (parse to reply ready)";
    m_streamed =
      Metrics.counter (name "streamed_total")
        ~help:"Responses delivered via chunked streaming";
    m_stream_truncated =
      Metrics.counter (name "stream_truncated_total")
        ~help:
          "Streamed responses aborted mid-body (no terminating chunk was \
           sent)";
  }

let port t = t.bound_port
let stopping t = Atomic.get t.stopping

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let running t =
  locked t (fun () -> match t.state with Running | Stopping -> true | _ -> false)

(* Registration is memoized by (name, labels), so calling this per
   response costs one lock + hashtable hit, not a new metric. *)
let count_response t code =
  Metrics.incr
    (Metrics.counter
       (Printf.sprintf "standoff_%s_requests_total" t.cfg.service)
       ~labels:[ ("code", string_of_int code) ]
       ~help:"Responses by status code")

(* ------------------------------------------------------------------ *)
(* Connection serving                                                  *)

(* Write a reply; returns whether the connection can be kept alive. *)
let rec send_reply t fd ~keep_alive reply =
  match reply.body with
  | Full body ->
      count_response t reply.status;
      Http.write_response fd ~status:reply.status ~headers:reply.headers
        ~content_type:reply.content_type ~keep_alive body;
      keep_alive
  | Stream { sf; on_error } -> (
      let writer = ref None in
      let force_writer () =
        match !writer with
        | Some w -> w
        | None ->
            Http.write_response_head fd ~status:reply.status
              ~headers:reply.headers ~content_type:reply.content_type
              ~keep_alive ();
            let w = Http.chunk_writer fd in
            writer := Some w;
            w
      in
      match sf (fun s -> Http.chunk (force_writer ()) s) with
      | () ->
          (* An empty stream still owes the client a (zero-length)
             chunked body. *)
          Http.chunk_end (force_writer ());
          count_response t reply.status;
          Metrics.incr t.m_streamed;
          keep_alive
      | exception exn -> (
          match !writer with
          | None -> send_reply t fd ~keep_alive (on_error exn)
          | Some _ ->
              count_response t reply.status;
              Metrics.incr t.m_streamed;
              Metrics.incr t.m_stream_truncated;
              (match exn with
              | Unix.Unix_error _ | Http.Closed ->
                  (* The client went away mid-stream; nothing to tell. *)
                  ()
              | exn ->
                  Printf.eprintf "standoff-%s: stream aborted mid-body: %s\n%!"
                    t.cfg.service (Printexc.to_string exn));
              false))

let authorized t (req : Http.request) =
  match t.cfg.auth_token with
  | None -> true
  | Some token -> (
      match Http.bearer_token req.Http.headers with
      | Some presented -> Http.const_time_eq token presented
      | None -> false)

let dispatch t (req : Http.request) =
  match List.find_opt (fun r -> r.path = req.Http.path) t.routes with
  | None -> json_error 404 ("no such endpoint: " ^ req.Http.path)
  | Some r when r.protected && not (authorized t req) ->
      json_error
        ~headers:[ ("WWW-Authenticate", "Bearer") ]
        401 "missing or invalid bearer token"
  | Some r when not (List.mem req.Http.meth r.methods) ->
      json_error
        ~headers:[ ("Allow", String.concat ", " r.methods) ]
        405
        ("method not allowed: " ^ req.Http.meth)
  | Some r -> r.handler req

(* Serve every request a connection carries.  Never closes [fd] — the
   worker owns the close. *)
let serve_connection t fd =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.socket_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.socket_timeout_s;
     (* Streamed replies go out as head + chunks in separate small
        writes; TCP_NODELAY keeps Nagle from stalling each on the
        peer's delayed ACK. *)
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  let reader = Http.reader fd in
  let refuse status msg =
    try ignore (send_reply t fd ~keep_alive:false (json_error status msg))
    with Unix.Unix_error _ -> ()
  in
  let rec loop served =
    match Http.read_request ~max_body:t.cfg.max_body_bytes reader with
    | exception Http.Closed -> ()
    | exception
        Unix.Unix_error
          ((EAGAIN | EWOULDBLOCK | ETIMEDOUT | ECONNRESET | EPIPE | EBADF), _, _)
      ->
        (* Receive timeout or a peer/force-closed socket: there is no
           request to answer. *)
        ()
    | exception Http.Bad_request msg -> refuse 400 msg
    | exception Http.Not_implemented msg -> refuse 501 msg
    | exception Http.Payload_too_large cap ->
        refuse 413 (Printf.sprintf "request body exceeds %d bytes" cap)
    | req -> (
        let served = served + 1 in
        let keep_alive =
          Http.wants_keep_alive req
          && served < t.cfg.max_requests_per_connection
          && not (Atomic.get t.stopping)
        in
        let t0 = Timing.now () in
        let reply =
          try dispatch t req with
          | Reply r -> r
          | Http.Bad_request msg -> json_error 400 msg
          | exn ->
              (* A handler bug must kill the request, not the worker. *)
              Printf.eprintf "standoff-%s: internal error on %s %s: %s\n%!"
                t.cfg.service req.Http.meth req.Http.target
                (Printexc.to_string exn);
              json_error 500 (Printf.sprintf "internal %s error" t.cfg.service)
        in
        Metrics.observe t.m_request_seconds (Timing.now () -. t0);
        match send_reply t fd ~keep_alive reply with
        | true -> loop served
        | false | (exception Unix.Unix_error _) -> ())
  in
  loop 0

(* The 503 the acceptor sends without admitting the connection.  A
   short send timeout keeps a slow-reading client from stalling the
   accept loop. *)
let shed t fd =
  Metrics.incr t.m_shed;
  (try
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
     ignore
       (send_reply t fd ~keep_alive:false
          (json_error
             ~headers:[ ("Retry-After", string_of_int t.cfg.retry_after_s) ]
             503
             (Printf.sprintf "%s overloaded, admission queue full"
                t.cfg.service)))
   with Unix.Unix_error _ -> ());
  close_noerr fd

let admit t fd =
  locked t (fun () ->
      let ok = t.admitted < t.cfg.workers + t.cfg.queue_capacity in
      if ok then begin
        Queue.add fd t.queue;
        t.admitted <- t.admitted + 1;
        Metrics.gauge_set t.m_queue_depth (Queue.length t.queue);
        Condition.signal t.nonempty
      end;
      ok)

let rec accept_loop t =
  if not (Atomic.get t.stopping) then
    match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
    | exception Unix.Unix_error ((EINTR | EAGAIN), _, _) -> accept_loop t
    | exception Unix.Unix_error (EBADF, _, _) -> ()
    | ready, _, _ ->
        if not (List.mem t.wake_r ready) then begin
          (match Unix.accept ~cloexec:true t.listen_fd with
          | exception
              Unix.Unix_error
                ((EBADF | EINVAL | ECONNABORTED | EINTR | EAGAIN), _, _) ->
              ()
          | fd, _ ->
              Metrics.incr t.m_connections;
              if Atomic.get t.stopping then close_noerr fd
              else if not (admit t fd) then shed t fd);
          accept_loop t
        end

(* The next admitted connection, taken into worker [i]'s slot; [None]
   once the queue is closed and empty. *)
let take t i =
  locked t (fun () ->
      while Queue.is_empty t.queue && not t.closed do
        Condition.wait t.nonempty t.m
      done;
      let next = Queue.take_opt t.queue in
      Metrics.gauge_set t.m_queue_depth (Queue.length t.queue);
      t.conns.(i) <- next;
      next)

let release t i fd =
  locked t (fun () ->
      t.conns.(i) <- None;
      t.admitted <- t.admitted - 1;
      close_noerr fd)

let rec worker t i =
  match take t i with
  | None -> ()
  | Some fd ->
      Metrics.gauge_add t.m_in_flight 1;
      (try serve_connection t fd
       with exn ->
         Printf.eprintf "standoff-%s: worker %d: %s\n%!" t.cfg.service i
           (Printexc.to_string exn));
      Metrics.gauge_add t.m_in_flight (-1);
      release t i fd;
      worker t i

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start t ~spawn routes =
  locked t (fun () ->
      if t.state <> Created then
        invalid_arg
          (Printf.sprintf "Listener.start: %s already started" t.cfg.service);
      t.state <- Running);
  (* A peer closing mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  t.routes <- routes;
  t.joins <- List.init t.cfg.workers (fun i -> spawn (fun () -> worker t i));
  t.acceptor <- Some (Thread.create accept_loop t)

let stop t ~grace_s =
  let prev =
    locked t (fun () ->
        let p = t.state in
        (match p with
        | Running -> t.state <- Stopping
        | Created -> t.state <- Stopped
        | Stopping | Stopped -> ());
        p)
  in
  let close_socket () =
    close_noerr t.listen_fd;
    close_noerr t.wake_r;
    close_noerr t.wake_w
  in
  match prev with
  | Stopping | Stopped -> ()
  | Created -> close_socket ()
  | Running ->
      Atomic.set t.stopping true;
      (* Stop accepting: a byte down the self-pipe pops the acceptor out
         of [select]; only then is the listening socket closed. *)
      (try ignore (Unix.write_substring t.wake_w "x" 0 1)
       with Unix.Unix_error _ -> ());
      Option.iter Thread.join t.acceptor;
      close_socket ();
      (* Drain: workers keep serving queued and in-flight connections,
         and exit once the closed queue is empty. *)
      locked t (fun () ->
          t.closed <- true;
          Condition.broadcast t.nonempty);
      let deadline = Timing.now () +. grace_s in
      while locked t (fun () -> t.admitted > 0) && Timing.now () < deadline do
        Thread.delay 0.02
      done;
      (* Grace expired: drop what is still queued and shut down the
         sockets being served.  Their reads see EOF and their writes
         fail, so the workers exit; each still closes its own fd. *)
      locked t (fun () ->
          Queue.iter close_noerr t.queue;
          t.admitted <- t.admitted - Queue.length t.queue;
          Queue.clear t.queue;
          Array.iter
            (Option.iter (fun fd ->
                 try Unix.shutdown fd Unix.SHUTDOWN_ALL
                 with Unix.Unix_error _ -> ()))
            t.conns);
      List.iter (fun join -> join ()) t.joins;
      t.joins <- [];
      locked t (fun () -> t.state <- Stopped)
