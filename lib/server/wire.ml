(* Line-oriented socket I/O shared by the solver service (both sides)
   and the cluster tier: one JSONL line out, one line back, over a raw
   file descriptor with an explicit residue buffer.

   Channels (in_channel/out_channel) are deliberately avoided: a pooled
   connection moves between handler threads, the timeout behaviour
   (EAGAIN from SO_RCVTIMEO) must stay catchable instead of corrupting
   a buffered channel, and — crucially — the systhreads tick signal
   (SIGVTALRM) interrupts blocking syscalls. OCaml signal handlers are
   installed without SA_RESTART, so every read/write here retries
   EINTR: an interrupted syscall is not a dead peer. The channel-based
   code this replaces surfaced EINTR as [Sys_error] and treated it as a
   disconnect. *)

(* The residue lives in [buf.[start, stop)]; [scanned] marks how far it
   is known to hold no newline, so each byte is searched once however
   many reads a long line takes. The buffer grows by doubling and is
   compacted only when its free tail runs short: reading an n-byte line
   costs O(n). *)
type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable scanned : int;
}

exception Timeout
exception Closed

let min_read = 4096

(* A buffer grown by one huge line is given back once it drains. *)
let max_idle_capacity = 65536

let of_fd fd =
  { fd; buf = Bytes.create min_read; start = 0; stop = 0; scanned = 0 }

let fd conn = conn.fd
let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let write_line conn line =
  let payload = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length payload in
  let rec push off =
    if off < len then begin
      (* single_write, not write: [Unix.write] loops over internal
         chunks and can raise EINTR after SOME chunks already hit the
         socket, so retrying from [off] would duplicate bytes on the
         wire. [single_write] issues exactly one write(2), making
         "EINTR => nothing was written" actually hold. *)
      match Unix.single_write conn.fd payload off (len - off) with
      | 0 -> raise Closed
      | n -> push (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          (* the systhreads tick signal interrupts blocking syscalls;
             an interrupted write is not a dead peer *)
          push off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          raise Timeout
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          raise Closed
    end
  in
  push 0

(* Make room for at least [min_read] bytes after [stop]. *)
let reserve conn =
  if Bytes.length conn.buf - conn.stop < min_read then begin
    let live = conn.stop - conn.start in
    let target =
      if live + min_read <= Bytes.length conn.buf then conn.buf
      else Bytes.create (max (2 * Bytes.length conn.buf) (live + min_read))
    in
    Bytes.blit conn.buf conn.start target 0 live;
    conn.buf <- target;
    conn.scanned <- conn.scanned - conn.start;
    conn.start <- 0;
    conn.stop <- live
  end

(* Pop the first complete line of the residue, if any. *)
let take_line conn =
  let rec find i =
    if i >= conn.stop then None
    else if Bytes.get conn.buf i = '\n' then Some i
    else find (i + 1)
  in
  match find conn.scanned with
  | None ->
      conn.scanned <- conn.stop;
      None
  | Some i ->
      let line = Bytes.sub_string conn.buf conn.start (i - conn.start) in
      conn.start <- i + 1;
      conn.scanned <- i + 1;
      if conn.start = conn.stop then begin
        if Bytes.length conn.buf > max_idle_capacity then
          conn.buf <- Bytes.create min_read;
        conn.start <- 0;
        conn.stop <- 0;
        conn.scanned <- 0
      end;
      Some line

let read_line conn =
  let rec fill () =
    match take_line conn with
    | Some line -> line
    | None -> begin
        reserve conn;
        match
          Unix.read conn.fd conn.buf conn.stop
            (Bytes.length conn.buf - conn.stop)
        with
        | 0 -> raise Closed
        | n ->
            conn.stop <- conn.stop + n;
            fill ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Closed
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            raise Timeout
      end
  in
  fill ()

(* One lockstep exchange; any transport failure is an [Error]. *)
let exchange conn line =
  match
    write_line conn line;
    read_line conn
  with
  | response -> Ok response
  | exception Timeout -> Error "timed out waiting for the response"
  | exception Closed -> Error "connection closed"
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
