(* The cluster tier's line-oriented socket I/O is the solver service's
   shared helper ({!Mrm_server.Wire}) — one EINTR-retrying
   implementation on both sides of the wire — plus endpoint dialing
   with an optional send/receive deadline. *)

include Mrm_server.Wire

let connect ?timeout endpoint =
  of_fd (Mrm_server.Client.connect ?timeout endpoint)
