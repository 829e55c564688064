(* The open-loop load generator: sends each request over its connection
   when its scheduled time comes, whatever the daemon is doing, and times
   it from that scheduled time to its response, so a stall is charged to
   every request it delays. It also records how late each send was. *)

module Client = Genie_net.Client
module Codec = Genie_net.Codec

type result = {
  responses : Codec.wire_response array;  (** indexed by request id *)
  latency_ms : float array;  (** scheduled send to response received *)
  send_lag_ms : float array;  (** actual send minus scheduled send *)
  elapsed_s : float;  (** first scheduled send to last response *)
}

(* Send offsets in seconds for [n] requests at [rate] requests per second,
   evenly spaced: bursts would add queueing noise that varies from seed to
   seed, and arrival burstiness is not a property this benchmark varies.
   [rate <= 0] schedules every request at once. *)
let schedule ~rate n =
  Array.init n (fun i -> if rate <= 0.0 then 0.0 else float_of_int i /. rate)

(* Sends [reqs.(i)] at [sched.(i)] over [conn] and matches responses back by
   id. At most [max_inflight] requests are outstanding: past it, a due send
   waits (and its lateness shows in [send_lag_ms]). *)
let run ~conn ~(reqs : Genie_serve.Request.t array) ~(sched : float array) ~max_inflight =
  let n = Array.length reqs in
  let responses = Array.make n None in
  let latency_ms = Array.make n 0.0 in
  let send_lag_ms = Array.make n 0.0 in
  let sent = ref 0 and received = ref 0 in
  let start = Unix.gettimeofday () in
  let last_progress = ref start in
  while !received < n do
    let now = Unix.gettimeofday () -. start in
    while !sent < n && sched.(!sent) <= now && !sent - !received < max_inflight do
      let i = !sent in
      Client.send_request conn reqs.(i);
      send_lag_ms.(i) <- ((Unix.gettimeofday () -. start) -. sched.(i)) *. 1e3;
      incr sent
    done;
    let timeout =
      if !sent < n && !sent - !received < max_inflight then
        Float.max 0.0 (Float.min 0.05 (sched.(!sent) -. (Unix.gettimeofday () -. start)))
      else 0.05
    in
    (match Unix.select [ Client.fd conn ] [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ ->
        List.iter
          (function
            | Codec.Response r ->
                let id = r.Codec.rs_id in
                if id < 0 || id >= n || responses.(id) <> None then
                  raise (Common.Check_failed (Printf.sprintf "unexpected response id %d" id));
                let t = Unix.gettimeofday () -. start in
                latency_ms.(id) <- (t -. sched.(id)) *. 1e3;
                responses.(id) <- Some r;
                incr received;
                last_progress := Unix.gettimeofday ()
            | _ -> ())
          (Client.pump conn));
    if Unix.gettimeofday () -. !last_progress > 60.0 then
      raise (Common.Check_failed "no response for 60 s: the daemon stalled")
  done;
  { responses = Array.map Option.get responses;
    latency_ms;
    send_lag_ms;
    elapsed_s = Unix.gettimeofday () -. start -. (if n > 0 then sched.(0) else 0.0) }
