(* The serving workload: uniform traffic over the whole corpus, sent over
   the loopback socket to a daemon that serves from one domain
   ([workers 0]) in a process of its own, while the generator runs in the
   benchmark's process. Nearly every request misses the parse cache, and
   every request asks for execution.

   A run makes [setups] passes. Each pass evaluates the parser on the
   held-out slice, starts a daemon (which builds its pipeline, listens and
   takes a connection), sends it the same fixed-rate open-loop phase of
   [seconds * rate / setups] requests, then the same saturating pass of
   [cap_requests], and stops it. Every pass's two response streams are
   checked against an in-process [Server.run_batch] replay. Latency is each
   request's median over the passes; capacity, set-up, build and eval time
   and the daemon's peak RSS are medians over the passes. The traced run
   replays the fixed-rate stream in process once more, calling each layer
   itself, with spans off and on.

   One connection: execution state is cumulative (README.md), so the daemon
   must see the stream in request order for the replay to match. *)

open Common
module Client = Genie_net.Client
module Codec = Genie_net.Codec
module Frame = Genie_net.Frame
module Daemon = Genie_net.Daemon
module Server = Genie_serve.Server
module Request = Genie_serve.Request
module Response = Genie_serve.Response
module Model = Genie_parser_model.Model
module Rng = Genie_util.Rng
module P = Genie_core.Pipeline

type params = {
  scale : float;
  setups : int;
  eval_n : int;
  seed : int;
  seconds : float;
  rate : float;  (** requests per second in the fixed-rate phase *)
  cap_requests : int;  (** size of the saturating pass *)
  corrupt : bool;  (** self-test: expect a wrong digest, so the run must fail *)
}

(* --- the daemon process -------------------------------------------------------- *)

(* The daemon runs in a process of its own, started from this executable
   with [--daemon-child SCALE] as a user starts a server: it builds the
   pipeline, listens, and prints "<port> <pipeline seconds>" on standard
   output; once drained it prints its peak RSS in kB and exits. Its own
   process keeps its one domain apart from the benchmark's: a minor
   collection stops every domain of a process. *)
let daemon_child scale =
  let g = load_grammar () in
  let a, pipeline_s = timed (fun () -> run_pipeline g scale) in
  let server = Server.of_artifacts ~workers:0 a in
  let daemon = Daemon.create ~server Daemon.default_config in
  Printf.printf "%d %.9f\n%!" (Daemon.port daemon) pipeline_s;
  Daemon.run daemon;
  Server.shutdown server;
  Printf.printf "%.0f\n%!" (peak_rss_mb () *. 1024.0)

type live = {
  pid : int;
  out : in_channel;  (** the daemon's standard output *)
  conn : Client.t;
}

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Starts a daemon and connects to it: the set-up time a user sees. *)
let start p =
  let t0 = now () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon-child"; Printf.sprintf "%h" p.scale |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  match
    let port, pipeline_s = Scanf.sscanf (input_line out) "%d %f" (fun a b -> (a, b)) in
    (Client.connect ~port (), pipeline_s)
  with
  | conn, pipeline_s -> ({ pid; out; conn }, now () -. t0, pipeline_s)
  | exception e ->
      kill pid;
      close_in_noerr out;
      raise (Check_failed ("daemon did not start: " ^ Printexc.to_string e))

(* Drains the daemon and waits for it to exit; returns its peak RSS in MB. *)
let stop l =
  Client.drain l.conn;
  Client.close l.conn;
  let rss_kb = float_of_string (input_line l.out) in
  close_in l.out;
  match Unix.waitpid [] l.pid with
  | _, Unix.WEXITED 0 -> rss_kb /. 1024.0
  | _ -> raise (Check_failed "daemon process failed")

(* [f] on a fresh daemon, which is stopped, or killed if [f] fails. *)
let with_daemon p f =
  let l, setup_s, pipeline_s = start p in
  match
    let x = f l in
    (x, stop l)
  with
  | x, rss_mb -> (x, setup_s, pipeline_s, rss_mb)
  | exception e ->
      kill l.pid;
      close_in_noerr l.out;
      raise e

(* [count] executing requests, each utterance drawn uniformly from [pool]. *)
let requests ~rng pool count =
  Array.init count (fun id ->
      Request.make ~execute:true ~id pool.(Rng.int rng (Array.length pool)))

(* The daemon's own request and batch counters, read over the socket
   between phases (its stats are JSON; these two keys come first). *)
let daemon_counts l =
  let s = Client.server_stats l.conn in
  let int_after key =
    let k = Printf.sprintf "%S:" key in
    let rec find i =
      if i + String.length k > String.length s then
        raise (Check_failed ("daemon stats lack " ^ key))
      else if String.sub s i (String.length k) = k then i + String.length k
      else find (i + 1)
    in
    let i = find 0 in
    let j = ref i in
    while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
    int_of_string (String.sub s i (!j - i))
  in
  (int_after "requests", int_after "batches")

let digest (r : Gen.result) = Codec.digest (Array.to_list r.Gen.responses)

(* --- the traced in-process path ---------------------------------------------- *)

(* Frame and codec work for one request, as client and daemon do it. *)
let roundtrip msg =
  let d = Frame.decoder () in
  Frame.feed d (Codec.encode msg);
  match Frame.next d with
  | Ok (Some f) -> (
      match Codec.decode f with
      | Ok m -> m
      | Error e -> raise (Check_failed ("codec: " ^ e)))
  | _ -> raise (Check_failed "frame did not round-trip")

(* Execution as the engine does it: compiled, through a compiled-program
   cache keyed on the canonical text, against one environment that lives
   as long as the server. *)
type runtime = {
  env : Genie_runtime.Exec.env;
  ccache : Genie_runtime.Compile_cache.t;
  mutable compile_hits : int;
  mutable compile_misses : int;
}

let execute tr rt lib ~req (r : Response.t) ~ticks =
  match r.Response.program with
  | None -> r
  | Some p -> (
      let key =
        match r.Response.program_text with
        | Some s -> s
        | None -> Genie_thingtalk.Printer.program_to_string p
      in
      match
        let c =
          match Genie_runtime.Compile_cache.find rt.ccache key with
          | Some c ->
              rt.compile_hits <- rt.compile_hits + 1;
              c
          | None ->
              rt.compile_misses <- rt.compile_misses + 1;
              let c = Genie_runtime.Compile.compile lib p in
              Genie_runtime.Compile_cache.add rt.ccache key c;
              c
        in
        Trace.span tr ~req "runtime.run" (fun () -> Genie_runtime.Compile.run ~ticks rt.env c)
      with
      | ns, fx ->
          { r with Response.notifications = List.length ns; side_effects = List.length fx }
      | exception e ->
          { r with Response.status = Response.Error; error = Some (Printexc.to_string e) })

(* A server whose model spans every decode into [tr]; [dtr] collects the aligner's own decode-phase sub-spans through its
   public [?scope]. *)
let traced_server tr dtr cur (a : P.artifacts) =
  let rec wrap (m : Model.t) =
    { m with
      Model.predict =
        (fun ?scope:_ toks ->
          Trace.span tr ~req:!cur "parser_model.predict" (fun () ->
              let scope =
                Genie_observe.Tracer.scope dtr ~slot:0 ~request:!cur ~attempt:0 ~parent:0L
              in
              m.Model.predict ?scope toks));
      fork = (fun () -> wrap (m.Model.fork ())) }
  in
  Server.create ~lib:a.P.lib ~model:(wrap (Model.of_aligner a.P.model)) ~workers:0 ()

type replay = {
  wires : Codec.wire_response list;  (** the timed phase's answers *)
  root_s : float array;  (** per timed request, whole in-process path *)
  rt : runtime;
}

(* Replays the fixed-rate phase through the layers one call at a time. *)
let replay tr dtr (a : P.artifacts) (timed_reqs : Request.t array) =
  let cur = ref 0 in
  let server = traced_server tr dtr cur a in
  let rt =
    { env = Genie_runtime.Exec.create ~seed:0 a.P.lib;
      ccache = Genie_runtime.Compile_cache.create ~capacity:4096;
      compile_hits = 0;
      compile_misses = 0 }
  in
  let one (req : Request.t) =
    let id = req.Request.id in
    cur := id;
    Trace.span tr ~req:id "request" (fun () ->
        let req =
          Trace.span tr ~req:id "net.decode" (fun () ->
              match roundtrip (Codec.Request (Codec.wire_of_request req)) with
              | Codec.Request w -> Codec.request_of_wire w
              | _ -> raise (Check_failed "request decoded as another message"))
        in
        let r =
          Trace.span tr ~req:id "serve.handle" (fun () ->
              Server.handle server { req with Request.execute = false })
        in
        let r =
          if req.Request.execute then
            Trace.span tr ~req:id "runtime.exec" (fun () ->
                execute tr rt a.P.lib ~req:id r ~ticks:req.Request.ticks)
          else r
        in
        Trace.span tr ~req:id "net.encode" (fun () ->
            match roundtrip (Codec.Response (Codec.wire_of_response r)) with
            | Codec.Response w -> w
            | _ -> raise (Check_failed "response decoded as another message")))
  in
  let root_s = Array.make (Array.length timed_reqs) 0.0 in
  let wires =
    Array.to_list
      (Array.mapi
         (fun i r ->
           let w, dt = timed (fun () -> one r) in
           root_s.(i) <- dt;
           w)
         timed_reqs)
  in
  Server.shutdown server;
  { wires; root_s; rt }

(* --- the workload ------------------------------------------------------------ *)

(* Requests in one pass's fixed-rate phase: [seconds] is shared evenly by
   the [setups] passes. *)
let timed_requests p =
  max 1 (int_of_float (Float.round (p.seconds *. p.rate /. float_of_int p.setups)))

(* One pass and what was measured in it. *)
type pass = {
  setup_s : float;
  pipeline_s : float;
  rss_mb : float;  (** the daemon process's peak RSS *)
  fixed : Gen.result;
  cap : Gen.result;
  daemon_requests : int;  (** counted by the daemon over the fixed-rate phase *)
  daemon_batches : int;
  eval : Genie_parser_model.Eval.metrics;
  eval_s : float;
}

(* Evaluates the parser on the held-out slice, then starts a daemon, sends
   it the fixed-rate phase and the saturating pass, and stops it. *)
let measure p (a : P.artifacts) ~timed_reqs ~cap_reqs =
  let eval, eval_s = timed (fun () -> evaluate a (eval_slice a p.eval_n)) in
  Gc.compact ();
  let (fixed, cap, daemon_requests, daemon_batches), setup_s, pipeline_s, rss_mb =
    with_daemon p (fun l ->
        let req0, batch0 = daemon_counts l in
        let fixed =
          Gen.run ~conn:l.conn ~reqs:timed_reqs
            ~sched:(Gen.schedule ~rate:p.rate (Array.length timed_reqs))
            ~max_inflight:1024
        in
        let req1, batch1 = daemon_counts l in
        let cap =
          Gen.run ~conn:l.conn ~reqs:cap_reqs
            ~sched:(Gen.schedule ~rate:0.0 p.cap_requests)
            ~max_inflight:p.cap_requests
        in
        (fixed, cap, req1 - req0, batch1 - batch0))
  in
  { setup_s; pipeline_s; rss_mb; fixed; cap; daemon_requests; daemon_batches; eval; eval_s }

let run ~trace (p : params) (m : metrics) =
  let g = load_grammar () in
  (* Every daemon builds the same pipeline as this process and starts with
     cold caches and a fresh execution state, so every pass sends the same
     requests and must get the same answers. *)
  let a = run_pipeline g p.scale in
  let pool =
    Array.of_list
      (List.sort_uniq compare
         (List.map (fun (toks, _) -> String.concat " " toks) (a.P.synthesized @ a.P.paraphrases)))
  in
  let n = timed_requests p in
  let timed_reqs = requests ~rng:(Rng.create ((p.seed * 1009) + 11)) pool n in
  let cap_reqs = requests ~rng:(Rng.create ((p.seed * 1009) + 13)) pool p.cap_requests in
  let passes = List.init p.setups (fun _ -> measure p a ~timed_reqs ~cap_reqs) in
  (* correctness: every pass answered exactly what the server answers in
     process, phase by phase *)
  let ref_server = Server.of_artifacts ~workers:0 a in
  let ref_digest reqs =
    let d = Codec.digest_of_responses (Server.run_batch ~batched:true ref_server (Array.to_list reqs)) in
    if p.corrupt then "0" ^ d else d
  in
  let timed_digest = ref_digest timed_reqs and cap_digest = ref_digest cap_reqs in
  Server.shutdown ref_server;
  List.iter
    (fun ps ->
      check (digest ps.fixed = timed_digest) "timed-phase responses differ from the in-process replay";
      check (digest ps.cap = cap_digest) "saturating-pass responses differ from the in-process replay";
      check
        (Genie_parser_model.Eval.digest ps.eval = Genie_parser_model.Eval.digest (List.hd passes).eval)
        "set-ups scored differently on the held-out slice")
    passes;
  let responses =
    List.concat_map
      (fun ps -> Array.to_list ps.fixed.Gen.responses @ Array.to_list ps.cap.Gen.responses)
      passes
  in
  let sent = List.length responses in
  let answered =
    List.length
      (List.filter (fun r -> r.Codec.rs_status = "ok" || r.Codec.rs_status = "no-parse") responses)
  in
  let fixed0 = (List.hd passes).fixed in
  let hits = Array.fold_left (fun k r -> if r.Codec.rs_from_cache then k + 1 else k) 0 fixed0.Gen.responses in
  (* Each request's figure is its median over the passes, and every other
     figure is a median of one sample per pass, so a slow spell of the host
     during a minority of the passes does not reach the result. *)
  let per_request f =
    Array.init n (fun i -> median (Array.of_list (List.map (fun ps -> (f ps).(i)) passes)))
  in
  let per_pass f = median_l (List.map f passes) in
  let lat = per_request (fun ps -> ps.fixed.Gen.latency_ms) in
  (* below saturation: the generator kept to its schedule and no backlog
     built up over the phase *)
  let quarter k = median (Array.sub lat (k * n / 4) (max 1 (n / 4))) in
  let lag_p95 = percentile (per_request (fun ps -> ps.fixed.Gen.send_lag_ms)) 95.0 in
  check (lag_p95 < 50.0) "overloaded: generator send lag p95 %.1f ms" lag_p95;
  check
    (n < 8 || quarter 3 <= (2.0 *. quarter 0) +. 20.0)
    "overloaded: median latency grew from %.2f ms (first quarter) to %.2f ms (last quarter)"
    (quarter 0) (quarter 3);
  if not trace then begin
    put m "setup_s" "s" (per_pass (fun ps -> ps.setup_s));
    put m "latency_p50_ms" "ms" (median lat);
    put m "latency_p90_ms" "ms" (percentile lat 90.0);
    put m "capacity_rps" "1/s" (per_pass (fun ps -> float_of_int p.cap_requests /. ps.cap.Gen.elapsed_s));
    put m "ok_share" "ratio" (share answered sent);
    put m "build_s" "s" (per_pass (fun ps -> ps.pipeline_s));
    put m "eval_s" "s" (per_pass (fun ps -> ps.eval_s));
    put m "exact_match" "ratio" (List.hd passes).eval.Genie_parser_model.Eval.program_accuracy;
    put m "peak_rss_mb" "MB" (per_pass (fun ps -> ps.rss_mb))
  end
  else begin
    (* socket-side layer figures of the fixed-rate phase *)
    let queue_ms = per_request (fun ps -> Array.map (fun r -> r.Codec.rs_queue_ns /. 1e6) ps.fixed.Gen.responses) in
    let overhead_ms =
      per_request (fun ps ->
          Array.mapi
            (fun i r -> ps.fixed.Gen.latency_ms.(i) -. ((r.Codec.rs_queue_ns +. r.Codec.rs_total_ns) /. 1e6))
            ps.fixed.Gen.responses)
    in
    let sum f = List.fold_left (fun acc ps -> acc + f ps) 0 passes in
    put m "net.queue_wait_p50_ms" "ms" (median queue_ms);
    put m "net.overhead_p50_ms" "ms" (median overhead_ms);
    put m "net.batch_size_mean" "count"
      (share (sum (fun ps -> ps.daemon_requests)) (sum (fun ps -> ps.daemon_batches)));
    put m "net.send_lag_p95_ms" "ms" lag_p95;
    put m "net.completion_ratio" "ratio"
      (per_pass (fun ps -> float_of_int n /. ps.fixed.Gen.elapsed_s /. p.rate));
    put m "serve.cache_hit_share" "ratio" (share hits n);
    (* in-process: tokenization, timed alone over the same utterances *)
    let (), tok_s =
      timed (fun () ->
          Array.iter
            (fun r ->
              ignore (Request.cache_key r.Request.utterance);
              ignore (Genie_util.Tok.tokenize r.Request.utterance))
            timed_reqs)
    in
    put m "serve.tokenize_us" "us" (tok_s /. float_of_int n *. 1e6);
    (* the stream with spans on, which must answer as the daemon did, and
       its first [k] requests with spans off, for the overhead (a prefix
       keeps the run well inside its time limit) *)
    let tr = Trace.create ~on:true in
    let dtr = Genie_observe.Tracer.create ~capacity:65536 ~slots:1 () in
    let traced = replay tr dtr a timed_reqs in
    let k = min n 100 in
    let plain = replay (Trace.create ~on:false) Genie_observe.Tracer.disabled a (Array.sub timed_reqs 0 k) in
    let digest_of ws = if p.corrupt then "0" ^ Codec.digest ws else Codec.digest ws in
    check (digest_of traced.wires = timed_digest) "traced in-process path answered differently";
    check
      (Codec.digest plain.wires = Codec.digest (List.filteri (fun i _ -> i < k) traced.wires))
      "untraced in-process path answered differently";
    let over = Array.mapi (fun i t -> (traced.root_s.(i) -. t) /. t) plain.root_s in
    put m "trace.overhead_share" "ratio" (median over);
    put m "trace.overhead_iqr" "ratio" (percentile over 75.0 -. percentile over 25.0);
    let spans = Trace.spans tr in
    let total = Trace.total spans "request" in
    let self = Trace.with_self spans in
    let self_of layer =
      List.fold_left (fun acc (s, x) -> if Trace.layer s = layer then acc +. x else acc) 0.0 self
    in
    List.iter
      (fun layer -> put m (layer ^ ".self_share") "ratio" (self_of layer /. total))
      [ "net"; "serve"; "parser_model"; "runtime" ];
    put m "trace.unexplained_share" "ratio" (self_of "request" /. total);
    put m "net.codec_us" "us"
      ((Trace.total spans "net.decode" +. Trace.total spans "net.encode") /. float_of_int n *. 1e6);
    let handle = Trace.durs spans "serve.handle" in
    put m "serve.engine_p50_ms" "ms" (median handle *. 1e3);
    put m "serve.engine_p95_ms" "ms" (percentile handle 95.0 *. 1e3);
    let predict = Trace.durs spans "parser_model.predict" in
    let npred = Array.length predict in
    put m "parser_model.predicts" "count" (float_of_int npred);
    put m "parser_model.predict_p50_ms" "ms" (median predict *. 1e3);
    put m "parser_model.predict_p95_ms" "ms" (percentile predict 95.0 *. 1e3);
    let decode = Genie_observe.Tracer.spans dtr in
    List.iter
      (fun (metric, name) ->
        let sum =
          List.fold_left
            (fun acc (s : Genie_observe.Span.t) ->
              if s.Genie_observe.Span.name = name then acc +. s.Genie_observe.Span.dur_ns else acc)
            0.0 decode
        in
        put m metric "ms" (if npred = 0 then 0.0 else sum /. 1e6 /. float_of_int npred))
      [ ("parser_model.decode_rank_ms", "decode.rank");
        ("parser_model.decode_beam_ms", "decode.beam");
        ("parser_model.decode_slots_ms", "decode.slots") ];
    (* runtime: Compile.run time at the start and the end of the stream *)
    let runs =
      Array.of_list
        (List.map Trace.dur
           (List.sort (fun a b -> compare a.Trace.req b.Trace.req) (Trace.named spans "runtime.run")))
    in
    let k = Array.length runs in
    let tenth first =
      if k = 0 then 0.0
      else
        let w = max 1 (k / 10) in
        mean (Array.sub runs (if first then 0 else k - w) w) *. 1e6
    in
    put m "runtime.exec_us_first" "us" (tenth true);
    put m "runtime.exec_us_last" "us" (tenth false);
    put m "runtime.compile_hit_share" "ratio"
      (share traced.rt.compile_hits (traced.rt.compile_hits + traced.rt.compile_misses));
    let executed = List.filter (fun w -> w.Codec.rs_status = "ok") traced.wires in
    put m "runtime.notifications_per_exec" "count"
      (if executed <> [] then
         float_of_int (List.fold_left (fun acc w -> acc + w.Codec.rs_notifications) 0 executed)
         /. float_of_int (List.length executed)
       else 0.0);
    (* the pipeline behind set-up, stage by stage *)
    let ptr = Trace.create ~on:true in
    let a', counts = Stages.run ptr g p.scale in
    check (Stages.fingerprint a' = Stages.fingerprint a) "staged pipeline differs from Pipeline.run";
    Stages.layer_metrics m ptr a' counts;
    put m "parser_model.eval_predict_ms" "ms" 0.0;
    List.iter (fun name -> put m name "s" 0.0) [ "dataset.spill_s"; "dataset.read_s" ];
    put m "dataset.spill_mb" "MB" 0.0;
    put m "dataset.records" "count" 0.0
  end;
  (sent, sent - answered)
