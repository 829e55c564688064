(* Entry point of the repository benchmark (see README.md; run.py builds
   this and calls it):

     bench.exe --workload serve-cold|build --seed N --seconds S --trace 0|1

   The last line of standard output is the result object. A failed
   correctness check prints FAILED on standard error, exits 1, and prints
   no result. *)

module Json = Genie_util.Json_lite

type workload = {
  name : string;
  why : string;
  scale : float;
  setups : int;
  eval_n : int;
  serve : bool;  (** [false]: the offline build *)
}

(* Serving runs at pipeline scale 0.03, where a cache miss costs ~35-50 ms
   depending on the host's speed. At 8 req/s, evenly spaced, the daemon is
   busy about a third of the time, so a slower host lengthens each request
   without queueing the next behind it. A 40 s run makes five passes of 64
   timed requests. *)
let serve_rate = 8.0
let serve_cap_requests = 60

let workloads =
  [ { name = "serve-cold";
      why =
        "uniform traffic over the whole corpus, every request executed: nearly every \
         request misses the parse cache, so aligner decode does almost all the work";
      scale = 0.03;
      setups = 5;
      eval_n = 24;
      serve = true };
    { name = "build";
      why =
        "templates to trained parser and exported corpus, then held-out exact match: \
         training, synthesis, augmentation and dataset I/O do the work, no socket";
      scale = 0.3;
      setups = 9;
      eval_n = 24;
      serve = false } ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let scale = ref 0.0 and rate = ref 0.0 and eval_n = ref 0 and setups = ref 0 in
  let cap = ref 0 and corrupt = ref false and daemon_scale = ref 0.0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME serve-cold or build");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S total length of the fixed-rate phases");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--scale", Arg.Set_float scale, "F override the pipeline scale (self-test)");
      ("--rate", Arg.Set_float rate, "R override the fixed rate (calibration)");
      ("--eval-n", Arg.Set_int eval_n, "N override the eval slice size (self-test)");
      ("--setups", Arg.Set_int setups, "N override the set-up repetitions (self-test)");
      ("--cap-requests", Arg.Set_int cap, "N override the saturating pass size (self-test)");
      ("--corrupt-digest", Arg.Set corrupt, " corrupt every expected digest (self-test)");
      ("--daemon-child", Arg.Set_float daemon_scale, "F serve a pipeline of scale F (started by serve-cold)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !daemon_scale > 0.0 then begin
    Serve_wl.daemon_child !daemon_scale;
    exit 0
  end;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let pick o d = if o > 0 then o else d in
  let pickf o d = if o > 0.0 then o else d in
  let scale = pickf !scale w.scale and setups = pick !setups w.setups in
  let eval_n = pick !eval_n w.eval_n in
  let m = Common.metrics () in
  let provenance extra =
    Json.Obj
      ([ ("workload", Json.String w.name);
         ("why", Json.String w.why);
         ("seed", Json.Int !seed);
         ("trace", Json.Int !trace);
         ("pipeline_scale", Json.Float scale);
         ("setups", Json.Int setups);
         ("eval_sentences", Json.Int eval_n);
         ("ocaml", Json.String Sys.ocaml_version);
         ("domains_recommended", Json.Int (Domain.recommended_domain_count ())) ]
      @ extra)
  in
  match
    if w.serve then begin
      let p =
        { Serve_wl.scale; setups; eval_n; seed = !seed; seconds = !seconds;
          rate = pickf !rate serve_rate; cap_requests = pick !cap serve_cap_requests;
          corrupt = !corrupt }
      in
      ( Serve_wl.run ~trace:(!trace = 1) p m,
        [ ("rate_rps", Json.Float p.Serve_wl.rate);
          ("passes", Json.Int setups);
          ("timed_requests_per_pass", Json.Int (Serve_wl.timed_requests p));
          ("saturating_requests", Json.Int p.Serve_wl.cap_requests);
          ("connections", Json.Int 1) ] )
    end
    else
      let p =
        { Build_wl.scale; setups; seconds = !seconds; eval_n; seed = !seed; corrupt = !corrupt;
          dir = Filename.concat ".perfbench" (Printf.sprintf "spill-%d" (Unix.getpid ())) }
      in
      (Build_wl.run ~trace:(!trace = 1) p m, [])
  with
  | exception Common.Check_failed msg ->
      prerr_endline ("FAILED: " ^ msg);
      exit 1
  | (attempted, failed), extra ->
      print_endline (Json.to_string_compact (Json.Obj [ ("provenance", provenance extra) ]));
      print_endline
        (Json.to_string_compact
           (Json.Obj
              [ ("correct", Json.Bool true);
                ("attempted", Json.Int attempted);
                ("failed", Json.Int failed);
                ("metrics", Common.metrics_json m) ]))
