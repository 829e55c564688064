(* Shared pieces of the benchmark: clocks, order statistics, the pipeline
   set-up every workload starts from, and the metric table a run prints. *)

module Json = Genie_util.Json_lite

let now () = Unix.gettimeofday ()

(* Raised when a run's outputs are wrong or its load was invalid. The run
   then exits non-zero and prints no result: a failed check never becomes
   a number. *)
exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Nearest-rank percentile, the rule [Genie_net.Stat] uses. *)
let percentile a p = Genie_net.Stat.percentile a p
let median a = percentile a 50.0
let mean a = Genie_net.Stat.mean a
let median_l l = median (Array.of_list l)

let share num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let peak_rss_mb () =
  match Genie_util.Resource.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> raise (Check_failed "peak RSS unavailable (no /proc/self/status)")

(* --- the pipeline every workload builds from ------------------------------- *)

type grammar = {
  lib : Genie_thingtalk.Schema.Library.t;
  prims : Genie_thingpedia.Prim.t list;
  rules : Genie_templates.Grammar.rule list;
}

let load_grammar () =
  let lib = Genie_thingpedia.Thingpedia.core_library () in
  { lib;
    prims = Genie_thingpedia.Thingpedia.core_templates ();
    rules = Genie_templates.Rules_thingtalk.rules lib }

(* The pipeline seed stays at [Config.default]'s: the parser, and so its
   exact-match accuracy, is the same in every run. The benchmark seed drives
   the traffic and the exported corpus instead. *)
let pipeline_config scale = Genie_core.Config.(scaled scale default)

let run_pipeline g scale =
  Genie_core.Pipeline.run ~cfg:(pipeline_config scale) ~lib:g.lib ~prims:g.prims
    ~rules:g.rules ()

(* A fixed slice of the held-out paraphrase test, [n] sentences at an even
   stride across it, independent of the run's seed, so exact match compares
   across runs. *)
let eval_slice (a : Genie_core.Pipeline.artifacts) n =
  let test = a.Genie_core.Pipeline.paraphrase_test in
  let stride = max 1 (List.length test / n) in
  List.filteri (fun i _ -> i mod stride = 0 && i / stride < n) test

(* Exact-match evaluation on two workers. Each shard predicts through its
   own model fork, since a handle's scratch is not domain-safe.
   [on_sentence] sees each sentence and its parse time in seconds (called
   from the worker domains). *)
let evaluate ?(on_sentence = fun _ _ -> ()) (a : Genie_core.Pipeline.artifacts) slice =
  let base = Genie_parser_model.Model.of_aligner a.Genie_core.Pipeline.model in
  let predict sentences =
    let m = base.Genie_parser_model.Model.fork () in
    List.map
      (fun s ->
        let p, dt = timed (fun () -> m.Genie_parser_model.Model.predict s) in
        on_sentence s dt;
        p.Genie_parser_model.Model.program)
      sentences
  in
  Genie_parser_model.Eval.evaluate_sharded ~workers:2 ~shard_size:4
    a.Genie_core.Pipeline.lib predict slice

(* An [on_sentence] for {!evaluate} that collects parse times over several
   evaluations, and a function giving each sentence's median in ms. *)
let parse_times () =
  let lock = Mutex.create () and times = Hashtbl.create 64 in
  let on_sentence s dt =
    Mutex.protect lock (fun () ->
        Hashtbl.replace times s ((dt *. 1e3) :: Option.value ~default:[] (Hashtbl.find_opt times s)))
  in
  (on_sentence, fun () -> Array.of_list (Hashtbl.fold (fun _ ts acc -> median_l ts :: acc) times []))

(* --- metrics ---------------------------------------------------------------- *)

type metrics = (string * (float * string)) list ref

let metrics () : metrics = ref []
let put (m : metrics) name unit v = m := (name, (v, unit)) :: !m

let metrics_json (m : metrics) =
  Json.Obj
    (List.rev_map
       (fun (name, (v, unit)) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       !m)
