(* Spans the benchmark records around its own calls into each layer. A
   span's name starts with its layer ("net.", "serve.", "parser_model.",
   "runtime.", ...); spans of one request share [req]. Spans stay in memory
   until the run ends. A recorder created with [~on:false] runs the same
   code without recording, which is how tracing overhead is measured. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  req : int;  (** -1 outside any request *)
  start : float;
  stop : float;
}

type t = {
  on : bool;
  lock : Mutex.t;  (* [add] is called from eval worker domains *)
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;  (* open spans on the recording domain *)
}

let create ~on = { on; lock = Mutex.create (); spans = []; next_id = 0; stack = [] }

let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next_id in
  t.next_id <- id + 1;
  Mutex.unlock t.lock;
  id

let push t s =
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

(* Records an already-timed span under [parent]; domain-safe. *)
let add t ?(parent = -1) ?(req = -1) name ~start ~stop =
  if t.on then push t { id = fresh_id t; parent; name; req; start; stop }

(* Times [f] as a span nested under the innermost open span. Only the
   domain that opened the enclosing spans may call it. *)
let span t ?(req = -1) name f =
  if not t.on then f ()
  else begin
    let id = fresh_id t in
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      push t { id; parent; name; req; start; stop }
    in
    match f () with
    | x ->
        finish ();
        x
    | exception e ->
        finish ();
        raise e
  end

(* The id of the innermost open span, for [add]ing children to it. *)
let current t = match t.stack with p :: _ -> p | [] -> -1

let spans t = t.spans
let dur s = s.stop -. s.start

let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

(* Each span with its self time: its duration minus what its children
   cover. Children never overlap each other here: they run one after the
   other on the parent's domain, except eval sentences, whose parent is
   the eval span and whose shares are reported separately. *)
let with_self spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (dur s +. Option.value (Hashtbl.find_opt covered s.parent) ~default:0.0))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.0))
    spans

let named spans name = List.filter (fun s -> s.name = name) spans
let durs spans name = Array.of_list (List.map dur (named spans name))
let total spans name = Array.fold_left ( +. ) 0.0 (durs spans name)
