(* In-memory trace spans, recorded from the benchmark around calls into the
   program's layers and written out when the run ends. *)

type span = {
  id : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;  (** [-1] for a root span. *)
  request : int;  (** Request the span belongs to; [-1] for set-up. *)
}

type t = {
  mutable rev_spans : span list;
  mutable next_id : int;
  mutable current : int;
  mutable request : int;
}

let create () = { rev_spans = []; next_id = 0; current = -1; request = -1 }
let set_request t r = t.request <- r
let spans t = List.rev t.rev_spans

(* [record t name f] runs [f] inside a span named [name], the child of the
   innermost open span. The span is kept even when [f] raises. *)
let record t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = t.current in
  t.current <- id;
  let start_ns = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop_ns = Clock.now_ns () in
      t.current <- parent;
      t.rev_spans <- { id; name; start_ns; stop_ns; parent; request = t.request } :: t.rev_spans)
    f

let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Self time of every span: its duration minus the part of its interval that
   its children cover (overlapping children are counted once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        List.sort
          (fun a b -> Int64.compare a.start_ns b.start_ns)
          (Hashtbl.find_all children s.id)
      in
      let covered, _ =
        List.fold_left
          (fun (covered, reach) k ->
            let lo = max reach (max k.start_ns s.start_ns) in
            let hi = min k.stop_ns s.stop_ns in
            if hi > lo then (covered +. Int64.to_float (Int64.sub hi lo), hi)
            else (covered, reach))
          (0.0, s.start_ns) kids
      in
      (s, duration_ns s -. covered))
    spans

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"request\":%d}\n"
            s.id s.name s.start_ns s.stop_ns s.parent s.request)
        spans)
