(* Spans recorded from outside the program: the ledger wraps its own
   calls into each layer's public functions, so nothing in the
   libraries is instrumented.  Spans are kept in memory and written out
   when the run ends.

   Recording is scoped: a span is kept only inside a {!root}, so an
   untraced operation runs exactly the code a user's call runs.  A
   root's context lives in domain-local storage; work handed to another
   domain carries it over with {!current} and {!within}. *)

type span = {
  id : int;
  trace : int;  (** shared by every span of one traced operation *)
  parent : int;  (** 0 for a root *)
  name : string;  (** [layer.call] *)
  domain : int;
  start : float;
  stop : float;
  attrs : (string * float) list;
}

type ctx = { ctx_trace : int; ctx_parent : int }

let idle = { ctx_trace = 0; ctx_parent = 0 }
let key = Domain.DLS.new_key (fun () -> idle)
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded = ref []
let origin = Unix.gettimeofday ()

let push s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let all () =
  Mutex.lock lock;
  let l = List.rev !recorded in
  Mutex.unlock lock;
  l

let current () = Domain.DLS.get key

let within ctx f =
  let saved = current () in
  Domain.DLS.set key ctx;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let record ~trace ~parent ?(attrs = fun _ -> []) name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let start = Unix.gettimeofday () in
  let r = within { ctx_trace = trace; ctx_parent = id } f in
  let stop = Unix.gettimeofday () in
  push
    {
      id;
      trace;
      parent;
      name;
      domain = (Domain.self () :> int);
      start;
      stop;
      attrs = attrs r;
    };
  (r, stop -. start)

(* [timed name f] runs [f] and returns its result and duration,
   recording it as a child of the enclosing span when inside a root;
   [attrs] derives numeric attributes from the result.  [span] keeps
   only the result. *)
let timed ?attrs name f =
  let ctx = current () in
  if ctx.ctx_trace = 0 then
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  else record ~trace:ctx.ctx_trace ~parent:ctx.ctx_parent ?attrs name f

let span ?attrs name f = fst (timed ?attrs name f)

(* Start a traced operation: spans opened inside [f] are kept.  Returns
   the result and the root's duration. *)
let root ~trace ?attrs name f = record ~trace ~parent:0 ?attrs name f

let duration s = s.stop -. s.start

let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

let attr s k = List.assoc_opt k s.attrs

(* Self time: the span's duration minus the part of its interval its
   children cover (children on other domains may overlap each other). *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all children s.id
        |> List.map (fun c ->
               (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, neg_infinity) ivs
      in
      (s, Float.max 0.0 (duration s -. covered)))
    spans

(* Chrome trace_event form (loadable in Perfetto): one complete event
   per span, microseconds since the ledger started. *)
let to_chrome spans =
  let module Json = Tpdbt_telemetry.Json in
  let us t = Json.number (Float.round ((t -. origin) *. 1e7) /. 10.0) in
  let event s =
    Json.obj
      [
        ("name", Json.quote s.name);
        ("cat", Json.quote (layer s));
        ("ph", Json.quote "X");
        ("ts", us s.start);
        ("dur", Json.number (Float.round (duration s *. 1e7) /. 10.0));
        ("pid", "1");
        ("tid", string_of_int s.domain);
        ( "args",
          Json.obj
            (("id", string_of_int s.id)
            :: ("trace", string_of_int s.trace)
            :: ("parent", string_of_int s.parent)
            :: List.map (fun (k, v) -> (k, Json.number v)) s.attrs) );
      ]
  in
  Json.obj [ ("traceEvents", Json.arr (List.map event spans)) ]
