type frame = {
  label : string;
  wall0 : float;
  minor0 : float;
  major0 : float;
}

type t = {
  sink : Sink.t;
  clock : unit -> int;
  enabled : bool;
  mutable stack : frame list;
}

let create ?(clock = fun () -> 0) sink =
  { sink; clock; enabled = not (Sink.is_null sink); stack = [] }

let enabled t = t.enabled
let depth t = List.length t.stack

let enter t label =
  if t.enabled then begin
    t.sink.Sink.emit ~step:(t.clock ()) (Event.Span_begin { span = label });
    (* Sample the clocks *after* emitting so the sink's own cost is not
       charged to the span.  [Gc.minor_words] is exact; [Gc.quick_stat]
       counts minor allocation only at minor collections. *)
    let st = Gc.quick_stat () in
    t.stack <-
      {
        label;
        wall0 = Unix.gettimeofday ();
        minor0 = Gc.minor_words ();
        major0 = st.Gc.major_words;
      }
      :: t.stack
  end

(* Closes the innermost span whatever the label argument says — an
   unbalanced caller loses one frame, never corrupts the rest. *)
let leave t _label =
  if t.enabled then
    match t.stack with
    | [] -> ()
    | f :: rest ->
        let wall = Unix.gettimeofday () in
        let minor = Gc.minor_words () in
        let st = Gc.quick_stat () in
        t.stack <- rest;
        let wall_ns =
          let ns = int_of_float ((wall -. f.wall0) *. 1e9) in
          if ns < 0 then 0 else ns
        in
        t.sink.Sink.emit ~step:(t.clock ())
          (Event.Span_end
             {
               span = f.label;
               wall_ns;
               minor_words = int_of_float (minor -. f.minor0);
               major_words = int_of_float (st.Gc.major_words -. f.major0);
             })

let wrap t label f =
  if t.enabled then begin
    enter t label;
    match f () with
    | v ->
        leave t label;
        v
    | exception e ->
        leave t label;
        raise e
  end
  else f ()
