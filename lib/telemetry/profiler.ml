type node = {
  label : string;
  mutable calls : int;
  mutable steps : int;
  mutable wall_ns : int;
  mutable minor_words : int;
  mutable major_words : int;
  mutable cycles : float;
  children_tbl : (string, node) Hashtbl.t;
}

type t = { root : node }

let make_node label =
  {
    label;
    calls = 0;
    steps = 0;
    wall_ns = 0;
    minor_words = 0;
    major_words = 0;
    cycles = 0.0;
    children_tbl = Hashtbl.create 4;
  }

let label n = n.label
let calls n = n.calls
let steps n = n.steps
let wall_ns n = n.wall_ns
let minor_words n = n.minor_words
let major_words n = n.major_words
let cycles n = n.cycles

let children n =
  Hashtbl.fold (fun _ c acc -> c :: acc) n.children_tbl []
  |> List.sort (fun a b -> compare a.label b.label)

let self_steps n =
  let kids = List.fold_left (fun acc c -> acc + c.steps) 0 (children n) in
  max 0 (n.steps - kids)

let roots t = children t.root

let find t path =
  let rec go n = function
    | [] -> Some n
    | l :: rest -> (
        match Hashtbl.find_opt n.children_tbl l with
        | Some c -> go c rest
        | None -> None)
  in
  go t.root path

let child_of parent l =
  match Hashtbl.find_opt parent.children_tbl l with
  | Some c -> c
  | None ->
      let c = make_node l in
      Hashtbl.add parent.children_tbl l c;
      c

let of_events events =
  let root = make_node "" in
  (* Open-span stack; the head is the innermost.  Ends are matched by
     label so interleaved streams (spans closed out of order) still
     account every frame. *)
  let stack = ref [] in
  let top () = match !stack with [] -> root | (n, _) :: _ -> n in
  List.iter
    (fun { Event.step; event } ->
      match event with
      | Event.Span_begin { span } ->
          let n = child_of (top ()) span in
          n.calls <- n.calls + 1;
          stack := (n, step) :: !stack
      | Event.Span_end { span; wall_ns; minor_words; major_words } ->
          if List.exists (fun (n, _) -> n.label = span) !stack then begin
            let rec close = function
              | [] -> []
              | (n, begin_step) :: rest ->
                  if n.label = span then begin
                    n.steps <- n.steps + (step - begin_step);
                    n.wall_ns <- n.wall_ns + wall_ns;
                    n.minor_words <- n.minor_words + minor_words;
                    n.major_words <- n.major_words + major_words;
                    rest
                  end
                  else begin
                    (* An end arrived for an outer frame: close this one
                       implicitly — it still gets its step width. *)
                    n.steps <- n.steps + (step - begin_step);
                    close rest
                  end
            in
            stack := close !stack
          end
      | Event.Stage_cost { stage; cycles; steps; count } ->
          let n = child_of (top ()) stage in
          n.calls <- n.calls + count;
          n.cycles <- n.cycles +. cycles;
          n.steps <- n.steps + steps
      | _ -> ())
    events;
  { root }

let to_folded t =
  let buf = Buffer.create 256 in
  let rec walk path n =
    let path = if path = "" then n.label else path ^ ";" ^ n.label in
    let self = self_steps n in
    if self > 0 then
      Buffer.add_string buf (Printf.sprintf "%s %d\n" path self);
    List.iter (walk path) (children n)
  in
  List.iter (walk "") (roots t);
  Buffer.contents buf

let rec node_json n =
  Json.obj
    [
      ("label", Json.quote n.label);
      ("calls", string_of_int n.calls);
      ("steps", string_of_int n.steps);
      ("self_steps", string_of_int (self_steps n));
      ("wall_ns", string_of_int n.wall_ns);
      ("minor_words", string_of_int n.minor_words);
      ("major_words", string_of_int n.major_words);
      ("cycles", Json.number n.cycles);
      ("children", Json.arr (List.map node_json (children n)));
    ]

let to_json t =
  Json.obj
    [
      ("version", "1");
      ("weight", {|"guest_steps"|});
      ("roots", Json.arr (List.map node_json (roots t)));
    ]
