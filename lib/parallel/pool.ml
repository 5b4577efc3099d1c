type event =
  | Start of { worker : int; task : int }
  | Steal of { worker : int; victim : int; task : int }
  | Finish of { worker : int; task : int; seconds : float }

type stats = {
  jobs : int;
  tasks : int;
  steals : int;
  busy : float;
  elapsed : float;
}

let speedup s = if s.elapsed > 1e-9 then s.busy /. s.elapsed else 1.0
let default_jobs () = Domain.recommended_domain_count ()

(* ---- per-worker deque ------------------------------------------------- *)

(* A mutex-protected slice of the task-index space.  The owner pops
   from the front (lo), thieves from the back (hi): the owner walks its
   block in index order while steals peel work off the far end, so the
   two ends only meet when the deque drains. *)
type deque = {
  lock : Mutex.t;
  slots : int array;
  mutable lo : int;
  mutable hi : int;  (* exclusive *)
}

let pop_front d =
  Mutex.lock d.lock;
  let r =
    if d.lo < d.hi then (
      let t = d.slots.(d.lo) in
      d.lo <- d.lo + 1;
      Some t)
    else None
  in
  Mutex.unlock d.lock;
  r

let pop_back d =
  Mutex.lock d.lock;
  let r =
    if d.lo < d.hi then (
      d.hi <- d.hi - 1;
      Some d.slots.(d.hi))
    else None
  in
  Mutex.unlock d.lock;
  r

(* ---- collector messages ----------------------------------------------- *)

type 'b msg =
  | Msg_steal of { worker : int; victim : int; task : int }
  | Msg_start of { worker : int; task : int }
  | Msg_done of {
      worker : int;
      task : int;
      result : ('b, exn) result;
      seconds : float;
    }

(* ---- workers ---------------------------------------------------------- *)

let worker_loop ~jobs ~deques ~channel ~f ~tasks w =
  let next () =
    match pop_front deques.(w) with
    | Some t -> Some (t, None)
    | None ->
        let rec scan k =
          if k >= jobs then None
          else
            let v = (w + k) mod jobs in
            match pop_back deques.(v) with
            | Some t -> Some (t, Some v)
            | None -> scan (k + 1)
        in
        scan 1
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some (task, stolen_from) ->
        Option.iter
          (fun victim ->
            Channel.send channel (Msg_steal { worker = w; victim; task }))
          stolen_from;
        Channel.send channel (Msg_start { worker = w; task });
        let t0 = Unix.gettimeofday () in
        let result = try Ok (f tasks.(task)) with e -> Error e in
        let seconds = Unix.gettimeofday () -. t0 in
        Channel.send channel (Msg_done { worker = w; task; result; seconds });
        loop ()
  in
  loop ()

(* ---- sequential short-circuit ----------------------------------------- *)

let map_seq ~on_event f tasks =
  let n = Array.length tasks in
  let t0 = Unix.gettimeofday () in
  let results =
    Array.mapi
      (fun i x ->
        on_event (Start { worker = 0; task = i });
        let ta = Unix.gettimeofday () in
        let v = f x in
        let seconds = Unix.gettimeofday () -. ta in
        on_event (Finish { worker = 0; task = i; seconds });
        v)
      tasks
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (results, { jobs = 1; tasks = n; steals = 0; busy = elapsed; elapsed })

(* ---- the pool --------------------------------------------------------- *)

let map ?jobs ?(on_event = fun _ -> ()) f tasks =
  let n = Array.length tasks in
  let jobs = min (match jobs with Some j -> j | None -> default_jobs ()) n in
  if jobs <= 1 then map_seq ~on_event f tasks
  else begin
    let t0 = Unix.gettimeofday () in
    (* Block partition: worker w owns [w*n/jobs, (w+1)*n/jobs). *)
    let deques =
      Array.init jobs (fun w ->
          let lo = w * n / jobs and hi = (w + 1) * n / jobs in
          {
            lock = Mutex.create ();
            slots = Array.init (hi - lo) (fun i -> lo + i);
            lo = 0;
            hi = hi - lo;
          })
    in
    let channel = Channel.create () in
    let domains =
      Array.init jobs (fun w ->
          Domain.spawn (fun () ->
              worker_loop ~jobs ~deques ~channel ~f ~tasks w))
    in
    let results = Array.make n None in
    let errors = ref [] in
    let steals = ref 0 in
    let busy = ref 0.0 in
    let completed = ref 0 in
    let batch = Queue.create () in
    while !completed < n do
      Channel.receive_batch channel batch;
      Queue.iter
        (fun msg ->
          match msg with
          | Msg_steal { worker; victim; task } ->
              incr steals;
              on_event (Steal { worker; victim; task })
          | Msg_start { worker; task } -> on_event (Start { worker; task })
          | Msg_done { worker; task; result; seconds } -> (
              incr completed;
              busy := !busy +. seconds;
              on_event (Finish { worker; task; seconds });
              match result with
              | Ok v -> results.(task) <- Some v
              | Error e -> errors := (task, e) :: !errors))
        batch;
      Queue.clear batch
    done;
    Array.iter Domain.join domains;
    (match List.sort compare !errors with
    | (_, e) :: _ -> raise e
    | [] -> ());
    let results =
      Array.map
        (function Some v -> v | None -> assert false (* all tasks Ok *))
        results
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    (results, { jobs; tasks = n; steals = !steals; busy = !busy; elapsed })
  end
