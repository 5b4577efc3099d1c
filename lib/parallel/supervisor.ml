exception Crash_worker

type policy = {
  max_attempts : int;
  breaker_after : int;
  backoff_base : int;
  backoff_cap : int;
  seed : int64;
}

let default_policy =
  {
    max_attempts = 4;
    breaker_after = 3;
    backoff_base = 1;
    backoff_cap = 8;
    seed = 0x7D0B_5EEDL;
  }

let one_attempt = { default_policy with max_attempts = 1 }

(* OCaml 5.1 runs at most 128 domains in a 64-bit process (Max_domains
   in caml/domain.h), and the calling domain holds one of them. *)
let max_jobs = 127
let default_jobs () = min max_jobs (Domain.recommended_domain_count ())

type 'b outcome = Done of 'b | Poisoned of { attempts : int; reason : string }

type event =
  | Attempt of { task : int; attempt : int }
  | Task_done of { task : int; attempt : int; seconds : float }
  | Retry of { task : int; attempt : int; backoff : int; reason : string }
  | Gave_up of { task : int; attempts : int; reason : string }
  | Breaker_opened of { task : int; failures : int }
  | Worker_lost of { worker : int; task : int }
  | Degraded of { live : int }

type stats = {
  jobs : int;
  tasks : int;
  attempts : int;
  retries : int;
  poisoned : int;
  crashes : int;
  degraded : bool;
  busy : float;
  elapsed : float;
}

(* ---- deterministic backoff -------------------------------------------- *)

(* SplitMix64 finaliser: a cheap, well-mixed hash so the jitter is a
   pure function of (seed, task, attempt) — no PRNG state to thread,
   no wall-clock, identical schedule on every run and job count. *)
let mix64 x =
  let open Int64 in
  let x = add x 0x9E3779B97F4A7C15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

let backoff policy ~task ~attempt =
  let exp = min policy.backoff_cap (policy.backoff_base lsl (attempt - 1)) in
  let h =
    mix64
      (Int64.logxor policy.seed
         (Int64.of_int (((task + 1) * 0x10001) + (attempt * 0x61))))
  in
  let jitter =
    Int64.to_int (Int64.logand h 0xFFFFL) mod (policy.backoff_base + 1)
  in
  max 1 (exp + jitter)

(* ---- shared job queue -------------------------------------------------- *)

(* Workers draw from one shared blocking queue, which can grow at
   runtime (retries, crash requeues).  Contention is one lock operation
   per attempt — negligible against full engine runs. *)
type job = { j_task : int; j_attempt : int }

type jq = {
  q_lock : Mutex.t;
  q_cond : Condition.t;
  q_jobs : job Queue.t;
  mutable q_closed : bool;
}

let jq_create () =
  {
    q_lock = Mutex.create ();
    q_cond = Condition.create ();
    q_jobs = Queue.create ();
    q_closed = false;
  }

let jq_push q j =
  Mutex.lock q.q_lock;
  Queue.push j q.q_jobs;
  Condition.signal q.q_cond;
  Mutex.unlock q.q_lock

let jq_take q =
  Mutex.lock q.q_lock;
  while Queue.is_empty q.q_jobs && not q.q_closed do
    Condition.wait q.q_cond q.q_lock
  done;
  let r =
    if Queue.is_empty q.q_jobs then None else Some (Queue.pop q.q_jobs)
  in
  Mutex.unlock q.q_lock;
  r

(* Workers drain what is still queued, then exit. *)
let jq_close q =
  Mutex.lock q.q_lock;
  q.q_closed <- true;
  Condition.broadcast q.q_cond;
  Mutex.unlock q.q_lock

let jq_close_capture q =
  Mutex.lock q.q_lock;
  q.q_closed <- true;
  let leftover = List.of_seq (Queue.to_seq q.q_jobs) in
  Queue.clear q.q_jobs;
  Condition.broadcast q.q_cond;
  Mutex.unlock q.q_lock;
  leftover

(* ---- collector messages ----------------------------------------------- *)

type 'b exec = Exec_ok of 'b | Exec_failed of string | Exec_crashed

type 'b msg =
  | Msg_start of { task : int; attempt : int }
  | Msg_done of { task : int; attempt : int; exec : 'b exec; seconds : float }
  | Msg_crash of { worker : int; task : int; attempt : int; seconds : float }

(* ---- workers ----------------------------------------------------------- *)

let exec_task f ~attempt x =
  try Exec_ok (f ~attempt x) with
  | Crash_worker -> Exec_crashed
  | e -> Exec_failed (Printexc.to_string e)

let worker_loop ~queue ~channel ~f ~tasks w =
  let rec loop () =
    match jq_take queue with
    | None -> ()
    | Some { j_task = task; j_attempt = attempt } -> (
        Channel.send channel (Msg_start { task; attempt });
        let t0 = Unix.gettimeofday () in
        let exec = exec_task f ~attempt tasks.(task) in
        let seconds = Unix.gettimeofday () -. t0 in
        match exec with
        | Exec_crashed ->
            (* The worker "dies": it reports the loss and its domain
               returns.  Because a dead worker never takes from the
               queue again, the requeued attempt is automatically
               excluded from it. *)
            Channel.send channel
              (Msg_crash { worker = w; task; attempt; seconds })
        | _ ->
            Channel.send channel (Msg_done { task; attempt; exec; seconds });
            loop ())
  in
  loop ()

(* ---- the supervisor ---------------------------------------------------- *)

let run ?jobs ?(policy = default_policy) ?failed ?(on_event = fun _ -> ())
    ?(on_result = fun _ _ -> ()) f tasks =
  let n = Array.length tasks in
  let requested =
    match jobs with Some j -> j | None -> default_jobs ()
  in
  let jobs = max 0 (min requested n) in
  let t0 = Unix.gettimeofday () in
  let results = Array.make n None in
  let attempts = Array.make n 0 in
  let failures = Array.make n 0 in
  let unresolved = ref n in
  (* The logical clock: one tick per attempt whose completion the
     collector has processed.  Backoff delays are expressed in ticks
     and the clock fast-forwards when nothing is runnable, so the
     retry schedule costs no wall-clock time and replays identically
     at every job count. *)
  let tick = ref 0 in
  let delayed = ref [] in
  let inline_q = Queue.create () in
  let total_attempts = ref 0 in
  let retries = ref 0 in
  let poisoned = ref 0 in
  let crashes = ref 0 in
  let busy = ref 0.0 in
  let degraded = ref false in
  let inline = ref (jobs <= 1) in
  let live = ref (if jobs <= 1 then 0 else jobs) in
  let in_flight = ref 0 in
  let queue = jq_create () in
  let channel = Channel.create () in
  let domains =
    if jobs <= 1 then [||]
    else
      Array.init jobs (fun w ->
          Domain.spawn (fun () -> worker_loop ~queue ~channel ~f ~tasks w))
  in
  let schedule task =
    attempts.(task) <- attempts.(task) + 1;
    incr total_attempts;
    incr in_flight;
    let job = { j_task = task; j_attempt = attempts.(task) } in
    if !inline then Queue.push job inline_q else jq_push queue job
  in
  let resolve task outcome =
    results.(task) <- Some outcome;
    decr unresolved;
    match outcome with
    | Done v -> on_result task v
    | Poisoned _ -> incr poisoned
  in
  let give_up task reason =
    on_event (Gave_up { task; attempts = attempts.(task); reason });
    resolve task (Poisoned { attempts = attempts.(task); reason })
  in
  let schedule_retry ~due task =
    delayed := List.sort compare ((due, task) :: !delayed)
  in
  let release_due () =
    let due, later = List.partition (fun (d, _) -> d <= !tick) !delayed in
    delayed := later;
    List.iter (fun (_, task) -> schedule task) due
  in
  let handle_failure task attempt reason =
    failures.(task) <- failures.(task) + 1;
    if failures.(task) >= policy.breaker_after then begin
      on_event (Breaker_opened { task; failures = failures.(task) });
      resolve task (Poisoned { attempts = attempts.(task); reason })
    end
    else if attempts.(task) >= policy.max_attempts then give_up task reason
    else begin
      let b = backoff policy ~task ~attempt in
      incr retries;
      on_event (Retry { task; attempt = attempt + 1; backoff = b; reason });
      schedule_retry ~due:(!tick + b) task
    end
  in
  let handle_crash ~worker task =
    incr crashes;
    on_event (Worker_lost { worker; task });
    if not !inline then begin
      live := !live - 1;
      if !live < 2 then begin
        (* Graceful degradation: with fewer than two live workers the
           pool is no longer worth its coordination cost (and may be
           empty).  Capture whatever is still queued and run it — and
           every later retry — on the collector itself. *)
        degraded := true;
        inline := true;
        on_event (Degraded { live = !live });
        let leftover = jq_close_capture queue in
        (* the captured jobs stay in flight — they just run here now *)
        List.iter (fun j -> Queue.push j inline_q) leftover
      end
    end;
    (* A crash consumes an attempt number — that bounds a task that
       kills every worker it touches — but not a failure count: the
       breaker judges the task, and a lost worker is the harness's
       fault, not the task's. *)
    if attempts.(task) >= policy.max_attempts then
      give_up task "worker crashed"
    else schedule_retry ~due:!tick task
  in
  let complete task attempt exec seconds =
    incr tick;
    decr in_flight;
    busy := !busy +. seconds;
    match exec with
    | Exec_ok v -> (
        match (match failed with Some g -> g task v | None -> None) with
        | None ->
            on_event (Task_done { task; attempt; seconds });
            resolve task (Done v)
        | Some reason -> handle_failure task attempt reason)
    | Exec_failed reason -> handle_failure task attempt reason
    | Exec_crashed -> assert false
  in
  let complete_crash ~worker task seconds =
    incr tick;
    decr in_flight;
    busy := !busy +. seconds;
    handle_crash ~worker task
  in
  let run_inline { j_task = task; j_attempt = attempt } =
    on_event (Attempt { task; attempt });
    let ta = Unix.gettimeofday () in
    let exec = exec_task f ~attempt tasks.(task) in
    let seconds = Unix.gettimeofday () -. ta in
    match exec with
    | Exec_crashed -> complete_crash ~worker:0 task seconds
    | _ -> complete task attempt exec seconds
  in
  let batch = Queue.create () in
  let process = function
    | Msg_start { task; attempt } -> on_event (Attempt { task; attempt })
    | Msg_done { task; attempt; exec; seconds } ->
        complete task attempt exec seconds
    | Msg_crash { worker; task; attempt = _; seconds } ->
        complete_crash ~worker task seconds
  in
  for task = 0 to n - 1 do
    schedule task
  done;
  (* With one attempt per task nothing is ever requeued, so the queue
     can close now: each worker exits when it finds it empty, instead
     of idling until the last task completes.  An idle worker domain
     kept a two-benchmark sweep's peak RSS about 9% higher. *)
  if policy.max_attempts <= 1 then jq_close queue;
  while !unresolved > 0 do
    release_due ();
    if not (Queue.is_empty inline_q) then run_inline (Queue.pop inline_q)
    else if (not !inline) && !in_flight > 0 then begin
      Channel.receive_batch channel batch;
      Queue.iter process batch;
      Queue.clear batch
    end
    else begin
      match !delayed with
      | (due, _) :: _ ->
          (* Nothing runnable: fast-forward the logical clock to the
             next delayed retry instead of sleeping. *)
          tick := max !tick due;
          release_due ()
      | [] ->
          (* Degraded with a live straggler: its completion is the only
             thing left to wait for. *)
          Channel.receive_batch channel batch;
          Queue.iter process batch;
          Queue.clear batch
    end
  done;
  if Array.length domains > 0 then begin
    ignore (jq_close_capture queue);
    Array.iter Domain.join domains
  end;
  let outcomes =
    Array.map (function Some o -> o | None -> assert false) results
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  ( outcomes,
    {
      jobs = max 1 jobs;
      tasks = n;
      attempts = !total_attempts;
      retries = !retries;
      poisoned = !poisoned;
      crashes = !crashes;
      degraded = !degraded;
      busy = !busy;
      elapsed;
    } )
