type event =
  | Start of { task : int }
  | Steal of { task : int }
  | Finish of { task : int; seconds : float }

type stats = { jobs : int; tasks : int; busy : float; elapsed : float }

let speedup s = if s.elapsed > 1e-9 then s.busy /. s.elapsed else 1.0
let default_jobs = Supervisor.default_jobs

(* Each task's exception comes back as a value, so the supervisor sees
   only successes: no retry, no breaker, and a task raising
   [Supervisor.Crash_worker] kills no worker. *)
let map ?jobs ?(on_event = fun _ -> ()) f tasks =
  let on_event = function
    | Supervisor.Attempt { task; _ } -> on_event (Start { task })
    | Supervisor.Task_done { task; seconds; _ } ->
        on_event (Finish { task; seconds })
    | Retry _ | Gave_up _ | Breaker_opened _ | Worker_lost _ | Degraded _ -> ()
  in
  let outcomes, (st : Supervisor.stats) =
    Supervisor.run ?jobs ~policy:Supervisor.one_attempt ~on_event
      (fun ~attempt:_ x -> try Ok (f x) with e -> Error e)
      tasks
  in
  (* In index order, so the lowest-indexed exception is the one raised. *)
  let results =
    Array.map
      (function
        | Supervisor.Done (Ok v) -> v
        | Done (Error e) -> raise e
        | Poisoned _ -> assert false (* no task ever fails *))
      outcomes
  in
  ( results,
    { jobs = st.jobs; tasks = st.tasks; busy = st.busy; elapsed = st.elapsed }
  )
