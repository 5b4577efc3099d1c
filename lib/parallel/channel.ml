(* The collector channel: [Supervisor]'s workers talk to the collector
   exclusively through this queue, so the collector is the only domain
   that ever runs a callback. *)

type 'm t = { lock : Mutex.t; cond : Condition.t; q : 'm Queue.t }

let create () =
  { lock = Mutex.create (); cond = Condition.create (); q = Queue.create () }

let send ch msg =
  Mutex.lock ch.lock;
  Queue.push msg ch.q;
  Condition.signal ch.cond;
  Mutex.unlock ch.lock

(* Block until at least one message is queued, then move them all into
   [into] in one lock operation. *)
let receive_batch ch into =
  Mutex.lock ch.lock;
  while Queue.is_empty ch.q do
    Condition.wait ch.cond ch.lock
  done;
  Queue.transfer ch.q into;
  Mutex.unlock ch.lock
