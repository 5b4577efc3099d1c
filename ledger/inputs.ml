(* Everything a workload feeds the program, drawn from one
   [Tpdbt_vm.Prng] stream seeded with the workload seed.  The program
   under test never sees the seed, only the benchmarks and requests
   drawn here.

   Draws come from decks: each suite member (or request class) is dealt
   once per shuffle, so every seed runs the same mix in a different
   order and pairing.  That keeps a run's cost independent of its seed
   while the seed still picks the inputs. *)

module Prng = Tpdbt_vm.Prng
module Spec = Tpdbt_workloads.Spec
module Suite = Tpdbt_workloads.Suite
module Json = Tpdbt_telemetry.Json

(* Every stage of every suite member runs into this guest-instruction
   budget (every member runs more), so the committed golden digests cover
   all 26 members and no draw is much dearer than another.  At this
   budget [Engine.run] takes 82% of a sweep's traced self time and
   [Engine.create] 15%; a full-length sweep spends 97% and 2.4% there
   (README.md, "Step budget").  A shorter budget lets the fixed cost of
   [Engine.create] dominate; a longer one leaves too few operations in a
   run for a steady median. *)
let max_steps = 2_000_000

(* The durable workload publishes a mid-run snapshot once per stage,
   after this many guest instructions: one per 2M instructions, the
   rate of a full-length sweep snapshotting every 2M.  It is not a
   divisor of [max_steps], so no snapshot falls on the budget's end. *)
let snapshot_every = 1_500_000

(* Step budget of a served [run] request. *)
let run_steps = 1_000_000

type 'a deck = {
  items : 'a array;
  order : int array;
  mutable next : int;
  rng : Prng.t;
}

let deck rng items =
  let items = Array.of_list items in
  {
    items;
    order = Array.init (Array.length items) Fun.id;
    next = Array.length items;
    rng;
  }

let deal d =
  let n = Array.length d.items in
  if d.next >= n then begin
    for i = n - 1 downto 1 do
      let j = Prng.below d.rng (i + 1) in
      let t = d.order.(i) in
      d.order.(i) <- d.order.(j);
      d.order.(j) <- t
    done;
    d.next <- 0
  end;
  let x = d.items.(d.order.(d.next)) in
  d.next <- d.next + 1;
  x

(* The served request mix, dealt in blocks of 20: 10% probes, 20%
   repeated [run] keys (warm-cache hits), 50% new [run] keys, 15%
   [translate], 5% two-member [sweep]s.  The mix puts the median inside
   the run-miss class; the sweeps take most of the daemon's time. *)
type cls = Probe | Hit | Miss | Translate | Sweep

let mix =
  List.concat_map
    (fun (c, n) -> List.init n (fun _ -> c))
    [ (Probe, 2); (Hit, 4); (Miss, 10); (Translate, 3); (Sweep, 1) ]

let class_name = function
  | Probe -> "probe"
  | Hit -> "run_hit"
  | Miss -> "run_miss"
  | Translate -> "translate"
  | Sweep -> "sweep"

type request =
  | Ping
  | Status
  | Run of { bench : Spec.t; threshold : int; steps : int; repeat : bool }
  | Translate_req of { bench : Spec.t; threshold : int; seed : int }
  | Sweep_req of Spec.t list

let request_class = function
  | Ping | Status -> Probe
  | Run { repeat = true; _ } -> Hit
  | Run _ -> Miss
  | Translate_req _ -> Translate
  | Sweep_req _ -> Sweep

let payload = function
  | Ping -> {|{"op":"ping"}|}
  | Status -> {|{"op":"status"}|}
  | Run { bench; threshold; steps; _ } ->
      Json.obj
        [
          ("op", Json.quote "run");
          ("workload", Json.quote bench.Spec.name);
          ("threshold", string_of_int threshold);
          ("max_steps", string_of_int steps);
        ]
  | Translate_req { bench; threshold; seed } ->
      Json.obj
        [
          ("op", Json.quote "translate");
          ("program", Json.quote (Spec.source bench));
          ("threshold", string_of_int threshold);
          ("seed", string_of_int seed);
        ]
  | Sweep_req benches ->
      Json.obj
        [
          ("op", Json.quote "sweep");
          ( "benches",
            Json.arr (List.map (fun b -> Json.quote b.Spec.name) benches) );
          ("max_steps", string_of_int max_steps);
          ("return_results", "true");
        ]

type t = {
  rng : Prng.t;
  ints : Spec.t deck;
  fps : Spec.t deck;
  members : Spec.t deck;
  thresholds : int deck;
  mix : cls deck;
  mutable misses : int;
  mutable recent : request list;  (** newest first, at most 7 *)
}

let create seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  {
    rng;
    ints = deck rng Suite.int_benchmarks;
    fps = deck rng Suite.fp_benchmarks;
    members = deck rng Suite.all;
    thresholds = deck rng (List.map snd Suite.thresholds);
    mix = deck rng mix;
    misses = 0;
    recent = [];
  }

(* One INT and one FP member: the unit of work of the sweep-style
   workloads. *)
let pair t =
  let i = deal t.ints in
  let f = deal t.fps in
  [ i; f ]

(* The pair every set-up warms up on, whatever the seed: members differ
   in memory footprint and so in cost, and a drawn warm-up pair would
   make set-up time depend on the seed. *)
let warm_int = List.hd Suite.int_benchmarks
let warm_fp = List.hd Suite.fp_benchmarks
let warm_up = [ warm_int; warm_fp ]

(* The requests that warm a fresh daemon: a probe, a sweep of the
   warm-up pair, a run and a translate.  The run's step budget is one
   no measured miss uses, so it leaves no key a measured hit could
   repeat. *)
let warm_up_requests =
  [
    Status;
    Sweep_req warm_up;
    Run { bench = warm_int; threshold = 5; steps = run_steps; repeat = false };
    Translate_req { bench = warm_fp; threshold = 5; seed = 1 };
  ]

(* A fresh [run] key: every miss gets its own step budget just under
   [run_steps], so no two misses share a warm-cache entry. *)
let miss t =
  t.misses <- t.misses + 1;
  let bench = deal t.members in
  let threshold = deal t.thresholds in
  let steps = run_steps - t.misses in
  let r = Run { bench; threshold; steps; repeat = false } in
  t.recent <- List.filteri (fun i _ -> i < 7) (r :: t.recent);
  r

let request t =
  match deal t.mix with
  | Probe -> if Prng.below t.rng 2 = 0 then Ping else Status
  | Hit -> (
      match t.recent with
      | [] -> miss t
      | recent -> (
          match List.nth recent (Prng.below t.rng (List.length recent)) with
          | Run r -> Run { r with repeat = true }
          | other -> other))
  | Miss -> miss t
  | Translate ->
      let bench = deal t.members in
      let threshold = deal t.thresholds in
      Translate_req { bench; threshold; seed = 1 + Prng.below t.rng 1_000_000 }
  | Sweep -> Sweep_req (pair t)
