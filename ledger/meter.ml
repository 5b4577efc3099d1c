(* The host's speed, read next to every timed operation.

   The ledger runs on shared virtual machines whose speed moves by a
   quarter or more between runs a minute apart, far more than the
   regressions it must catch.  So just before each operation (and each
   set-up) it times [kernel], a fixed piece of allocating, hashing and
   sorting OCaml code, and reports the operation's time scaled to the
   speed at which the kernel takes [reference] seconds.  The kernel is
   the ledger's own code and calls nothing in the libraries, so a change
   to the program moves the operation's time and not the kernel's.

   An operation that keeps [domains] cores busy is read against the
   kernel on as many domains at once, which sees the same contention for
   the shared cores and caches.  README.md ("Host speed") has the
   measurements behind this. *)

let kernel () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 16 in
  for i = 1 to 4000 do
    Hashtbl.replace h (string_of_int ((i * 7919) land 0xffff)) [ i; i + 1 ]
  done;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
  ignore (Sys.opaque_identity (List.sort compare l));
  Unix.gettimeofday () -. t0

(* The median of three runs, so that one run cut short by an interrupt
   does not decide the reading. *)
let median3 () =
  let a = kernel () in
  let b = kernel () in
  let c = kernel () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* The kernel's seconds: the mean over [domains] domains running it at
   once (each times its own runs, so spawning is not counted). *)
let measure ~domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn median3) in
  let mine = median3 () in
  let all = mine :: List.map Domain.join others in
  List.fold_left ( +. ) 0.0 all /. float_of_int domains

(* A reading is reused while it is less than [max_age] seconds old:
   operations of a few milliseconds would otherwise spend more time on
   readings than on themselves. *)
let max_age = 0.1
let last = ref (neg_infinity, 0, nan)

let read ~domains =
  let at, d, meter = !last in
  if d = domains && Unix.gettimeofday () -. at < max_age then meter
  else begin
    let meter = measure ~domains in
    last := (Unix.gettimeofday (), domains, meter);
    meter
  end

(* The first readings of a process are slow while its heap grows; a run
   takes a few before it times anything. *)
let warm_up ~domains =
  for _ = 1 to 5 do
    ignore (measure ~domains)
  done

(* The kernel's typical reading on the 2-core host of README.md, on one
   domain and on two.  They only fix the scale, so that scaled times
   read as seconds on that host; comparisons between commits do not
   depend on them. *)
let reference ~domains = if domains = 1 then 3.3e-3 else 5.0e-3

(* [secs] measured right after a reading of [meter] on [domains]
   domains, scaled to the reference speed. *)
let scale ~domains ~meter secs = secs *. reference ~domains /. meter
