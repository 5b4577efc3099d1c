(** Cross-config differential execution oracle.

    One generated program, one guest seed; the pure interpreter is the
    reference and every arm of a fixed config matrix — thresholds
    (including profiling-only, i.e. optimizer off), bounded caches
    under each eviction policy, trace scheduling, adaptive
    re-optimisation, the shadow oracle — must reproduce its end-state
    fingerprint bit for bit.  On top of the state comparison the
    oracle checks metamorphic / perf-counter invariants:

    - {b unbounded ≡ pre-cache}: an unbounded-cache arm must record
      zero evictions and zero flushes — the invariant that keeps the
      default engine byte-identical to the pre-cache engine;
    - {b AVEP partition}: on the profiling-only arm of a cleanly
      halting run, [sum(use(b) * size(b)) = steps] — every executed
      instruction is profiled exactly once;
    - {b profiling monotonicity}: no optimizing arm performs more
      profiling operations than the profiling-only arm;
    - {b translation invariance}: unbounded, non-dissolving arms
      cold-translate exactly the same number of blocks;
    - {b region accounting}: completions + side exits never exceed
      entries;
    - {b telemetry-sink identity}: re-running one arm with a live sink
      changes neither the fingerprint, the cycle count, nor the
      profiling-op count — telemetry must be observation only;
    - {b stage-step partition}: with a live sink, the per-stage step
      attribution sums exactly to the executed instruction count;
    - {b suspend/resume identity}: suspending one optimizing arm at a
      seeded guest instruction, round-tripping the engine image
      through its serialized snapshot text and completing the run
      reproduces the uninterrupted arm's fingerprint and cycle count
      exactly (the fuzz-scale form of docs/snapshots.md's guarantee);
    - {b one pass}: the eight arms that never touch the machine ([t0],
      [t2], [t8], [t2-lru], [t2-flush], [t2-hot], [t2-adaptive],
      [t2-trace]) run again as one {!Tpdbt_dbt.Engine.Group}, all fed
      by one interpretation of the guest, and each member reports
      exactly what its own run reported: steps, outputs, error, cycles,
      every perf counter, region stats and profile text ([t2-shadow]
      reads the registers, so it keeps a driver of its own).

    Everything is deterministic: same program + seed, same verdict. *)

type divergence = {
  arm : string;  (** config label, or the metamorphic property's arm *)
  kind : string;  (** ["state"], ["crash"], or ["metamorphic:<name>"] *)
  detail : string;
}

type verdict = {
  divergences : divergence list;
  skipped : string option;
      (** the case could not be judged (e.g. the reference run
          outlived the step budget — only degenerate shrink candidates
          do); no comparisons were made *)
  checks : int;  (** comparisons performed, for the summary *)
}

val mem_words : int
(** Data-memory size all oracle runs use (1024 words — small enough to
    hash cheaply, large enough for the generator's address window). *)

val max_steps : int
(** Per-run guest-instruction budget (200k; generated programs
    terminate well under it by construction). *)

val arm_labels : string list
(** The config matrix, in evaluation order. *)

val check :
  ?perturb:(arm:string -> Fingerprint.t -> Fingerprint.t) ->
  seed:int64 ->
  Tpdbt_isa.Program.t ->
  verdict
(** Run the full matrix.  [perturb] post-processes each engine arm's
    fingerprint before comparison — the hook the test harness uses to
    inject a deliberate translator bug and prove the oracle catches
    and shrinks it; production runs leave it unset.  Never raises: an
    exception escaping engine construction or execution is itself
    reported as a ["crash"] divergence. *)
