//! Incremental solving: long-lived sessions with delta amends.
//!
//! A [`Session`] pins one instance inside an [`Engine`] and re-solves it
//! after each [`JobDelta`] amendment, reusing as much of the previous
//! solve as correctness allows:
//!
//! 1. **Shard splicing.** The amended instance is re-decomposed at its
//!    laminar forest roots ([`crate::shard::plan`]); shards whose
//!    *normalized content* (machine parallelism + exact job list, after
//!    shifting the root window to slot 0) matches a part of the previous
//!    solve are spliced in without touching the solver. Content keying
//!    makes splices bit-identical by construction — there is nothing to
//!    re-verify per shard, and [`atsched_core::decompose::merge`]
//!    re-verifies the assembled schedule end to end anyway.
//! 2. **Engine cache.** Dirty shards first consult the engine's solve
//!    cache (shared with [`Engine::solve_batch`]), so a shard shape seen
//!    anywhere before — by any session or batch — is reused.
//! 3. **Cold-path re-solve.** A genuinely dirty shard (or the whole
//!    instance, when it has a single root) is solved by
//!    [`solve_nested`] under the session's own [`SolverOptions`] — the
//!    very path a cold solve takes. With the defaults that is the tree
//!    DP first, then the verified hybrid simplex, then the exact
//!    simplex; the options' [`LpStrategy`](atsched_core::solver::LpStrategy)
//!    applies exactly as it does to [`Engine::solve_one`].
//!
//! The invariant is absolute: **any amend sequence yields exactly the
//! result a cold solve of the final instance would**. Layers 1 and 2 are
//! content-identical reuse, and layer 3 *is* the cold solve.
//!
//! Sessions deliberately ignore [`EngineConfig::timeout`]: the splice
//! bookkeeping needs borrowed state that the budget helper thread's
//! `'static` bound rules out, and amends are expected to be fast by
//! design. Panics are still contained per solve.
//!
//! ## Lifecycle
//!
//! [`Engine::open_session`] solves eagerly and registers the session in
//! the engine's table; [`Engine::session`] re-attaches to it by id (the
//! serve layer's correlation handle); [`Engine::close_session`] drops
//! the cached state. The engine keeps sessions until explicitly closed —
//! the serve layer layers TTL eviction on top.
//!
//! ## Metrics
//!
//! When the engine observes, sessions record `engine.open_ms` /
//! `engine.amend_ms` latency histograms, an `engine.amends` counter, an
//! `engine.sessions_open` gauge, per-amend reuse counters
//! (`engine.amend_shards_reused`, `engine.amend_shards_solved`), and a
//! `span.amend.ms` span wrapping the re-solve. Dirty-shard solves record
//! the same solver spans and LP-path counters as any cold solve.

use crate::batch::{settle, Engine, Outcome};
use crate::cache::CacheKey;
use crate::isolate::{isolated, Interrupt};
use crate::par::par_map_workers;
use crate::shard;
use atsched_core::decompose::merge;
use atsched_core::delta::{apply, DeltaError, JobDelta};
use atsched_core::instance::{Instance, Job};
use atsched_core::solver::{solve_nested, SolveError, SolveResult, SolverOptions};
use atsched_obs as obs;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Opaque session identifier, unique per [`Engine`].
///
/// Stable across [`Engine::session`] lookups; the serve layer uses it to
/// correlate `amend` requests with their `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id, for wire protocols and logs.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl From<u64> for SessionId {
    fn from(id: u64) -> Self {
        SessionId(id)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The engine-side session registry: monotonically increasing ids and
/// the live session states.
#[derive(Debug, Default)]
pub(crate) struct SessionTable {
    next: AtomicU64,
    map: Mutex<HashMap<u64, Arc<Mutex<SessionState>>>>,
}

/// Content key for a previously solved part: machine parallelism plus
/// the exact (normalized) job list. Two shards with equal keys are the
/// same solver input, so their results are interchangeable bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PartKey {
    g: i64,
    jobs: Vec<Job>,
}

impl PartKey {
    fn of(inst: &Instance) -> Self {
        PartKey { g: inst.g, jobs: inst.jobs.clone() }
    }
}

/// Everything a session carries between amends.
#[derive(Debug)]
struct SessionState {
    /// The current (post-amend) instance.
    instance: Instance,
    /// The options the session was opened with (fixed for its lifetime).
    opts: SolverOptions,
    /// Outcome of the most recent solve.
    outcome: Outcome,
    /// Per-part results of the previous solve, keyed by normalized
    /// content. Rebuilt on every solve, so it never outgrows the
    /// current decomposition. Shared, so splicing a part into the next
    /// solve (and into its merge) copies a pointer, not a schedule.
    parts: HashMap<PartKey, Arc<SolveResult>>,
}

/// A live incremental-solving session (see the [module docs](self)).
///
/// Borrow-tied to its engine; cheap to re-obtain via [`Engine::session`].
/// Cloning the handle is not needed — the state behind it is shared.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    id: SessionId,
    state: Arc<Mutex<SessionState>>,
}

impl Engine {
    /// Open a session on `inst`: solve it eagerly under this engine's
    /// policy and keep the per-part results for future amends.
    ///
    /// The options are fixed for the session's lifetime and govern the
    /// opening solve and every amend alike. The initial solve records
    /// into `engine.open_ms`.
    pub fn open_session(&self, inst: Instance, opts: &SolverOptions) -> Session<'_> {
        let mut state = SessionState {
            instance: inst,
            opts: opts.clone(),
            outcome: Outcome::Failed("session not yet solved".into()),
            parts: HashMap::new(),
        };
        let start = Instant::now();
        let outcome = self.observed(|| self.session_solve(&mut state, false));
        state.outcome = outcome;
        self.tally(&state.outcome);
        if self.cfg.observe {
            self.registry.histogram("engine.open_ms").record(start.elapsed().as_secs_f64() * 1e3);
        }

        let id = SessionId(self.sessions.next.fetch_add(1, Ordering::Relaxed) + 1);
        let state = Arc::new(Mutex::new(state));
        let open = {
            let mut map = self.sessions.map.lock().expect("session table lock");
            map.insert(id.0, Arc::clone(&state));
            map.len()
        };
        if self.cfg.observe {
            self.registry.gauge("engine.sessions_open").set(open as i64);
        }
        Session { engine: self, id, state }
    }

    /// Re-attach to an open session by id.
    pub fn session(&self, id: SessionId) -> Option<Session<'_>> {
        let state = {
            let map = self.sessions.map.lock().expect("session table lock");
            Arc::clone(map.get(&id.0)?)
        };
        Some(Session { engine: self, id, state })
    }

    /// Close a session, dropping its cached parts. Returns
    /// whether the id was open. (Results already copied into the
    /// engine's solve cache stay there.)
    pub fn close_session(&self, id: SessionId) -> bool {
        let (removed, open) = {
            let mut map = self.sessions.map.lock().expect("session table lock");
            (map.remove(&id.0).is_some(), map.len())
        };
        if removed && self.cfg.observe {
            self.registry.gauge("engine.sessions_open").set(open as i64);
        }
        removed
    }

    /// Number of currently open sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.map.lock().expect("session table lock").len()
    }

    /// Solve `state.instance`, splicing previous parts where the
    /// decomposition's content matches and solving everything else on
    /// the cold path. `amend` enables the amend reuse counters (the
    /// opening solve skips them).
    fn session_solve(&self, state: &mut SessionState, amend: bool) -> Outcome {
        let start = Instant::now();
        let inst = &state.instance;
        let opts = &state.opts;
        let prev_parts = std::mem::take(&mut state.parts);
        let mut next_parts: HashMap<PartKey, Arc<SolveResult>> = HashMap::new();
        let mut reused = 0u64;
        let mut dirty_solved = 0u64;

        let solved: Result<Result<SolveResult, SolveError>, Interrupt> = isolated(|| {
            match shard::plan(inst, opts) {
                Some(dec) => {
                    let sopts = shard::shard_options(opts);
                    let n = dec.len();
                    // Resolution pass: splice from session parts, then
                    // from the engine cache; everything else is dirty.
                    let mut slots: Vec<Option<Result<Arc<SolveResult>, SolveError>>> =
                        (0..n).map(|_| None).collect();
                    let mut dirty: Vec<usize> = Vec::new();
                    for (i, sh) in dec.shards.iter().enumerate() {
                        if let Some(part) = prev_parts.get(&PartKey::of(&sh.instance)) {
                            reused += 1;
                            slots[i] = Some(Ok(Arc::clone(part)));
                        } else if let Some(found) = self
                            .cfg
                            .cache
                            .then(|| CacheKey::new(&sh.instance, &sopts))
                            .and_then(|k| self.cache.get(&k))
                        {
                            if self.cfg.observe {
                                self.registry.counter("engine.shard_cache_hits").inc();
                            }
                            reused += 1;
                            slots[i] = Some(found.map(Arc::new));
                        } else {
                            dirty.push(i);
                        }
                    }
                    dirty_solved += dirty.len() as u64;

                    // Fan the dirty shards out on the cold-solve path.
                    let workers = self.cfg.effective_workers();
                    let collector = obs::current_collector();
                    let dirty_out = par_map_workers(dirty, workers, |i| {
                        let run = || solve_nested(&dec.shards[i].instance, &sopts);
                        let res = match &collector {
                            Some(c) => obs::with_collector(c.clone(), run),
                            None => run(),
                        };
                        (i, res)
                    });
                    for (i, res) in dirty_out {
                        if self.cfg.cache {
                            let key = CacheKey::new(&dec.shards[i].instance, &sopts);
                            self.cache.insert(key, res.clone());
                        }
                        slots[i] = Some(res.map(Arc::new));
                    }

                    // Combine in root order; the first error wins,
                    // matching both the monolithic solve and
                    // [`shard::solve_decomposed`]. Successful parts are
                    // kept for future amends even when a sibling failed —
                    // content keys stay valid regardless.
                    let mut parts: Vec<Arc<SolveResult>> = Vec::with_capacity(n);
                    let mut first_err: Option<SolveError> = None;
                    for (sh, slot) in dec.shards.iter().zip(slots) {
                        match slot.expect("every shard resolved") {
                            Ok(r) => {
                                if first_err.is_none() {
                                    parts.push(Arc::clone(&r));
                                }
                                next_parts.insert(PartKey::of(&sh.instance), r);
                            }
                            Err(e) => {
                                if first_err.is_none() {
                                    first_err = Some(e);
                                }
                            }
                        }
                    }
                    match first_err {
                        Some(e) => Err(e),
                        None => {
                            let span = obs::Span::enter("solve.merge");
                            let merged = merge(inst, &dec, &parts);
                            drop(span);
                            obs::counter_add("engine.shards", n as u64);
                            Ok(merged)
                        }
                    }
                }
                // Single-root (or sharding-off) instances degenerate to
                // one pseudo-shard: splice on identical content, solve
                // cold otherwise.
                None => {
                    let key = PartKey::of(inst);
                    if let Some(part) = prev_parts.get(&key) {
                        reused += 1;
                        let result = SolveResult::clone(part);
                        next_parts.insert(key, Arc::clone(part));
                        Ok(result)
                    } else {
                        dirty_solved += 1;
                        let res = solve_nested(inst, opts);
                        if let Ok(r) = &res {
                            next_parts.insert(key, Arc::new(r.clone()));
                        }
                        res
                    }
                }
            }
        });

        state.parts = next_parts;
        if self.cfg.observe && amend {
            self.registry.counter("engine.amends").inc();
            self.registry.counter("engine.amend_shards_reused").add(reused);
            self.registry.counter("engine.amend_shards_solved").add(dirty_solved);
        }

        match solved {
            Ok(deterministic) => {
                if self.cfg.cache {
                    let key = CacheKey::new(&state.instance, &state.opts);
                    self.cache.insert(key, deterministic.clone());
                    if self.cfg.observe {
                        self.registry.gauge("engine.cache_entries").set(self.cache.len() as i64);
                    }
                }
                settle(deterministic, start.elapsed(), false)
            }
            Err(Interrupt::TimedOut) => Outcome::TimedOut, // unreachable: sessions never budget
            Err(Interrupt::Panicked(msg)) => Outcome::Failed(format!("solver panicked: {msg}")),
        }
    }
}

impl Session<'_> {
    /// This session's identifier.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The outcome of the most recent solve (open or amend).
    pub fn outcome(&self) -> Outcome {
        self.state.lock().expect("session lock").outcome.clone()
    }

    /// The current (post-amend) instance.
    pub fn instance(&self) -> Instance {
        self.state.lock().expect("session lock").instance.clone()
    }

    /// Apply `delta` to the session's instance and re-solve
    /// incrementally.
    ///
    /// On a delta error ([`DeltaError`]) the session is untouched. An
    /// amend whose *solve* fails (e.g. the amended instance is
    /// infeasible) keeps the session open on the amended instance —
    /// returning [`Outcome::Infeasible`] — so a later amend can repair
    /// it; reusable parts from earlier solves are retained throughout.
    ///
    /// The returned outcome is bit-identical to what a cold
    /// [`Engine::solve_one`] of the amended instance would produce.
    pub fn amend(&self, delta: &JobDelta) -> Result<Outcome, DeltaError> {
        let mut st = self.state.lock().expect("session lock");
        st.instance = apply(&st.instance, delta)?;
        let start = Instant::now();
        let outcome = self.engine.observed(|| {
            let _span = obs::Span::enter("amend");
            self.engine.session_solve(&mut st, true)
        });
        st.outcome = outcome.clone();
        drop(st);
        self.engine.tally(&outcome);
        if self.engine.cfg.observe {
            self.engine
                .registry
                .histogram("engine.amend_ms")
                .record(start.elapsed().as_secs_f64() * 1e3);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::EngineConfig;
    use atsched_core::solver::ShardMode;

    fn inst(g: i64, jobs: Vec<(i64, i64, i64)>) -> Instance {
        Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect()).unwrap()
    }

    /// `roots` copies of a 3-job subtree at disjoint offsets.
    fn many_root(roots: usize) -> Instance {
        let mut jobs = Vec::new();
        for k in 0..roots as i64 {
            let base = 12 * k;
            jobs.push((base, base + 8, 2));
            jobs.push((base + 1, base + 4, 1));
            jobs.push((base + 5, base + 7, 1));
        }
        inst(2, jobs)
    }

    fn assert_bit_identical(a: &Outcome, b: &Outcome) {
        match (a, b) {
            (Outcome::Solved(x), Outcome::Solved(y)) => {
                assert_eq!(x.result.schedule, y.result.schedule);
                assert_eq!(x.result.z, y.result.z);
                assert_eq!(x.result.stats.lp_objective_exact, y.result.stats.lp_objective_exact);
                assert_eq!(x.result.stats.opened_slots, y.result.stats.opened_slots);
            }
            (Outcome::Infeasible, Outcome::Infeasible) => {}
            other => panic!("outcome mismatch: {other:?}"),
        }
    }

    #[test]
    fn open_then_amend_matches_cold_solve() {
        let opts = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        let engine = Engine::new(EngineConfig::default().workers(2));
        let session = engine.open_session(many_root(4), &opts);
        assert!(session.outcome().is_solved());

        // Move one job's window inside the second root, then add and
        // remove jobs; after every amend the outcome must be
        // bit-identical to a cold solve of the session's instance.
        let deltas = vec![
            JobDelta::new().modify_window(4, 13, 17),
            JobDelta::new().add(Job::new(1, 4, 1)),
            JobDelta::new().remove(5),
        ];
        let cold_engine = Engine::new(EngineConfig::default().cache(false).workers(2));
        for delta in &deltas {
            let outcome = session.amend(delta).expect("delta applies");
            let cold = cold_engine.solve_one(&session.instance(), &opts);
            assert_bit_identical(&outcome, &cold);
        }
    }

    #[test]
    fn amend_reuses_untouched_shards() {
        let opts = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        // Cache off isolates the session's own part splicing from the
        // engine-wide shard cache.
        let engine = Engine::new(EngineConfig::default().workers(1).cache(false));
        let session = engine.open_session(many_root(4), &opts);

        // Dirty only the second root (jobs 3..6 live in it).
        session.amend(&JobDelta::new().modify_window(4, 13, 17)).unwrap();
        let snap = engine.registry().snapshot();
        assert_eq!(snap.counter("engine.amend_shards_reused"), Some(3), "{snap:?}");
        assert_eq!(snap.counter("engine.amend_shards_solved"), Some(1), "{snap:?}");
        assert_eq!(snap.counter("engine.amends"), Some(1));
        assert_eq!(snap.histogram("engine.amend_ms").map(|h| h.count), Some(1));
        assert_eq!(snap.histogram("span.amend.ms").map(|h| h.count), Some(1));
    }

    #[test]
    fn amends_that_split_and_merge_roots_stay_exact() {
        let opts = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        let engine = Engine::new(EngineConfig::default().workers(2));
        // Two roots bridged into one by a spanning job, then split again.
        let session = engine.open_session(many_root(2), &opts);
        let cold = Engine::new(EngineConfig::default().cache(false));

        let bridged = session.amend(&JobDelta::new().add(Job::new(0, 20, 1))).unwrap();
        assert_bit_identical(&bridged, &cold.solve_one(&session.instance(), &opts));

        let split = session.amend(&JobDelta::new().remove(6)).unwrap();
        assert_bit_identical(&split, &cold.solve_one(&session.instance(), &opts));
    }

    #[test]
    fn infeasible_amend_keeps_session_repairable() {
        let opts = SolverOptions::exact();
        let engine = Engine::new(EngineConfig::default());
        let session = engine.open_session(inst(1, vec![(0, 4, 2)]), &opts);
        assert!(session.outcome().is_solved());

        // g=1, three unit jobs in a 2-slot window: infeasible.
        let overload =
            JobDelta::new().add(Job::new(0, 2, 1)).add(Job::new(0, 2, 1)).add(Job::new(0, 2, 1));
        let outcome = session.amend(&overload).unwrap();
        assert!(matches!(outcome, Outcome::Infeasible));
        assert_eq!(session.instance().num_jobs(), 4);

        // Removing the overload repairs the session.
        let repaired = session.amend(&JobDelta::new().remove(1).remove(2).remove(3)).unwrap();
        assert!(repaired.is_solved());
    }

    #[test]
    fn bad_delta_leaves_session_untouched() {
        let engine = Engine::new(EngineConfig::default());
        let session =
            engine.open_session(inst(2, vec![(0, 4, 2), (1, 3, 1)]), &SolverOptions::exact());
        let before = session.instance();
        let err = session.amend(&JobDelta::new().remove(9)).unwrap_err();
        assert!(matches!(err, DeltaError::UnknownJob { .. }));
        assert_eq!(session.instance(), before);
        assert!(session.outcome().is_solved());
    }

    #[test]
    fn session_table_lifecycle() {
        let engine = Engine::new(EngineConfig::default());
        let opts = SolverOptions::exact();
        let a = engine.open_session(inst(2, vec![(0, 4, 2)]), &opts).id();
        let b = engine.open_session(inst(2, vec![(0, 5, 3)]), &opts).id();
        assert_ne!(a, b);
        assert_eq!(engine.open_sessions(), 2);
        assert_eq!(engine.registry().snapshot().gauge("engine.sessions_open"), Some(2));

        // Re-attach and amend through the looked-up handle.
        let found = engine.session(a).expect("session a open");
        assert_eq!(found.id(), a);
        assert!(found.amend(&JobDelta::new().add(Job::new(1, 3, 1))).unwrap().is_solved());

        assert!(engine.close_session(a));
        assert!(!engine.close_session(a), "double close is a no-op");
        assert!(engine.session(a).is_none());
        assert_eq!(engine.open_sessions(), 1);
        assert_eq!(engine.registry().snapshot().gauge("engine.sessions_open"), Some(1));
        assert!(engine.close_session(b));
    }

    #[test]
    fn dirty_shards_take_the_tree_path() {
        // Rigid jobs (window length == processing) pin every LP
        // variable, so the tree DP certifies each shard without the
        // simplex; a dirty shard must take that path like a cold solve.
        let opts = SolverOptions { shard: ShardMode::Force, ..SolverOptions::default() };
        let engine = Engine::new(EngineConfig::default().workers(1).cache(false));
        let rigid = |k: i64| vec![(12 * k, 12 * k + 4, 4), (12 * k + 1, 12 * k + 3, 2)];
        let session = engine.open_session(inst(3, (0..4).flat_map(rigid).collect()), &opts);
        assert!(session.outcome().is_solved());

        // Dirty the second root only, with another rigid job.
        let before = engine.registry().snapshot();
        let outcome = session.amend(&JobDelta::new().add(Job::new(13, 15, 2))).unwrap();
        let after = engine.registry().snapshot();
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert_eq!(delta("engine.amend_shards_solved"), 1, "{after:?}");
        assert_eq!(delta("lp.tree_solved"), 1, "{after:?}");
        let lp_spans =
            |s: &obs::RegistrySnapshot| s.histogram("span.lp.self_ms").map_or(0, |h| h.count);
        assert_eq!(lp_spans(&after), lp_spans(&before), "the simplex must not run");

        let cold = Engine::new(EngineConfig::default().cache(false));
        assert_bit_identical(&outcome, &cold.solve_one(&session.instance(), &opts));
    }
}
