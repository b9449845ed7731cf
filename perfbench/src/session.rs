//! `session_amend`: one caller thread, each op one `Session::amend` on
//! one of several sessions opened over 32-root instances.
//!
//! Amends come in pairs drawn from a seeded shuffle of every available
//! edit: a job's window widened to its root's hull and then restored, or
//! a unit job added over a root's hull and then removed. Each amend
//! changes one root, so exactly one shard is dirty and the other 31 are
//! spliced from the session's parts. The engine's solve cache is off on
//! this workload: with it on, every restore would be a cache hit and the
//! cache would grow by a merged 32-root result per amend, so the work and
//! the memory of an amend would depend on how many amends a run got
//! through. Session internals are private, so traced amends read the
//! layers from the engine's metric registry (exact counters and
//! span-time sums) around each amend.

use crate::layers::{overhead_share, Tally};
use crate::spans::Spans;
use crate::{check, multiroot, Budget, Opts, Phase, Report, Rng, SETUP_REPS};
use atsched_core::delta::{apply, JobDelta};
use atsched_core::instance::{Instance, Job};
use atsched_core::solver::SolverOptions;
use atsched_engine::{Engine, EngineConfig, Session, SessionId};
use atsched_obs::RegistrySnapshot;
use std::collections::BTreeMap;
use std::time::Instant;

const SESSIONS: u64 = 32;
/// Amends run during set-up (the last edits of the plan, which the
/// measured ops reach last if at all).
const WARMUP_AMENDS: usize = 16;
/// One amend in this many is re-solved cold and compared, untraced.
const COLD_CHECK_EVERY: u64 = 32;
/// The same for traced amends, which also time the cold solve.
const TRACED_COLD_EVERY: u64 = 4;
/// Slot stride of the 32-root layout: horizon 48 plus a gap of 1.
const STRIDE: i64 = 49;
const HORIZON: i64 = 48;
/// Input stream of the session instances.
const SESSION_STREAM: u64 = 2;

/// One reversible edit of one root of a session's base instance.
#[derive(Debug, Clone, Copy)]
struct Edit {
    session: usize,
    root: i64,
    kind: Kind,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Widen `job`'s window (originally `orig`) to the root hull.
    Widen { job: usize, orig: (i64, i64) },
    /// Add a unit job over the root hull, as the instance's last job.
    Add,
}

impl Edit {
    fn hull(self) -> (i64, i64) {
        (self.root * STRIDE, self.root * STRIDE + HORIZON)
    }

    /// The amend that applies the edit to a base of `n` jobs, or with
    /// `undo` takes it back.
    fn delta(self, n: usize, undo: bool) -> JobDelta {
        let (lo, hi) = self.hull();
        match (self.kind, undo) {
            (Kind::Widen { job, .. }, false) => JobDelta::new().modify_window(job, lo, hi),
            (Kind::Widen { job, orig }, true) => JobDelta::new().modify_window(job, orig.0, orig.1),
            (Kind::Add, false) => JobDelta::new().add(Job::new(lo, hi, 1)),
            (Kind::Add, true) => JobDelta::new().remove(n),
        }
    }
}

/// Every edit of session `session`'s `base` that keeps it feasible:
/// widening only relaxes, and a unit job over a whole root hull fits
/// whenever the root's volume leaves one machine-slot of the hull free.
fn edits(session: usize, base: &Instance) -> Vec<Edit> {
    let mut volume: BTreeMap<i64, i64> = BTreeMap::new();
    let mut out = Vec::new();
    for (job, j) in base.jobs.iter().enumerate() {
        let root = j.release.div_euclid(STRIDE);
        *volume.entry(root).or_default() += j.processing;
        let edit = Edit { session, root, kind: Kind::Widen { job, orig: (j.release, j.deadline) } };
        if (j.release, j.deadline) != edit.hull() {
            out.push(edit);
        }
    }
    for (root, v) in volume {
        if v < base.g * HORIZON {
            out.push(Edit { session, root, kind: Kind::Add });
        }
    }
    out
}

/// The sessions' base instances and the shuffled edits.
struct Plan {
    base: Vec<Instance>,
    edits: Vec<Edit>,
}

/// One planned amend.
struct Amend {
    session: usize,
    delta: JobDelta,
    /// The session's instance after the amend.
    expected: Instance,
}

impl Plan {
    fn new(seed: u64, base: Vec<Instance>) -> Plan {
        let mut edits: Vec<Edit> =
            base.iter().enumerate().flat_map(|(s, inst)| edits(s, inst)).collect();
        Rng::new(seed).shuffle(&mut edits);
        Plan { base, edits }
    }

    /// The `k`-th amend (cycling through the plan): even `k` applies an
    /// edit, odd `k` takes it back.
    fn amend(&self, k: usize) -> Amend {
        let edit = self.edits[(k / 2) % self.edits.len()];
        let base = &self.base[edit.session];
        let undo = k % 2 == 1;
        let expected = if undo {
            base.clone()
        } else {
            apply(base, &edit.delta(base.num_jobs(), false)).expect("planned edit applies")
        };
        Amend { session: edit.session, delta: edit.delta(base.num_jobs(), undo), expected }
    }
}

fn setup(seed: u64, sopts: &SolverOptions) -> (Engine, Vec<SessionId>, Plan) {
    let engine = Engine::new(EngineConfig::default().cache(false));
    let base: Vec<Instance> =
        (0..SESSIONS).map(|s| multiroot::instance(seed, SESSION_STREAM, s)).collect();
    let mut ids = Vec::new();
    for inst in &base {
        let session = engine.open_session(inst.clone(), sopts);
        if let Err(e) = check::outcome(inst, &session.outcome()) {
            crate::fatal(&format!("session open: {e}"));
        }
        ids.push(session.id());
    }
    let plan = Plan::new(seed, base);
    let sessions = sessions(&engine, &ids);
    let end = 2 * plan.edits.len();
    for k in end.saturating_sub(WARMUP_AMENDS)..end {
        let amend = plan.amend(k);
        let out = sessions[amend.session].amend(&amend.delta);
        let checked = out
            .map_err(|e| e.to_string())
            .and_then(|out| check::outcome(&amend.expected, &out).map(drop));
        if let Err(e) = checked {
            crate::fatal(&format!("warm-up amend: {e}"));
        }
    }
    drop(sessions);
    (engine, ids, plan)
}

fn sessions<'e>(engine: &'e Engine, ids: &[SessionId]) -> Vec<Session<'e>> {
    ids.iter().map(|id| engine.session(*id).expect("session stays open")).collect()
}

pub fn run(opts: &Opts) -> Report {
    let sopts = SolverOptions::default();
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's engine and sessions go before the next.
        drop(fixture.take());
        let start = Instant::now();
        let f = setup(opts.seed, &sopts);
        setup_s.push(start.elapsed().as_secs_f64());
        fixture = Some(f);
    }
    let (engine, ids, plan) = fixture.expect("at least one set-up");
    let sessions = sessions(&engine, &ids);
    let cold = Engine::new(EngineConfig::default().cache(false));
    let mut rng = Rng::new(opts.seed ^ 0x5e55);
    // Amend `k` on the sessions, timed by the caller, then checked.
    let mut amend = |k: usize, mut traced: Option<(&Spans, &mut Tally)>| {
        let amend = plan.amend(k);
        let registry = engine.registry();
        let before = traced.is_some().then(|| registry.snapshot());
        let start = Instant::now();
        let out = match &traced {
            Some((spans, _)) => {
                spans.time("amend", k as u64, None, |_| sessions[amend.session].amend(&amend.delta))
            }
            None => sessions[amend.session].amend(&amend.delta),
        };
        let dt = start.elapsed();
        let after = traced.is_some().then(|| registry.snapshot());
        let checked = out.map_err(|e| format!("amend rejected: {e}")).and_then(|outcome| {
            let r = check::outcome(&amend.expected, &outcome)?;
            let every = if traced.is_some() { TRACED_COLD_EVERY } else { COLD_CHECK_EVERY };
            if rng.below(every) == 0 {
                let t = Instant::now();
                let cold_out = cold.solve_one(&amend.expected, &sopts);
                let cold_ms = t.elapsed().as_secs_f64() * 1e3;
                if let Some((_, tally)) = &mut traced {
                    tally.cold_sampled_ms += cold_ms;
                    tally.amend_sampled_ms += dt.as_secs_f64() * 1e3;
                }
                check::same_result(r, check::solved(&cold_out)?)?;
            }
            if let (Some((_, tally)), Some(before), Some(after)) = (&mut traced, &before, &after) {
                let covered = fold_amend(tally, before, after);
                tally.covered_ms += covered.min(dt.as_secs_f64() * 1e3);
            }
            Ok(r.stats.active_slots)
        });
        (dt, checked)
    };

    let budget = Budget::new(opts.seconds, opts.smoke);
    if !opts.trace {
        let mut phase = Phase::default();
        while budget.more(phase.attempted) {
            let k = phase.attempted as usize;
            let (dt, checked) = amend(k, None);
            phase.record(k as u64, dt, checked);
        }
        return Report { setup_s, phase, layers: None };
    }

    // Traced run: apply/restore pairs alternate between untraced and
    // traced, so both see the same machine conditions.
    let spans = Spans::new();
    let mut tally = Tally::default();
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut k = 0usize;
    while budget.more(k as u64) {
        if (k / 2).is_multiple_of(2) {
            let (dt, checked) = amend(k, None);
            plain.record(k as u64, dt, checked);
        } else {
            let (dt, checked) = amend(k, Some((&spans, &mut tally)));
            traced.record(k as u64, dt, checked);
        }
        k += 1;
    }
    tally.ops = traced.completed();
    let unattributed = 1.0 - crate::stats::ratio(tally.covered_ms / 1e3, traced.busy_s());
    let layers = tally.metrics(unattributed, overhead_share(plain.ops_per_s(), traced.ops_per_s()));
    plain.absorb(traced);
    Report { setup_s, phase: plain, layers: Some(layers) }
}

/// Fold the registry change of one amend into `tally`; returns the
/// milliseconds the program's decompose, shard-solve and merge spans
/// claim. The amend's LP time counts as tree time only when every LP it
/// ran was solved by the tree path; the solve time of an amend that
/// solved exactly one shard is a shard sample.
fn fold_amend(tally: &mut Tally, before: &RegistrySnapshot, after: &RegistrySnapshot) -> f64 {
    let (lp0, solve0, dec0, merge0) =
        (tally.stage_ms[1], tally.solve_ms, tally.decompose_ms, tally.merge_ms);
    let (tree0, declined0, solved0) = (tally.tree_solved, tally.tree_declined, tally.amend_solved);
    tally.add_counters(before, after);
    tally.add_span_sums(before, after);
    let lp = tally.stage_ms[1] - lp0;
    if tally.tree_solved > tree0 && tally.tree_declined == declined0 {
        tally.tree_lp_ms += lp;
    } else {
        tally.simplex_lp_ms += lp;
    }
    let solve = tally.solve_ms - solve0;
    if tally.amend_solved - solved0 == 1 {
        tally.shard_solve_ms.push(solve);
    }
    solve + (tally.decompose_ms - dec0) + (tally.merge_ms - merge0)
}
