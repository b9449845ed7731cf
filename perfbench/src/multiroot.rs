//! `solve_multiroot`: one caller thread, each op a cold
//! `Engine::solve_one` of a fresh 32-root instance.
//!
//! A traced run alternates it with the same call on an engine with an
//! `obs::TraceBuffer` attached: the benchmark's span wraps each
//! `solve_one`, and the engine's own span events (decompose, one solve
//! per shard with its stages, merge) that fall inside it become its
//! children.

use crate::layers::{overhead_share, Metrics, Tally};
use crate::spans::{self, Spans};
use crate::{check, input_seed, Budget, Opts, Phase, Report, SETUP_REPS};
use atsched_core::instance::Instance;
use atsched_core::solver::SolverOptions;
use atsched_engine::{Engine, EngineConfig};
use atsched_obs::TraceBuffer;
use atsched_workloads::generators::{random_multi_root, LaminarConfig, MultiRootConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Most cold solves run to warm an engine up, on inputs the measured ops
/// never see. Warm-up stops earlier, at the engine cache's first
/// eviction: from there on the cache is in the steady state the measured
/// ops run in.
const WARMUP_OPS: u64 = 256;

fn config() -> MultiRootConfig {
    MultiRootConfig {
        base: LaminarConfig { g: 4, horizon: 48, ..LaminarConfig::default() },
        roots: 32,
        gap: 1,
    }
}

/// The 32-root instance for input `i` of stream `stream`.
pub fn instance(seed: u64, stream: u64, i: u64) -> Instance {
    random_multi_root(&config(), input_seed(seed, stream, i))
}

const MEASURED: u64 = 0;
const WARMUP: u64 = 1;

/// Solve warm-up inputs on `engine` until its cache first evicts.
fn warm_up(opts: &Opts, engine: &Engine, sopts: &SolverOptions) {
    let warmup = if opts.smoke { 2 } else { WARMUP_OPS };
    for w in 0..warmup {
        let inst = instance(opts.seed, WARMUP, w);
        if let Err(e) = check::outcome(&inst, &engine.solve_one(&inst, sopts)) {
            crate::fatal(&format!("warm-up solve: {e}"));
        }
        if engine.cache_stats().evictions > 0 {
            break;
        }
    }
}

pub fn run(opts: &Opts) -> Report {
    let sopts = SolverOptions::default();
    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let start = Instant::now();
        let e = Engine::new(EngineConfig::default());
        warm_up(opts, &e, &sopts);
        setup_s.push(start.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    if opts.trace {
        let (phase, layers) = traced_run(opts, &sopts, &engine);
        return Report { setup_s, phase, layers: Some(layers) };
    }

    let mut phase = Phase::default();
    let budget = Budget::new(opts.seconds, opts.smoke);
    while budget.more(phase.attempted) {
        let i = phase.attempted;
        let inst = instance(opts.seed, MEASURED, i);
        let start = Instant::now();
        let outcome = engine.solve_one(black_box(&inst), &sopts);
        let dt = start.elapsed();
        phase.record(i, dt, check::outcome(&inst, &outcome).map(|r| r.stats.active_slots));
    }
    Report { setup_s, phase, layers: None }
}

/// The traced run: ops alternate between the set-up engine (untraced)
/// and a second warmed-up engine that records its span events (traced),
/// so both see the same machine conditions. Returns every op and the
/// per-layer metrics of the traced ones.
fn traced_run(opts: &Opts, sopts: &SolverOptions, plain_engine: &Engine) -> (Phase, Metrics) {
    let trace = Arc::new(TraceBuffer::new());
    // Created right after the buffer, so both clocks share an epoch.
    let spans = Spans::new();
    let engine = Engine::new(EngineConfig::default()).with_trace(Arc::clone(&trace));
    warm_up(opts, &engine, sopts);
    let registry = engine.registry();
    let mut tally = Tally::default();
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let budget = Budget::new(opts.seconds, opts.smoke);
    let mut i = 0;
    while budget.more(i) {
        let inst = instance(opts.seed, MEASURED, i);
        if i.is_multiple_of(2) {
            let start = Instant::now();
            let outcome = plain_engine.solve_one(black_box(&inst), sopts);
            let dt = start.elapsed();
            plain.record(i, dt, check::outcome(&inst, &outcome).map(|r| r.stats.active_slots));
        } else {
            let before = registry.snapshot();
            let cache_before = engine.cache_stats();
            let start = Instant::now();
            let outcome =
                spans.time("engine.solve_one", i, None, |_| engine.solve_one(&inst, sopts));
            let dt = start.elapsed();
            let after = registry.snapshot();
            let cache = engine.cache_stats().since(cache_before);
            tally.cache_hits += cache.hits;
            tally.cache_lookups += cache.hits + cache.misses;
            let checked = check::outcome(&inst, &outcome).map(|r| {
                // Registry sums, not the returned `SolveStats.timings`: a
                // shard answered by the cache carries the timings of the
                // solve that filled it, and no work ran for it now.
                tally.add_span_sums(&before, &after);
                tally.add_counters(&before, &after);
                r.stats.active_slots
            });
            traced.record(i, dt, checked);
        }
        i += 1;
    }
    tally.ops = traced.completed();
    if trace.dropped() > 0 {
        traced.fail(format!("trace buffer full: {} span events dropped", trace.dropped()));
    }
    let recs = spans.adopt(&trace.events());
    let shard_solves = spans::samples_ms(&recs, "solve");
    tally.fanout_busy_ms = shard_solves.iter().sum();
    tally.fanout_capacity_ms = crate::cores() as f64 * spans::total_ms(&recs, "engine.solve_one");
    tally.shard_solve_ms = shard_solves;
    // Only the simplex path runs inside an `lp` span; the tree path's LP
    // time reaches the registry's LP stage sum alone.
    tally.simplex_lp_ms = spans::total_ms(&recs, "lp");
    tally.tree_lp_ms = (tally.stage_ms[1] - tally.simplex_lp_ms).max(0.0);
    let metrics = tally.metrics(
        spans::unattributed_share(&recs),
        overhead_share(plain.ops_per_s(), traced.ops_per_s()),
    );
    plain.absorb(traced);
    (plain, metrics)
}
