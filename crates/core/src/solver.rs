//! The end-to-end 9/5-approximation solver (Theorem 4.15).
//!
//! Pipeline: window forest → canonical forest → strengthened LP →
//! Lemma 3.1 push-down → Algorithm 1 rounding → max-flow schedule
//! extraction → independent verification.
//!
//! One setting, [`SolverOptions::lp`], picks how the LP is solved (see
//! [`LpStrategy`]). Every strategy but `Float` returns the exact rational
//! optimum, bit for bit the same one, so every rounding comparison is
//! decided exactly and the 9/5 guarantee is unconditional. The `f64`
//! strategy is for approximate sweeps; because tiny tableau noise could
//! in principle flip a comparison at a boundary, the final schedule is
//! *always* re-verified, and a repair pass (counted in
//! [`SolveStats::repair_opened`], normally zero) can open additional
//! slots if extraction ever falls short.

use crate::canonical::canonicalize;
use crate::feasibility::{counts_to_slots, extract_assignment};
use crate::instance::Instance;
use crate::lp_model::{build_opts, NestedLpError};
use crate::opt23;
use crate::rounding::check_budget;
use crate::schedule::Schedule;
use crate::transform::push_down;
use crate::tree::Forest;
use atsched_lp::Scalar;
use atsched_num::Ratio;
use atsched_obs as obs;
use std::fmt;
use std::time::{Duration, Instant};

/// Whether a driver may split an instance at the forest roots and solve
/// the pieces independently (see `crate::decompose`).
///
/// Sharding is a *driver-level* policy: [`solve_nested`] itself always
/// solves the instance it is given monolithically, and the engine/facade
/// layers consult this option to decide whether to decompose first. The
/// decomposition is exact — the strengthened LP is block-diagonal across
/// trees and every later stage acts tree-locally — so the merged result
/// opens exactly the slots the monolithic solve would
/// (`RoundingChoice::Shuffled` is the one exception: its tie-break RNG
/// is global, so sharding is always declined for it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Decompose when the instance has ≥ 2 roots and enough jobs for the
    /// fan-out to pay for itself (the default).
    Auto,
    /// Never decompose.
    Off,
    /// Decompose whenever the instance has ≥ 2 roots, regardless of size.
    Force,
}

impl ShardMode {
    /// Stable lowercase label (`auto` / `off` / `force`).
    pub fn label(&self) -> &'static str {
        match self {
            ShardMode::Auto => "auto",
            ShardMode::Off => "off",
            ShardMode::Force => "force",
        }
    }
}

impl std::str::FromStr for ShardMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(ShardMode::Auto),
            "off" => Ok(ShardMode::Off),
            "force" => Ok(ShardMode::Force),
            other => Err(format!("unknown shard mode '{other}' (auto|off|force)")),
        }
    }
}

/// How the strengthened LP is solved.
///
/// `Auto`, `Simplex` and `Exact` all return the exact rational optimum
/// the pure rational simplex would, bit for bit; they differ only in
/// speed. `Float` is approximate and is meant for sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpStrategy {
    /// The combinatorial tree DP ([`crate::treelp`]), then the verified
    /// f64-first simplex, then the exact simplex (the default). The tree
    /// DP declines, with a typed [`TreeDecline`](crate::treelp::TreeDecline)
    /// reason, on shapes it cannot certify; counters record the split as
    /// `lp.tree_solved` vs `lp.tree_fallback.<reason>`.
    #[default]
    Auto,
    /// The verified f64-first simplex, falling back to the exact simplex
    /// (see [`atsched_lp::Model::solve_hybrid`]). No tree attempt.
    Simplex,
    /// The pure big-rational simplex: the reference the oracles compare
    /// against.
    Exact,
    /// The plain `f64` pipeline: LP, transform and rounding in floating
    /// point (fast path for sweeps).
    Float,
}

impl LpStrategy {
    /// Stable lowercase label (`auto` / `simplex` / `exact` / `float`).
    pub fn label(&self) -> &'static str {
        match self {
            LpStrategy::Auto => "auto",
            LpStrategy::Simplex => "simplex",
            LpStrategy::Exact => "exact",
            LpStrategy::Float => "float",
        }
    }
}

impl std::str::FromStr for LpStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(LpStrategy::Auto),
            "simplex" => Ok(LpStrategy::Simplex),
            "exact" => Ok(LpStrategy::Exact),
            "float" => Ok(LpStrategy::Float),
            other => Err(format!("unknown lp strategy '{other}' (auto|simplex|exact|float)")),
        }
    }
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// How the LP is solved (default [`LpStrategy::Auto`]).
    pub lp: LpStrategy,
    /// Drop open-but-empty slots from the final schedule (default true).
    pub compact: bool,
    /// Include the ceiling constraints (7)/(8) in the LP (default true —
    /// the paper's algorithm; `false` degrades the LP to the natural tree
    /// relaxation and is provided for the E10 ablation).
    pub use_ceiling: bool,
    /// Post-optimization: greedily close open slots while feasibility is
    /// preserved (default false — the paper's algorithm does not do
    /// this; closing slots can only improve the solution, so the 9/5
    /// guarantee is unaffected when enabled).
    pub polish: bool,
    /// Tie-breaking for Algorithm 1's "choose arbitrarily".
    pub round_choice: crate::rounding::RoundingChoice,
    /// Paper extension: ceiling-constraint depth. 3 = the paper's (7)/(8)
    /// only; higher values also add `Σ_{Des(i)} x ≥ k` wherever the
    /// exhaustive oracle proves `OPT_i ≥ k ≤ ceiling_depth`. Only
    /// meaningful when `use_ceiling` is true.
    pub ceiling_depth: i64,
    /// Root-decomposition policy for drivers that support it (the batch
    /// engine, the `Solve` facade, the CLI and the serve layer).
    /// [`solve_nested`] ignores this field.
    pub shard: ShardMode,
}

impl SolverOptions {
    /// The paper's algorithm verbatim, under [`LpStrategy::Auto`].
    ///
    /// Every LP answer is exact: the tree DP and the verified f64-first
    /// simplex return the pure rational simplex's optimum bit for bit
    /// ([`LpStrategy::Exact`]), typically much faster.
    pub fn exact() -> Self {
        SolverOptions {
            lp: LpStrategy::Auto,
            compact: true,
            use_ceiling: true,
            polish: false,
            round_choice: crate::rounding::RoundingChoice::LargestFraction,
            ceiling_depth: 3,
            shard: ShardMode::Auto,
        }
    }

    /// Fast floating-point configuration.
    pub fn float() -> Self {
        SolverOptions::exact().with_lp(LpStrategy::Float)
    }

    /// Pick how the LP is solved.
    pub fn with_lp(mut self, lp: LpStrategy) -> Self {
        self.lp = lp;
        self
    }

    /// Enable the slot-closing post-optimization.
    pub fn polished(mut self) -> Self {
        self.polish = true;
        self
    }

    /// Drop the ceiling constraints (ablation configuration).
    pub fn without_ceiling(mut self) -> Self {
        self.use_ceiling = false;
        self
    }

    /// Enable deeper ceiling constraints up to `OPT_i ≥ k` (extension).
    pub fn with_ceiling_depth(mut self, k: i64) -> Self {
        self.ceiling_depth = k.max(3);
        self
    }
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions::exact()
    }
}

/// Wall-clock time spent in each pipeline stage.
///
/// Filled by [`solve_nested`]; stages that did not run (e.g. on the
/// empty-instance fast path) stay at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Window-forest construction + canonical transformation + OPT
    /// lower-bound oracle.
    pub canonicalize: Duration,
    /// Building and solving the strengthened LP (a declined tree-path
    /// attempt plus the simplex that follows it, on [`LpStrategy::Auto`]).
    pub lp: Duration,
    /// Lemma 3.1 push-down.
    pub transform: Duration,
    /// Algorithm 1 rounding.
    pub round: Duration,
    /// Slot materialization, max-flow extraction, repair and polish.
    pub extract: Duration,
    /// Independent final verification.
    pub verify: Duration,
}

impl StageTimings {
    /// Sum over all stages.
    pub fn total(&self) -> Duration {
        self.canonicalize + self.lp + self.transform + self.round + self.extract + self.verify
    }
}

/// Everything the solver learned along the way.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Nodes in the raw window forest.
    pub nodes_original: usize,
    /// Nodes after the canonical transformation.
    pub nodes_canonical: usize,
    /// LP optimum (`Σ x`), as `f64` for reporting.
    pub lp_objective: f64,
    /// LP optimum rendered exactly (every strategy but `Float`).
    pub lp_objective_exact: Option<String>,
    /// Push-down moves performed by the Lemma 3.1 transformation.
    pub transform_moves: usize,
    /// `I`-nodes rounded up by Algorithm 1.
    pub rounded_up: usize,
    /// Slots opened by the integral solution (`Σ x̃`).
    pub opened_slots: i64,
    /// Active slots in the final schedule (≤ `opened_slots`).
    pub active_slots: usize,
    /// Slots a repair pass had to add beyond `x̃` (0 on the exact path).
    pub repair_opened: i64,
    /// Slots removed by the polish pass (0 unless
    /// [`SolverOptions::polish`]).
    pub polish_closed: i64,
    /// `opened / lp_objective` — certified ≤ 9/5 by Lemma 3.3 (when the
    /// ceiling constraints are enabled).
    pub opened_over_lp: f64,
    /// Wall-clock time per pipeline stage.
    pub timings: StageTimings,
}

/// Solver output: a verified schedule plus statistics.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The verified schedule.
    pub schedule: Schedule,
    /// Pipeline statistics.
    pub stats: SolveStats,
    /// Integral per-node open counts on the canonical forest.
    pub z: Vec<i64>,
    /// The canonical forest the counts refer to.
    pub forest: Forest,
}

/// Solver errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Instance validation failed (e.g. windows are not laminar).
    Instance(crate::instance::InstanceError),
    /// The instance (equivalently the LP) is infeasible.
    Infeasible,
    /// The LP solver gave up (possible only under [`LpStrategy::Float`]).
    Lp(atsched_lp::LpError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Instance(e) => write!(f, "{e}"),
            SolveError::Infeasible => write!(f, "instance is infeasible"),
            SolveError::Lp(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solve a nested (laminar) instance with the 9/5-approximation.
///
/// Returns an error if windows are not laminar or the instance is
/// infeasible. The returned schedule always passes
/// [`Schedule::verify`].
pub fn solve_nested(inst: &Instance, opts: &SolverOptions) -> Result<SolveResult, SolveError> {
    if inst.jobs.is_empty() {
        return Ok(SolveResult {
            schedule: Schedule::new(Vec::new(), Vec::new()),
            stats: SolveStats {
                nodes_original: 0,
                nodes_canonical: 0,
                lp_objective: 0.0,
                lp_objective_exact: Some("0".into()),
                transform_moves: 0,
                rounded_up: 0,
                opened_slots: 0,
                active_slots: 0,
                repair_opened: 0,
                polish_closed: 0,
                opened_over_lp: 1.0,
                timings: StageTimings::default(),
            },
            z: Vec::new(),
            forest: Forest { nodes: Vec::new(), roots: Vec::new(), job_node: Vec::new() },
        });
    }
    // Outer span: covers the whole pipeline (dropped when the chosen
    // pipeline returns). Stage spans nest inside it.
    let _solve_span = obs::Span::enter("solve");
    let stage = Instant::now();
    let span = obs::Span::enter("canonicalize");
    let forest = Forest::build(inst).map_err(SolveError::Instance)?;
    let nodes_original = forest.num_nodes();
    let canon = canonicalize(&forest, inst);
    let bounds = opt23::compute(&canon, inst);
    let mut timings = StageTimings { canonicalize: stage.elapsed(), ..StageTimings::default() };
    drop(span);

    // Combinatorial fast path: solve the LP directly on the laminar
    // forest when the shape allows a certified answer.
    if opts.lp == LpStrategy::Auto {
        let stage = Instant::now();
        match crate::treelp::solve_tree(&canon, inst, &bounds, opts.use_ceiling, opts.ceiling_depth)
        {
            Ok(crate::treelp::TreeOutcome::Solved(sol)) => {
                timings.lp = stage.elapsed();
                obs::histogram_record("span.lp.ms", timings.lp.as_secs_f64() * 1e3);
                obs::counter_add("lp.tree_solved", 1);
                return finish_pipeline::<Ratio>(inst, canon, nodes_original, opts, sol, timings);
            }
            Ok(crate::treelp::TreeOutcome::Infeasible) => return Err(SolveError::Infeasible),
            Err(decline) => {
                match decline.label() {
                    "nonunique" => obs::counter_add("lp.tree_fallback.nonunique", 1),
                    "flow" => obs::counter_add("lp.tree_fallback.flow", 1),
                    "scale" => obs::counter_add("lp.tree_fallback.scale", 1),
                    _ => obs::counter_add("lp.tree_fallback.overflow", 1),
                }
                // The declined attempt is LP work: it opens the simplex
                // pipeline's `lp` stage, and gets its own span sum so the
                // `lp` span stays simplex-only.
                timings.lp = stage.elapsed();
                obs::histogram_record("span.lp_tree_declined.ms", timings.lp.as_secs_f64() * 1e3);
            }
        }
    }
    match opts.lp {
        LpStrategy::Auto | LpStrategy::Simplex => {
            run_hybrid_pipeline(inst, canon, nodes_original, &bounds, opts, timings)
        }
        LpStrategy::Exact => {
            run_pipeline::<Ratio>(inst, canon, nodes_original, &bounds, opts, timings)
        }
        LpStrategy::Float => {
            run_pipeline::<f64>(inst, canon, nodes_original, &bounds, opts, timings)
        }
    }
}

/// Job-count gate for the Lemma 4.1 deficiency cross-check on the
/// hybrid path. The check enumerates `2^n` job subsets, so it is only
/// affordable (and only run) on small instances; 12 keeps it well under
/// a millisecond and off the critical path of larger solves.
const LEMMA41_JOB_LIMIT: usize = 12;

/// [`LpStrategy::Simplex`], and [`LpStrategy::Auto`] after a tree
/// decline: the LP stage runs the f64-first, exactly-verified pipeline ([`NestedLp::solve_hybrid`]); everything
/// downstream is the ordinary exact pipeline on the re-derived rational
/// solution. On small instances the rounded integral certificate is
/// additionally cross-checked against the paper's Lemma 4.1
/// characterization; a violation (never observed — it would indicate a
/// rounding-stage bug, since the schedule already re-verified by
/// max-flow) re-runs the whole pipeline in pure exact arithmetic.
fn run_hybrid_pipeline(
    inst: &Instance,
    canon: Forest,
    nodes_original: usize,
    bounds: &opt23::OptBounds,
    opts: &SolverOptions,
    mut timings: StageTimings,
) -> Result<SolveResult, SolveError> {
    let incoming = timings;
    let stage = Instant::now();
    let lp_span = obs::Span::enter("lp");
    let mut lp = build_opts::<Ratio>(&canon, inst, bounds, opts.use_ceiling);
    if opts.use_ceiling && opts.ceiling_depth > 3 {
        let deep = crate::opt23::compute_deep(&canon, inst, opts.ceiling_depth);
        crate::lp_model::add_deep_ceilings(&mut lp, &canon, &deep);
    }
    let (sol, _outcome) = lp.solve_hybrid().map_err(|e| match e {
        NestedLpError::Infeasible => SolveError::Infeasible,
        NestedLpError::Solver(e) => SolveError::Lp(e),
    })?;
    timings.lp += stage.elapsed();
    drop(lp_span);

    let result = finish_pipeline::<Ratio>(inst, canon, nodes_original, opts, sol, timings)?;
    if inst.num_jobs() <= LEMMA41_JOB_LIMIT
        && crate::certify::check_lemma_4_1(&result.forest, inst, &result.z, LEMMA41_JOB_LIMIT)
            .is_err()
    {
        obs::counter_add("solver.hybrid_lemma41_fallbacks", 1);
        return run_pipeline::<Ratio>(inst, result.forest, nodes_original, bounds, opts, incoming);
    }
    Ok(result)
}

fn run_pipeline<S: Scalar>(
    inst: &Instance,
    canon: Forest,
    nodes_original: usize,
    bounds: &opt23::OptBounds,
    opts: &SolverOptions,
    mut timings: StageTimings,
) -> Result<SolveResult, SolveError> {
    let stage = Instant::now();
    let lp_span = obs::Span::enter("lp");
    let mut lp = build_opts::<S>(&canon, inst, bounds, opts.use_ceiling);
    if opts.use_ceiling && opts.ceiling_depth > 3 {
        let deep = crate::opt23::compute_deep(&canon, inst, opts.ceiling_depth);
        crate::lp_model::add_deep_ceilings(&mut lp, &canon, &deep);
    }
    let sol = lp.solve().map_err(|e| match e {
        NestedLpError::Infeasible => SolveError::Infeasible,
        NestedLpError::Solver(e) => SolveError::Lp(e),
    })?;
    timings.lp += stage.elapsed();
    drop(lp_span);
    finish_pipeline::<S>(inst, canon, nodes_original, opts, sol, timings)
}

/// Everything after the LP: Lemma 3.1 transform, Algorithm 1 rounding,
/// schedule extraction and verification.
fn finish_pipeline<S: Scalar>(
    inst: &Instance,
    canon: Forest,
    nodes_original: usize,
    opts: &SolverOptions,
    sol: crate::lp_model::FractionalSolution<S>,
    mut timings: StageTimings,
) -> Result<SolveResult, SolveError> {
    let lp_objective = sol.objective.to_f64();
    let lp_exact = exact_objective_string(&sol.objective);

    let stage = Instant::now();
    let span = obs::Span::enter("transform");
    let transformed = push_down(&canon, sol);
    debug_assert!(crate::transform::check_claim1(
        &canon,
        &transformed.solution,
        &transformed.top_positive
    )
    .is_ok());
    timings.transform = stage.elapsed();
    drop(span);

    let stage = Instant::now();
    let span = obs::Span::enter("round");
    let rounded = crate::rounding::round_with(
        &canon,
        &transformed.solution,
        &transformed.top_positive,
        opts.round_choice,
    );
    debug_assert!(check_budget(&canon, &transformed.solution, &rounded).is_ok());
    timings.round = stage.elapsed();
    drop(span);

    let stage = Instant::now();
    let span = obs::Span::enter("extract");
    // Materialize and extract; repair only if extraction falls short
    // (never on the exact path — Theorem 4.5).
    let mut z = rounded.z.clone();
    let mut repair_opened = 0i64;
    let assignment = loop {
        let slots = counts_to_slots(&canon, &z);
        if let Some(a) = extract_assignment(inst, &slots) {
            break a;
        }
        // Open one more slot at the node with spare own slots that most
        // increases schedulable volume (greedy repair).
        let mut best: Option<(usize, i64)> = None;
        for i in 0..canon.num_nodes() {
            if z[i] >= canon.nodes[i].len() {
                continue;
            }
            z[i] += 1;
            let vol =
                crate::feasibility::max_schedulable_volume(inst, &counts_to_slots(&canon, &z));
            z[i] -= 1;
            if best.is_none_or(|(_, bv)| vol > bv) {
                best = Some((i, vol));
            }
        }
        let (node, _) = best.expect("repair impossible: instance infeasible despite feasible LP");
        z[node] += 1;
        repair_opened += 1;
    };

    let slots = counts_to_slots(&canon, &z);
    let mut schedule = Schedule::new(slots, assignment);
    let opened_before_polish: i64 = z.iter().sum();

    // Optional post-optimization: close open slots while the rest stays
    // feasible (can only improve — and re-extraction keeps verifying).
    let mut polish_closed = 0i64;
    if opts.polish {
        let mut open = schedule.slots.clone();
        let mut idx = 0;
        while idx < open.len() {
            let mut trial = open.clone();
            trial.remove(idx);
            if crate::feasibility::slots_feasible(inst, &trial) {
                open = trial;
                polish_closed += 1;
            } else {
                idx += 1;
            }
        }
        if polish_closed > 0 {
            let assignment =
                extract_assignment(inst, &open).expect("polish only keeps feasible sets");
            schedule = Schedule::new(open, assignment);
        }
    }

    if opts.compact {
        schedule.compact();
    }
    timings.extract = stage.elapsed();
    drop(span);

    let stage = Instant::now();
    let span = obs::Span::enter("verify");
    schedule.verify(inst).expect("extracted schedule must verify; this is a bug");
    timings.verify = stage.elapsed();
    drop(span);

    let opened_slots: i64 = opened_before_polish - polish_closed;
    let stats = SolveStats {
        nodes_original,
        nodes_canonical: canon.num_nodes(),
        lp_objective,
        lp_objective_exact: lp_exact,
        transform_moves: transformed.moves,
        rounded_up: rounded.rounded_up.len(),
        opened_slots,
        active_slots: schedule.active_time(),
        repair_opened,
        polish_closed,
        opened_over_lp: if lp_objective > 0.0 { opened_slots as f64 / lp_objective } else { 1.0 },
        timings,
    };
    Ok(SolveResult { schedule, stats, z, forest: canon })
}

fn exact_objective_string<S: Scalar>(obj: &S) -> Option<String> {
    // Render exactly only when the scalar is the exact type.
    let s = format!("{obj}");
    if std::any::TypeId::of::<S>() == std::any::TypeId::of::<Ratio>() {
        Some(s)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-case table: (g, [(release, deadline, processing)]).
    type Cases = Vec<(i64, Vec<(i64, i64, i64)>)>;
    use crate::instance::Job;

    fn inst(g: i64, jobs: Vec<(i64, i64, i64)>) -> Instance {
        Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect()).unwrap()
    }

    fn solve_ok(g: i64, jobs: Vec<(i64, i64, i64)>) -> SolveResult {
        let i = inst(g, jobs);
        let r = solve_nested(&i, &SolverOptions::exact()).unwrap();
        r.schedule.verify(&i).unwrap();
        assert_eq!(r.stats.repair_opened, 0, "exact path must never repair");
        assert!(
            r.stats.opened_over_lp <= 1.8 + 1e-9,
            "approximation bound violated: {}",
            r.stats.opened_over_lp
        );
        r
    }

    #[test]
    fn empty_instance() {
        let i = inst(3, vec![]);
        let r = solve_nested(&i, &SolverOptions::exact()).unwrap();
        assert_eq!(r.stats.opened_slots, 0);
    }

    #[test]
    fn single_job() {
        let r = solve_ok(1, vec![(0, 5, 2)]);
        assert_eq!(r.stats.active_slots, 2);
    }

    #[test]
    fn gap2_family_solved_optimally() {
        // g+1 unit jobs, width-2 window: OPT = 2 and our LP = 2.
        for g in [2i64, 3, 4] {
            let r = solve_ok(g, vec![(0, 2, 1); (g + 1) as usize]);
            assert_eq!(r.stats.active_slots, 2, "g = {g}");
        }
    }

    #[test]
    fn nested_three_levels() {
        let r = solve_ok(2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]);
        assert!(r.stats.active_slots >= 3);
        assert!(r.stats.nodes_canonical >= r.stats.nodes_original);
    }

    #[test]
    fn forest_instances_work() {
        let r = solve_ok(2, vec![(0, 3, 2), (5, 9, 1), (5, 9, 1), (12, 14, 2)]);
        assert!(r.stats.active_slots >= 5); // 2 + 1 + 2
    }

    #[test]
    fn infeasible_is_reported() {
        let i = inst(1, vec![(0, 2, 1); 3]);
        assert_eq!(solve_nested(&i, &SolverOptions::exact()).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn non_laminar_is_rejected() {
        let i = inst(1, vec![(0, 5, 1), (3, 8, 1)]);
        assert!(matches!(
            solve_nested(&i, &SolverOptions::exact()).unwrap_err(),
            SolveError::Instance(crate::instance::InstanceError::NotLaminar(_, _))
        ));
    }

    #[test]
    fn float_backend_agrees_on_small_instances() {
        let cases: Cases = vec![
            (2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]),
            (3, vec![(0, 2, 1); 4]),
            (2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]),
        ];
        for (g, jobs) in cases {
            let i = inst(g, jobs);
            let e = solve_nested(&i, &SolverOptions::exact()).unwrap();
            let f = solve_nested(&i, &SolverOptions::float()).unwrap();
            f.schedule.verify(&i).unwrap();
            assert!((e.stats.lp_objective - f.stats.lp_objective).abs() < 1e-6);
        }
    }

    #[test]
    fn polish_never_hurts_and_verifies() {
        let cases: Cases = vec![
            (2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]),
            (3, vec![(0, 2, 1); 4]),
            (2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]),
        ];
        for (g, jobs) in cases {
            let i = inst(g, jobs);
            let plain = solve_nested(&i, &SolverOptions::exact()).unwrap();
            let polished = solve_nested(&i, &SolverOptions::exact().polished()).unwrap();
            polished.schedule.verify(&i).unwrap();
            assert!(polished.stats.active_slots <= plain.stats.active_slots);
            assert!(polished.stats.opened_slots <= plain.stats.opened_slots);
            assert_eq!(
                polished.stats.opened_slots,
                plain.stats.opened_slots - polished.stats.polish_closed
            );
        }
    }

    #[test]
    fn without_ceiling_still_feasible_but_weaker_lp() {
        // On the gap2 family the natural tree LP sits at 1 + 1/g < 2.
        let i = inst(4, vec![(0, 2, 1); 5]);
        let ablated = solve_nested(&i, &SolverOptions::exact().without_ceiling()).unwrap();
        ablated.schedule.verify(&i).unwrap();
        assert!(ablated.stats.lp_objective < 2.0 - 1e-9);
        let full = solve_nested(&i, &SolverOptions::exact()).unwrap();
        assert!((full.stats.lp_objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rounding_choices_all_feasible() {
        use crate::rounding::RoundingChoice;
        let i = inst(2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]);
        for choice in [
            RoundingChoice::LargestFraction,
            RoundingChoice::FirstId,
            RoundingChoice::Shuffled(3),
            RoundingChoice::Shuffled(99),
        ] {
            let opts = SolverOptions { round_choice: choice, ..SolverOptions::exact() };
            let r = solve_nested(&i, &opts).unwrap();
            r.schedule.verify(&i).unwrap();
            assert_eq!(r.stats.repair_opened, 0, "{choice:?}");
            assert!(r.stats.opened_over_lp <= 1.8 + 1e-9, "{choice:?}");
        }
    }

    #[test]
    fn stats_are_consistent() {
        let r = solve_ok(2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]);
        assert_eq!(r.stats.opened_slots, r.z.iter().sum::<i64>());
        assert!(r.stats.active_slots as i64 <= r.stats.opened_slots);
        assert!(r.stats.lp_objective > 0.0);
        assert!(r.stats.lp_objective_exact.is_some());
    }

    #[test]
    fn lp_strategy_labels_round_trip() {
        for lp in [LpStrategy::Auto, LpStrategy::Simplex, LpStrategy::Exact, LpStrategy::Float] {
            assert_eq!(lp.label().parse::<LpStrategy>().unwrap(), lp);
        }
        assert!("tree".parse::<LpStrategy>().is_err());
        assert_eq!(SolverOptions::default().lp, LpStrategy::Auto);
    }

    #[test]
    fn hybrid_precision_is_bit_identical_to_exact() {
        let cases: Cases = vec![
            (2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]),
            (3, vec![(0, 2, 1); 4]),
            (2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]),
            (2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]),
            (2, vec![(0, 3, 2), (5, 9, 1), (5, 9, 1), (12, 14, 2)]),
            (1, vec![(0, 5, 2)]),
        ];
        for (g, jobs) in cases {
            let i = inst(g, jobs.clone());
            let e = solve_nested(&i, &SolverOptions::exact().with_lp(LpStrategy::Exact)).unwrap();
            let h = solve_nested(&i, &SolverOptions::exact().with_lp(LpStrategy::Simplex)).unwrap();
            assert_eq!(h.z, e.z, "{jobs:?}");
            assert_eq!(h.schedule.slots, e.schedule.slots, "{jobs:?}");
            assert_eq!(h.schedule.assignment, e.schedule.assignment, "{jobs:?}");
            assert_eq!(h.stats.lp_objective_exact, e.stats.lp_objective_exact, "{jobs:?}");
            assert_eq!(h.stats.opened_slots, e.stats.opened_slots, "{jobs:?}");
        }
    }

    #[test]
    fn every_strategy_reports_infeasible() {
        let i = inst(1, vec![(0, 2, 1); 3]);
        for lp in [LpStrategy::Auto, LpStrategy::Simplex, LpStrategy::Exact, LpStrategy::Float] {
            let opts = SolverOptions::exact().with_lp(lp);
            assert_eq!(solve_nested(&i, &opts).unwrap_err(), SolveError::Infeasible, "{lp:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// `Simplex` (verified hybrid) ≡ `Exact` on random laminar instances:
        /// same z-vector, same slots, same assignment, same exact LP
        /// objective — bit for bit. (Generator shape borrowed from the
        /// opt23 oracle test.)
        #[test]
        fn prop_hybrid_precision_matches_exact(
            g in 1i64..4,
            raw in proptest::collection::vec((0i64..6, 1i64..5, 1i64..3), 1..6),
        ) {
            let mut jobs = vec![(0i64, 12i64, 1i64)];
            for (start, len, p) in raw {
                let d = (start + len.max(p)).min(12);
                let r = start.min(d - p.min(len.max(p)));
                let r2 = r - (r % 3);
                let d2 = (r2 + 3).min(12).max(r2 + p);
                if d2 <= 12 {
                    jobs.push((r2, d2, p.min(d2 - r2)));
                }
            }
            let i = inst(g, jobs);
            proptest::prop_assume!(i.check_laminar().is_ok());
            let hybrid = SolverOptions::exact().with_lp(LpStrategy::Simplex);
            let pure = SolverOptions::exact().with_lp(LpStrategy::Exact);
            match (solve_nested(&i, &hybrid), solve_nested(&i, &pure)) {
                (Ok(h), Ok(e)) => {
                    proptest::prop_assert_eq!(h.z, e.z);
                    proptest::prop_assert_eq!(h.schedule.slots, e.schedule.slots);
                    proptest::prop_assert_eq!(h.schedule.assignment, e.schedule.assignment);
                    proptest::prop_assert_eq!(
                        h.stats.lp_objective_exact, e.stats.lp_objective_exact);
                }
                (Err(a), Err(b)) => proptest::prop_assert_eq!(a, b),
                (h, e) => proptest::prop_assert!(false, "diverged: {:?} vs {:?}", h, e),
            }
        }
    }

    #[test]
    fn declined_tree_attempts_count_as_lp_time() {
        use std::sync::Arc;
        // The tree path cannot pin this LP's optimum (NonUniqueSplit),
        // so Auto falls through to the simplex.
        let i = inst(2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]);
        let reg = Arc::new(obs::Registry::new());
        let r = obs::with_collector(obs::Collector::new(Arc::clone(&reg)), || {
            solve_nested(&i, &SolverOptions::exact()).unwrap()
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lp.tree_fallback.nonunique"), Some(1));
        let declined = snap.histogram("span.lp_tree_declined.ms").expect("declined attempt timed");
        assert_eq!(declined.count, 1);
        assert!(r.stats.timings.lp.as_secs_f64() * 1e3 >= declined.sum);
        // The `lp` span itself still covers the simplex run only.
        assert_eq!(snap.histogram("span.lp.ms").map(|h| h.count), Some(1));
    }

    #[test]
    fn stage_timings_are_recorded() {
        let r = solve_ok(2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]);
        let t = r.stats.timings;
        // Stages actually executed must have been measured; LP work
        // dominates and can never be zero on a non-empty instance.
        assert!(t.lp > Duration::ZERO);
        assert!(t.total() >= t.lp);

        // The empty-instance fast path reports all-zero timings.
        let empty = solve_nested(&inst(3, vec![]), &SolverOptions::exact()).unwrap();
        assert_eq!(empty.stats.timings, StageTimings::default());
    }
}
