//! The end-to-end 9/5-approximation solver (Theorem 4.15).
//!
//! Pipeline: window forest → canonical forest → strengthened LP →
//! Lemma 3.1 push-down → Algorithm 1 rounding → max-flow schedule
//! extraction → independent verification.
//!
//! Two LP backends are offered. The exact backend solves the LP over big
//! rationals, so every rounding comparison is decided exactly and the
//! 9/5 guarantee is unconditional. The `f64` backend is much faster on
//! large instances; because tiny tableau noise could in principle flip a
//! comparison at a boundary, the final schedule is *always* re-verified,
//! and a repair pass (counted in [`SolveStats::repair_opened`], normally
//! zero) can open additional slots if extraction ever falls short.

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

/// Which arithmetic the LP + rounding pipeline runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpBackend {
    /// Exact big-rational simplex (reference path; unconditional 9/5).
    Exact,
    /// `f64` simplex with tolerances (fast path for sweeps).
    Float,
    /// Hybrid: solve the LP in `f64`, then *rationalize* the solution
    /// (continued-fraction snapping via
    /// [`Ratio::from_f64_approx`](atsched_num::Ratio::from_f64_approx))
    /// and run the transformation + rounding exactly. Falls back to the
    /// plain float pipeline when the snapped solution fails the exact
    /// LP-feasibility re-check. Near-float speed with exact rounding
    /// comparisons.
    FloatThenSnap,
}

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

/// Arithmetic discipline for the exact backend's LP stage.
///
/// Orthogonal to [`LpBackend`]: only consulted when `backend` is
/// [`LpBackend::Exact`] (the float backends are approximate by design
/// and ignore it). Every exact-backend solve honours it, including the
/// dirty shards of an incremental session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecisionMode {
    /// f64-first with exact verification (the default): solve the LP in
    /// `f64`, re-derive the final basis exactly, certify optimality and
    /// uniqueness, and fall back to the exact simplex on any failure.
    /// Bit-identical to [`PrecisionMode::Exact`] in every case — see
    /// [`atsched_lp::Model::solve_hybrid`].
    Hybrid,
    /// Pure big-rational simplex (the reference discipline).
    Exact,
    /// f64-first with exact re-derivation but *without* the optimality
    /// certificate: a float mis-pivot could leave the (still exactly
    /// rational, still LP-feasible) solution suboptimal. For throwaway
    /// sweeps; the final schedule is re-verified regardless.
    F64Unchecked,
}

impl PrecisionMode {
    /// Stable lowercase label (`hybrid` / `exact` / `f64-unchecked`).
    pub fn label(&self) -> &'static str {
        match self {
            PrecisionMode::Hybrid => "hybrid",
            PrecisionMode::Exact => "exact",
            PrecisionMode::F64Unchecked => "f64-unchecked",
        }
    }
}

impl std::str::FromStr for PrecisionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hybrid" => Ok(PrecisionMode::Hybrid),
            "exact" => Ok(PrecisionMode::Exact),
            "f64-unchecked" => Ok(PrecisionMode::F64Unchecked),
            other => Err(format!("unknown precision mode '{other}' (hybrid|exact|f64-unchecked)")),
        }
    }
}

/// Which solver attacks the strengthened LP on the exact backend.
///
/// Orthogonal to [`PrecisionMode`]: `precision` picks the *arithmetic*
/// of the simplex stage, `lp_path` picks whether simplex runs at all.
/// The combinatorial tree path ([`crate::treelp`]) solves the LP
/// directly on the laminar forest and is bit-identical to simplex
/// whenever it answers; it declines (with a typed
/// [`TreeDecline`](crate::treelp::TreeDecline) reason) on shapes it
/// cannot certify. Only consulted when `backend` is
/// [`LpBackend::Exact`]; like `precision`, it applies to every
/// exact-backend solve, session amends included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpPath {
    /// Try the tree path first, silently fall back to simplex on a
    /// decline (the default). Counters record the split:
    /// `lp.tree_solved` vs `lp.tree_fallback.<reason>`.
    Auto,
    /// Tree path only: a decline is surfaced as
    /// [`SolveError::TreeDeclined`]. For coverage tests and diagnostics.
    Tree,
    /// Simplex only: never attempt the tree path.
    Simplex,
}

impl LpPath {
    /// Stable lowercase label (`auto` / `tree` / `simplex`).
    pub fn label(&self) -> &'static str {
        match self {
            LpPath::Auto => "auto",
            LpPath::Tree => "tree",
            LpPath::Simplex => "simplex",
        }
    }
}

impl std::str::FromStr for LpPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(LpPath::Auto),
            "tree" => Ok(LpPath::Tree),
            "simplex" => Ok(LpPath::Simplex),
            other => Err(format!("unknown lp path '{other}' (auto|tree|simplex)")),
        }
    }
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Arithmetic backend.
    pub backend: LpBackend,
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
    /// Arithmetic discipline for the exact backend's LP stage (ignored
    /// by the float backends). The [`PrecisionMode::Hybrid`] default is
    /// bit-identical to [`PrecisionMode::Exact`], just faster.
    pub precision: PrecisionMode,
    /// LP solver selection for the exact backend: the combinatorial
    /// tree path, simplex, or try-tree-then-fall-back (the
    /// [`LpPath::Auto`] default). Bit-identical in every case.
    pub lp_path: LpPath,
}

impl SolverOptions {
    /// Exact reference configuration (the paper's algorithm verbatim).
    ///
    /// Ships with [`PrecisionMode::Hybrid`]: the LP runs f64-first but
    /// every answer is exactly re-derived and certified (or the exact
    /// simplex is rerun), so results are bit-identical to
    /// [`PrecisionMode::Exact`] while typically much faster.
    pub fn exact() -> Self {
        SolverOptions {
            backend: LpBackend::Exact,
            compact: true,
            use_ceiling: true,
            polish: false,
            round_choice: crate::rounding::RoundingChoice::LargestFraction,
            ceiling_depth: 3,
            shard: ShardMode::Auto,
            precision: PrecisionMode::Hybrid,
            lp_path: LpPath::Auto,
        }
    }

    /// Fast floating-point configuration.
    pub fn float() -> Self {
        SolverOptions { backend: LpBackend::Float, ..SolverOptions::exact() }
    }

    /// Pick the arithmetic discipline for the exact backend's LP stage.
    pub fn with_precision(mut self, precision: PrecisionMode) -> Self {
        self.precision = precision;
        self
    }

    /// Pick the LP solver path for the exact backend.
    pub fn with_lp_path(mut self, lp_path: LpPath) -> Self {
        self.lp_path = lp_path;
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
    /// Building and solving the strengthened LP (both attempts, for the
    /// snap backend; a declined tree-path attempt plus the simplex that
    /// follows it, on [`LpPath::Auto`]).
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
    /// LP optimum rendered exactly (exact backend only).
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
    /// The LP solver gave up (possible only on the float backend).
    Lp(atsched_lp::LpError),
    /// The combinatorial tree path declined the instance and fallback
    /// was forbidden ([`LpPath::Tree`] only — [`LpPath::Auto`] falls
    /// back to simplex instead of surfacing this).
    TreeDeclined(crate::treelp::TreeDecline),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Instance(e) => write!(f, "{e}"),
            SolveError::Infeasible => write!(f, "instance is infeasible"),
            SolveError::Lp(e) => write!(f, "{e}"),
            SolveError::TreeDeclined(d) => write!(f, "tree LP path declined: {d}"),
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
    // backend returns). Stage spans nest inside it.
    let _solve_span = obs::Span::enter("solve");
    let stage = Instant::now();
    let span = obs::Span::enter("canonicalize");
    let forest = Forest::build(inst).map_err(SolveError::Instance)?;
    let nodes_original = forest.num_nodes();
    let canon = canonicalize(&forest, inst);
    let bounds = opt23::compute(&canon, inst);
    let mut timings = StageTimings { canonicalize: stage.elapsed(), ..StageTimings::default() };
    drop(span);

    match opts.backend {
        LpBackend::Exact => {
            // Combinatorial fast path: solve the LP directly on the
            // laminar forest when the shape allows a certified answer.
            if opts.lp_path != LpPath::Simplex {
                let stage = Instant::now();
                match crate::treelp::solve_tree(
                    &canon,
                    inst,
                    &bounds,
                    opts.use_ceiling,
                    opts.ceiling_depth,
                ) {
                    Ok(crate::treelp::TreeOutcome::Solved(sol)) => {
                        timings.lp = stage.elapsed();
                        obs::histogram_record("span.lp.ms", timings.lp.as_secs_f64() * 1e3);
                        obs::counter_add("lp.tree_solved", 1);
                        return finish_pipeline::<Ratio>(
                            inst,
                            canon,
                            nodes_original,
                            opts,
                            sol,
                            timings,
                        );
                    }
                    Ok(crate::treelp::TreeOutcome::Infeasible) => {
                        return Err(SolveError::Infeasible)
                    }
                    Err(decline) => {
                        match decline.label() {
                            "nonunique" => obs::counter_add("lp.tree_fallback.nonunique", 1),
                            "flow" => obs::counter_add("lp.tree_fallback.flow", 1),
                            "scale" => obs::counter_add("lp.tree_fallback.scale", 1),
                            _ => obs::counter_add("lp.tree_fallback.overflow", 1),
                        }
                        // The declined attempt is LP work: it opens the
                        // simplex pipeline's `lp` stage, and gets its own
                        // span sum so the `lp` span stays simplex-only.
                        timings.lp = stage.elapsed();
                        obs::histogram_record(
                            "span.lp_tree_declined.ms",
                            timings.lp.as_secs_f64() * 1e3,
                        );
                        if opts.lp_path == LpPath::Tree {
                            return Err(SolveError::TreeDeclined(decline));
                        }
                        // Auto: fall through to the simplex pipelines.
                    }
                }
            }
            match opts.precision {
                PrecisionMode::Exact => {
                    run_pipeline::<Ratio>(inst, canon, nodes_original, &bounds, opts, timings)
                }
                PrecisionMode::Hybrid | PrecisionMode::F64Unchecked => run_hybrid_pipeline(
                    inst,
                    canon,
                    nodes_original,
                    &bounds,
                    opts,
                    timings,
                    opts.precision == PrecisionMode::Hybrid,
                ),
            }
        }
        LpBackend::Float => {
            run_pipeline::<f64>(inst, canon, nodes_original, &bounds, opts, timings)
        }
        LpBackend::FloatThenSnap => {
            run_snap_pipeline(inst, canon, nodes_original, &bounds, opts, timings)
        }
    }
}

/// Job-count gate for the Lemma 4.1 deficiency cross-check on the
/// hybrid path. The check enumerates `2^n` job subsets, so it is only
/// affordable (and only run) on small instances; 12 keeps it well under
/// a millisecond and off the critical path of larger solves.
const LEMMA41_JOB_LIMIT: usize = 12;

/// Exact backend under [`PrecisionMode::Hybrid`] /
/// [`PrecisionMode::F64Unchecked`]: the LP stage runs the f64-first,
/// exactly-verified pipeline ([`NestedLp::solve_hybrid`]); everything
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
    certify: bool,
) -> Result<SolveResult, SolveError> {
    let incoming = timings;
    let stage = Instant::now();
    let lp_span = obs::Span::enter("lp");
    let mut lp = build_opts::<Ratio>(&canon, inst, bounds, opts.use_ceiling);
    if opts.use_ceiling && opts.ceiling_depth > 3 {
        let deep = crate::opt23::compute_deep(&canon, inst, opts.ceiling_depth);
        crate::lp_model::add_deep_ceilings(&mut lp, &canon, &deep);
    }
    let (sol, _outcome) = lp.solve_hybrid(certify).map_err(|e| match e {
        NestedLpError::Infeasible => SolveError::Infeasible,
        NestedLpError::Solver(e) => SolveError::Lp(e),
    })?;
    timings.lp += stage.elapsed();
    drop(lp_span);

    let result = finish_pipeline::<Ratio>(inst, canon, nodes_original, opts, sol, timings)?;
    if certify
        && inst.num_jobs() <= LEMMA41_JOB_LIMIT
        && crate::certify::check_lemma_4_1(&result.forest, inst, &result.z, LEMMA41_JOB_LIMIT)
            .is_err()
    {
        obs::counter_add("solver.hybrid_lemma41_fallbacks", 1);
        return run_pipeline::<Ratio>(inst, result.forest, nodes_original, bounds, opts, incoming);
    }
    Ok(result)
}

/// Hybrid backend: float LP, rationalized solution, exact rounding.
fn run_snap_pipeline(
    inst: &Instance,
    canon: Forest,
    nodes_original: usize,
    bounds: &opt23::OptBounds,
    opts: &SolverOptions,
    mut timings: StageTimings,
) -> Result<SolveResult, SolveError> {
    let stage = Instant::now();
    let lp_span = obs::Span::enter("lp");
    let mut lp = build_opts::<f64>(&canon, inst, bounds, opts.use_ceiling);
    if opts.use_ceiling && opts.ceiling_depth > 3 {
        let deep = crate::opt23::compute_deep(&canon, inst, opts.ceiling_depth);
        crate::lp_model::add_deep_ceilings(&mut lp, &canon, &deep);
    }
    let sol_f = lp.solve().map_err(|e| match e {
        NestedLpError::Infeasible => SolveError::Infeasible,
        NestedLpError::Solver(e) => SolveError::Lp(e),
    })?;
    timings.lp = stage.elapsed();

    // Rationalize. Simplex vertices of these LPs have modest
    // denominators; 10^6 comfortably covers them while still absorbing
    // float noise.
    const MAX_DEN: u64 = 1_000_000;
    let snap = |v: &f64| Ratio::from_f64_approx(*v, MAX_DEN);
    let snapped: Option<crate::lp_model::FractionalSolution<Ratio>> = (|| {
        let x: Option<Vec<Ratio>> = sol_f.x.iter().map(snap).collect();
        let x = x?;
        let mut y: Vec<Vec<(usize, Ratio)>> = Vec::with_capacity(sol_f.y.len());
        for per_node in &sol_f.y {
            let mut row = Vec::with_capacity(per_node.len());
            for (gid, v) in per_node {
                row.push((*gid, snap(v)?));
            }
            y.push(row);
        }
        let objective: Ratio = x.iter().sum();
        Some(crate::lp_model::FractionalSolution { x, y, objective })
    })();

    let stage = Instant::now();
    if let Some(sol_q) = snapped {
        let groups = crate::lp_model::group_jobs(&canon, inst);
        if sol_q.check(&canon, inst, &groups).is_ok() {
            timings.lp += stage.elapsed();
            drop(lp_span);
            return finish_pipeline::<Ratio>(inst, canon, nodes_original, opts, sol_q, timings);
        }
    }
    // Snap failed LP feasibility: fall back to the plain float pipeline.
    timings.lp += stage.elapsed();
    drop(lp_span);
    finish_pipeline::<f64>(inst, canon, nodes_original, opts, sol_f, timings)
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
    fn snap_backend_matches_exact() {
        let cases: Cases = vec![
            (2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]),
            (3, vec![(0, 2, 1); 4]),
            (2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]),
            (2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]),
        ];
        for (g, jobs) in cases {
            let i = inst(g, jobs.clone());
            let exact = solve_nested(&i, &SolverOptions::exact()).unwrap();
            let snap = solve_nested(
                &i,
                &SolverOptions { backend: LpBackend::FloatThenSnap, ..SolverOptions::exact() },
            )
            .unwrap();
            snap.schedule.verify(&i).unwrap();
            assert!((exact.stats.lp_objective - snap.stats.lp_objective).abs() < 1e-6, "{jobs:?}");
            assert!(snap.stats.opened_slots as f64 <= 1.8 * snap.stats.lp_objective + 1e-6);
        }
    }

    #[test]
    fn snap_backend_reports_infeasible() {
        let i = inst(1, vec![(0, 2, 1); 3]);
        let opts = SolverOptions { backend: LpBackend::FloatThenSnap, ..SolverOptions::exact() };
        assert_eq!(solve_nested(&i, &opts).unwrap_err(), SolveError::Infeasible);
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
    fn precision_mode_labels_round_trip() {
        for mode in [PrecisionMode::Hybrid, PrecisionMode::Exact, PrecisionMode::F64Unchecked] {
            assert_eq!(mode.label().parse::<PrecisionMode>().unwrap(), mode);
        }
        assert!("float".parse::<PrecisionMode>().is_err());
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
            let pure = SolverOptions::exact().with_precision(PrecisionMode::Exact);
            let e = solve_nested(&i, &pure).unwrap();
            let h = solve_nested(&i, &SolverOptions::exact()).unwrap();
            assert_eq!(h.z, e.z, "{jobs:?}");
            assert_eq!(h.schedule.slots, e.schedule.slots, "{jobs:?}");
            assert_eq!(h.schedule.assignment, e.schedule.assignment, "{jobs:?}");
            assert_eq!(h.stats.lp_objective_exact, e.stats.lp_objective_exact, "{jobs:?}");
            assert_eq!(h.stats.opened_slots, e.stats.opened_slots, "{jobs:?}");

            // Unchecked mode skips the certificate but still re-derives
            // exactly; the schedule must verify in every case.
            let unchecked = SolverOptions::exact().with_precision(PrecisionMode::F64Unchecked);
            let u = solve_nested(&i, &unchecked).unwrap();
            u.schedule.verify(&i).unwrap();
            assert!(u.stats.lp_objective_exact.is_some(), "unchecked path stays rational");
        }
    }

    #[test]
    fn hybrid_precision_reports_infeasible() {
        let i = inst(1, vec![(0, 2, 1); 3]);
        assert_eq!(solve_nested(&i, &SolverOptions::exact()).unwrap_err(), SolveError::Infeasible);
        let unchecked = SolverOptions::exact().with_precision(PrecisionMode::F64Unchecked);
        assert_eq!(solve_nested(&i, &unchecked).unwrap_err(), SolveError::Infeasible);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Hybrid precision ≡ pure exact on random laminar instances:
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
            let pure = SolverOptions::exact().with_precision(PrecisionMode::Exact);
            match (solve_nested(&i, &SolverOptions::exact()), solve_nested(&i, &pure)) {
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
