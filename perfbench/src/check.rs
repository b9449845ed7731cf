//! Correctness checks applied to every operation's output, outside the
//! timed region.

use atsched_core::instance::Instance;
use atsched_core::schedule::Schedule;
use atsched_core::solver::SolveResult;
use atsched_engine::Outcome;

/// The paper's guarantee: opened slots ≤ 9/5 · LP optimum.
const RATIO: f64 = 9.0 / 5.0;
/// Slack for the f64 rendering of an exact LP optimum.
const EPS: f64 = 1e-9;

/// A schedule that passes `Schedule::verify` and whose reported active
/// slots match it.
pub fn schedule(inst: &Instance, s: &Schedule, active_slots: usize) -> Result<(), String> {
    s.verify(inst).map_err(|e| format!("schedule does not verify: {e}"))?;
    if s.active_time() != active_slots {
        return Err(format!(
            "reported {active_slots} active slots, schedule has {}",
            s.active_time()
        ));
    }
    Ok(())
}

/// A verified schedule within the 9/5 bound of its LP.
pub fn solve_result(inst: &Instance, r: &SolveResult) -> Result<(), String> {
    schedule(inst, &r.schedule, r.stats.active_slots)?;
    let (opened, lp) = (r.stats.opened_slots as f64, r.stats.lp_objective);
    if opened > RATIO * lp * (1.0 + EPS) + EPS {
        return Err(format!("opened {opened} slots > 9/5 × LP {lp}"));
    }
    Ok(())
}

/// The solved payload of an engine outcome, or why there is none.
pub fn solved(outcome: &Outcome) -> Result<&SolveResult, String> {
    match outcome {
        Outcome::Solved(item) => Ok(&item.result),
        Outcome::Failed(msg) => Err(format!("solve failed: {msg}")),
        other => Err(format!("solve ended {}", other.label())),
    }
}

/// A checked engine outcome: solved, verified, within 9/5.
pub fn outcome<'a>(inst: &Instance, outcome: &'a Outcome) -> Result<&'a SolveResult, String> {
    let r = solved(outcome)?;
    solve_result(inst, r)?;
    Ok(r)
}

/// `ratio` (opened / LP, as a server reports it) within the 9/5 bound.
pub fn certified_ratio(ratio: Option<f64>) -> Result<(), String> {
    match ratio {
        Some(r) if r <= RATIO + EPS => Ok(()),
        Some(r) => Err(format!("certified ratio {r} > 9/5")),
        None => Err("reply carries no certified ratio".into()),
    }
}

/// Two results of the same instance agree bit for bit on what a caller
/// sees: the schedule and the slot counts.
pub fn same_result(a: &SolveResult, b: &SolveResult) -> Result<(), String> {
    if a.schedule != b.schedule
        || a.stats.opened_slots != b.stats.opened_slots
        || a.stats.active_slots != b.stats.active_slots
    {
        return Err(format!(
            "results differ: {} opened / {} active vs {} opened / {} active",
            a.stats.opened_slots, a.stats.active_slots, b.stats.opened_slots, b.stats.active_slots
        ));
    }
    Ok(())
}
