//! The benchmark's own spans: one record per call into a layer, kept in
//! memory for the traced run and reduced to per-layer metrics at the end.

use atsched_obs::TraceEvent;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: usize,
    pub name: &'static str,
    /// The operation (solve, amend or request) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Thread-safe span recorder.
pub struct Spans {
    epoch: Instant,
    next_id: AtomicUsize,
    recs: Mutex<Vec<SpanRec>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { epoch: Instant::now(), next_id: AtomicUsize::new(0), recs: Mutex::new(Vec::new()) }
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent spans of its own (on any thread).
    pub fn time<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let rec = SpanRec { id, name, op, parent, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.recs.lock().expect("span recorder lock poisoned by a panicking op").push(rec);
        out
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every completed span, ordered by id (= entry order).
    pub fn records(&self) -> Vec<SpanRec> {
        let mut recs = self.recs.lock().expect("span recorder lock poisoned").clone();
        recs.sort_by_key(|r| r.id);
        recs
    }

    /// [`records`](Self::records) plus the program's own span `events`
    /// that started inside one of the recorded root spans, each adopted
    /// as a child of that root. The events' buffer must have been created
    /// just before this recorder, so that both count from one epoch.
    pub fn adopt(&self, events: &[TraceEvent]) -> Vec<SpanRec> {
        let mut recs = self.records();
        let mut roots: Vec<(u64, u64, usize, u64)> = recs
            .iter()
            .filter(|r| r.parent.is_none())
            .map(|r| (r.start_ns, r.end_ns, r.id, r.op))
            .collect();
        roots.sort_unstable();
        let mut next_id = self.next_id.load(Ordering::Relaxed);
        for e in events {
            let start_ns = (e.ts_us * 1e3) as u64;
            let end_ns = start_ns + (e.dur_us * 1e3) as u64;
            let i = roots.partition_point(|r| r.0 <= start_ns);
            let Some(&(_, root_end, parent, op)) = i.checked_sub(1).map(|i| &roots[i]) else {
                continue;
            };
            if start_ns <= root_end {
                recs.push(SpanRec {
                    id: next_id,
                    name: e.name,
                    op,
                    parent: Some(parent),
                    start_ns,
                    end_ns,
                });
                next_id += 1;
            }
        }
        recs
    }
}

/// Wall-clock milliseconds of every span named `name`.
pub fn samples_ms(recs: &[SpanRec], name: &str) -> Vec<f64> {
    recs.iter().filter(|r| r.name == name).map(SpanRec::ms).collect()
}

/// Summed milliseconds of every span named `name`.
pub fn total_ms(recs: &[SpanRec], name: &str) -> f64 {
    samples_ms(recs, name).iter().sum()
}

/// Share of root-span (operation) wall time during which none of the
/// operation's leaf spans was running on any thread: `Σ (op wall −
/// |∪ leaf intervals|) / Σ op wall`. Leaves are spans with no children;
/// their intervals are clipped to the operation's and merged, so
/// overlapping work on parallel workers is not double counted.
pub fn unattributed_share(recs: &[SpanRec]) -> f64 {
    let parents: HashSet<usize> = recs.iter().filter_map(|r| r.parent).collect();
    let mut roots: Vec<&SpanRec> = Vec::new();
    let mut leaves: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for r in recs {
        if r.parent.is_none() {
            roots.push(r);
        } else if !parents.contains(&r.id) {
            leaves.entry(r.op).or_default().push((r.start_ns, r.end_ns));
        }
    }
    let mut wall = 0u64;
    let mut uncovered = 0u64;
    for root in roots {
        let mut leaves = leaves.remove(&root.op).unwrap_or_default();
        leaves.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = root.start_ns;
        for (s, e) in leaves {
            let (s, e) = (s.max(cursor), e.min(root.end_ns));
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        let dur = root.end_ns - root.start_ns;
        wall += dur;
        uncovered += dur - covered.min(dur);
    }
    if wall == 0 {
        0.0
    } else {
        uncovered as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { id, name: "x", op: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn overlapping_leaves_are_merged_not_summed() {
        // op [0, 100): fanout [10, 90) with two parallel leaves [10, 60)
        // and [20, 80), plus a leaf [85, 95) clipped at the op's end.
        let recs = vec![
            rec(0, None, 0, 100),
            rec(1, Some(0), 10, 90),
            rec(2, Some(1), 10, 60),
            rec(3, Some(1), 20, 80),
            rec(4, Some(0), 85, 110),
        ];
        // Covered: [10, 80) ∪ [85, 100) = 85 of 100.
        assert!((unattributed_share(&recs) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn op_without_children_is_fully_unattributed() {
        assert_eq!(unattributed_share(&[rec(0, None, 0, 10)]), 1.0);
        assert_eq!(unattributed_share(&[]), 0.0);
    }

    #[test]
    fn program_events_are_adopted_by_the_enclosing_root() {
        let spans = Spans::new();
        spans.time("op", 3, None, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        let root = spans.records()[0].clone();
        let event = |offset_ns: i64| TraceEvent {
            name: "solve",
            ts_us: (root.start_ns as i64 + offset_ns) as f64 / 1e3,
            dur_us: 0.5,
            tid: 1,
        };
        let inside = event(1_000);
        let outside = event(root.end_ns as i64 - root.start_ns as i64 + 1_000_000);
        let recs = spans.adopt(&[inside, outside]);
        assert_eq!(recs.len(), 2, "the event after the op is dropped");
        assert_eq!((recs[1].op, recs[1].parent), (3, Some(root.id)));
        assert!(unattributed_share(&recs) < 1.0);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let spans = Spans::new();
        spans.time("op", 7, None, |op| {
            spans.time("leaf", 7, Some(op), |_| std::hint::black_box(1 + 1));
        });
        let recs = spans.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "op");
        assert_eq!(recs[1].parent, Some(recs[0].id));
        assert_eq!(samples_ms(&recs, "leaf").len(), 1);
        assert!(total_ms(&recs, "op") >= total_ms(&recs, "leaf"));
        let share = unattributed_share(&recs);
        assert!(share.is_finite() && (0.0..=1.0).contains(&share));
    }
}
