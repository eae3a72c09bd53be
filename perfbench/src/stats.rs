//! The benchmark's arithmetic: tail percentiles, failure counting, and
//! exclusive (self) time from spans. Kept free of any qsr type so the
//! unit tests below pin the rules down on their own.

use std::collections::BTreeMap;

/// Minimum number of samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`, reported only
/// when at least [`TAIL_SAMPLES`] samples lie strictly beyond it; `None`
/// otherwise. The p90 of 100 samples is the 90th smallest and has 10
/// beyond it; 99 samples are one too few.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Timings grouped by the plan that produced them. A mix of plans has a
/// multi-modal distribution whose overall median can sit in the gap
/// between two modes and jump across it from run to run; a percentile of
/// each plan on its own does not.
#[derive(Debug, Default, Clone)]
pub struct ByPlan(pub BTreeMap<&'static str, Vec<f64>>);

impl ByPlan {
    pub fn push(&mut self, plan: &'static str, v: f64) {
        self.0.entry(plan).or_default().push(v);
    }

    /// Samples over all plans.
    pub fn len(&self) -> usize {
        self.0.values().map(Vec::len).sum()
    }

    /// Mean over plans of each plan's percentile `p` under the tail rule;
    /// `None` when there are no samples or any plan has too few.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let each: Option<Vec<f64>> = self.0.values().map(|xs| tail_percentile(xs, p)).collect();
        each.filter(|v| !v.is_empty()).map(|v| mean(&v))
    }
}

/// Plain median (used for repeated set-up timings, which are few).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of `samples`, 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Attempted versus failed operations. An operation fails when it returns
/// an error or when its output differs from the reference.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation: `Ok(true)` is a correct result, `Ok(false)` a
    /// wrong one, `Err` a failure.
    pub fn record<E: std::fmt::Display>(&mut self, what: &str, outcome: Result<bool, E>) {
        self.attempted += 1;
        let msg = match outcome {
            Ok(true) => return,
            Ok(false) => format!("{what}: output differs from the reference"),
            Err(e) => format!("{what}: {e}"),
        };
        self.fail(msg);
    }

    /// Count a failure found by a check that is not itself an operation
    /// (an exact count that did not repeat, a ledger that moved).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Add another tally's counts and messages to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.iter().take(room).cloned());
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Length of the union of the intervals `(start, end)`: the time during
/// which at least one of them is open.
pub fn covered(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, f64::NEG_INFINITY);
    for (a, b) in sorted {
        if b > reach {
            total += b - a.max(reach);
            reach = b;
        }
    }
    total
}

/// One closed span, times in seconds from a common origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same slice, if any.
    pub parent: Option<usize>,
}

/// Exclusive time per span name over the window `[t0, t1]`.
///
/// Each instant of the window is charged to the innermost spans open at
/// that instant: the open spans none of whose children are open. When
/// several are (spans on different threads), they share the instant
/// equally; an instant with no open span goes to `"unattributed"`. With
/// one thread this is the usual self time — a span's duration minus the
/// part its children cover — and on any input the entries add up to
/// `t1 - t0`.
pub fn exclusive_time(spans: &[Span], t0: f64, t1: f64) -> BTreeMap<&'static str, f64> {
    let mut edges: Vec<(f64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        let (a, b) = (s.start.max(t0), s.end.min(t1));
        if a < b {
            edges.push((a, true, i));
            edges.push((b, false, i));
        }
    }
    // Closes sort before opens at the same instant.
    edges.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut open: Vec<usize> = Vec::new();
    let mut charge = |open: &[usize], dt: f64| {
        if dt <= 0.0 {
            return;
        }
        let leaves: Vec<usize> = open
            .iter()
            .copied()
            .filter(|&i| !open.iter().any(|&j| spans[j].parent == Some(i)))
            .collect();
        if leaves.is_empty() {
            *out.entry("unattributed").or_default() += dt;
        } else {
            let share = dt / leaves.len() as f64;
            for i in leaves {
                *out.entry(spans[i].name).or_default() += share;
            }
        }
    };
    let mut t = t0;
    for (at, is_open, i) in edges {
        charge(&open, at - t);
        t = at;
        if is_open {
            open.push(i);
        } else {
            open.retain(|&j| j != i);
        }
    }
    charge(&open, t1 - t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent }
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        assert_eq!(tail_percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&hundred[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        v.swap(3, 150);
        assert_eq!(tail_percentile(&v, 0.9), Some(180.0));
        assert_eq!(tail_percentile(&v, 0.5), Some(100.0));
    }

    #[test]
    fn plan_percentile_averages_each_plans_own() {
        let mut b = ByPlan::default();
        for i in 1..=100 {
            b.push("fast", f64::from(i));
            b.push("slow", f64::from(i) + 1000.0);
        }
        assert_eq!(b.len(), 200);
        assert_eq!(b.percentile(0.9), Some((90.0 + 1090.0) / 2.0));
        b.push("rare", 5.0);
        assert_eq!(b.percentile(0.5), None, "one plan with too few samples fails it");
        assert_eq!(ByPlan::default().percentile(0.5), None);
    }

    #[test]
    fn failures_count_errors_and_wrong_outputs() {
        let mut t = Tally::default();
        t.record::<String>("ok", Ok(true));
        t.record::<String>("wrong", Ok(false));
        t.record("err", Err("boom"));
        t.record::<String>("ok", Ok(true));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.error_rate(), 0.5);
        assert!(t.errors[1].contains("boom"));
        t.fail("count moved".into());
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert_eq!(Tally::default().error_rate(), 1.0, "nothing attempted is not a pass");
    }

    #[test]
    fn covered_counts_overlaps_once() {
        assert_eq!(covered(&[(4.0, 6.0), (0.0, 2.0), (1.0, 3.0), (5.0, 5.5)]), 5.0);
        assert_eq!(covered(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        // query [0,10] > suspend [2,6] > put [3,4]; gap [10,12].
        let spans = vec![
            span("query", 0.0, 10.0, None),
            span("suspend", 2.0, 6.0, Some(0)),
            span("put", 3.0, 4.0, Some(1)),
        ];
        let t = exclusive_time(&spans, 0.0, 12.0);
        assert_eq!(t["query"], 6.0);
        assert_eq!(t["suspend"], 3.0);
        assert_eq!(t["put"], 1.0);
        assert_eq!(t["unattributed"], 2.0);
        assert_eq!(t.values().sum::<f64>(), 12.0);
    }

    #[test]
    fn concurrent_leaves_share_an_instant() {
        // Two workers' puts overlap on [2,3] under one batch span.
        let spans = vec![
            span("batch", 0.0, 4.0, None),
            span("put", 1.0, 3.0, Some(0)),
            span("put", 2.0, 3.0, Some(0)),
            span("get", 2.0, 4.0, Some(0)),
        ];
        let t = exclusive_time(&spans, 0.0, 4.0);
        assert_eq!(t["batch"], 1.0);
        // [1,2] put alone; [2,3] three leaves; [3,4] get alone.
        assert!((t["put"] - (1.0 + 2.0 / 3.0)).abs() < 1e-12);
        assert!((t["get"] - (1.0 + 1.0 / 3.0)).abs() < 1e-12);
        assert!((t.values().sum::<f64>() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn window_clips_spans() {
        let spans = vec![span("run", -1.0, 3.0, None), span("put", 2.5, 9.0, Some(0))];
        let t = exclusive_time(&spans, 0.0, 5.0);
        assert_eq!(t["run"], 2.5);
        assert_eq!(t["put"], 2.5);
        assert_eq!(t.values().sum::<f64>(), 5.0);
    }
}
