//! What one run reports: operations attempted and failed, failed output
//! checks, and metrics by name and unit.

use std::time::Instant;

use serde_json::{json, Map, Value};

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (batches, queries, trajectories, requests).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Put the metrics in the order `expected` lists them, as name and
    /// unit. A listed metric the run did not report fails the run, unless
    /// `zero_missing`, where it reads 0 (a layer the workload does not run);
    /// a metric in another unit, or one not listed, fails it too.
    pub fn conform(&mut self, expected: &[(&'static str, &'static str)], zero_missing: bool) {
        let mut ordered = Vec::with_capacity(expected.len());
        for &(name, unit) in expected {
            match self.metrics.iter().position(|m| m.0 == name) {
                Some(i) => {
                    let (_, value, got) = self.metrics.remove(i);
                    if got != unit {
                        self.check_failures
                            .push(format!("metric {name} is in {got}, not {unit}"));
                    }
                    ordered.push((name, value, unit));
                }
                None if zero_missing => ordered.push((name, 0.0, unit)),
                None => self
                    .check_failures
                    .push(format!("metric {name} was not reported")),
            }
        }
        for (name, _, _) in &self.metrics {
            self.check_failures
                .push(format!("metric {name} is not in the manifest"));
        }
        self.metrics = ordered;
    }

    /// The metrics, in recording order.
    pub fn metrics(&self) -> &[(&'static str, f64, &'static str)] {
        &self.metrics
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for &(name, value, unit) in &self.metrics {
            metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted as f64,
            "failed": self.failed as f64,
            "metrics": Value::Obj(metrics),
        })
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((s.len() as f64) * q).ceil() as usize;
    s[idx.saturating_sub(1).min(s.len() - 1)]
}

/// The median of each item's samples, given as (item, sample) pairs, in
/// item order. A transient stall of the host lands in one sample of one
/// item and leaves its median alone.
pub fn item_medians(samples: impl IntoIterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut by_item: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for (item, x) in samples {
        by_item.entry(item).or_default().push(x);
    }
    by_item.values().map(|v| median(v)).collect()
}

/// Mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Work done over time, accumulated round by round. The rate is total work
/// over total time: the host's speed drifts in phases of seconds, which an
/// aggregate over the whole run averages where a median round would pick
/// one phase.
#[derive(Default)]
pub struct Rate {
    work: f64,
    secs: f64,
    rounds: usize,
}

impl Rate {
    /// Add one round of `work` units done in `secs` seconds.
    pub fn add(&mut self, work: f64, secs: f64) {
        self.work += work;
        self.secs += secs;
        self.rounds += 1;
    }

    /// Units per second over every round.
    pub fn per_s(&self) -> f64 {
        self.work / self.secs
    }

    /// Rounds added.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// Bytes in the benchmark's megabyte (2^20).
pub const MB: f64 = 1024.0 * 1024.0;

/// Peak resident set of this process in MB (`VmHWM`), or `None` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024.0 / MB)
}

/// Run `setup` `times` times, keeping the last result; returns it with the
/// median wall time of one set-up.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    assert!(times >= 1);
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        // Drop the previous set-up first so the runs do not overlap in memory.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("times >= 1"), median(&secs))
}

/// How much slower the traced phase ran than the untraced one, in percent
/// of the untraced time per operation.
pub fn overhead_pct(untraced_rate: f64, traced_rate: f64) -> f64 {
    (untraced_rate / traced_rate - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        let pairs = [(1, 5.0), (0, 2.0), (1, 1.0), (1, 90.0), (0, 4.0)];
        assert_eq!(item_medians(pairs), vec![3.0, 5.0]);
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let mut o = Outcome::default();
        o.ops(10, 1);
        o.metric("setup_s", 1.5, "s");
        let line = serde_json::to_string(&o.to_json()).expect("serializable");
        assert!(line.starts_with('{') && line.contains("\"correct\":true"));
        let v: Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(10.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        let unit = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("unit"));
        assert_eq!(unit.and_then(Value::as_str), Some("s"));
        o.check(false, || "broken".into());
        assert!(!o.correct());
    }

    #[test]
    fn conform_orders_fills_and_flags() {
        let expected = [("a", "s"), ("b", "count"), ("c", "ms")];
        let mut o = Outcome::default();
        o.metric("c", 3.0, "ms");
        o.metric("a", 1.0, "s");
        o.conform(&expected, true);
        assert!(o.correct());
        assert_eq!(
            o.metrics(),
            &[("a", 1.0, "s"), ("b", 0.0, "count"), ("c", 3.0, "ms")]
        );

        let mut o = Outcome::default();
        o.metric("a", 1.0, "ms");
        o.metric("z", 1.0, "s");
        o.conform(&expected, false);
        assert_eq!(o.check_failures.len(), 4, "{:?}", o.check_failures);
    }
}
