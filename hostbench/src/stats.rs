//! Sample statistics, failure accounting and the result line.
//!
//! Timings are summarised as a median plus the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples beyond it, so a tail is
//! never read off a handful of points.

/// Samples a tail percentile must leave strictly above its rank.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error in `p/100 × n` (e.g. 0.999 × 10000)
    // from pushing an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of `values` (the mean of the two middle values for an even
/// count). `values` need not be sorted; it must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest candidate percentile of `sorted` with at least
/// [`TAIL_BEYOND`] samples beyond its rank, as `(percentile, value)`;
/// `None` when there are too few samples for any of them.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| n > 0 && n - rank(p, n) >= TAIL_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Median, tail and count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the tail, if the sample supports one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values` (non-empty).
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            p50: median(&s),
            tail: tail(&s),
        }
    }

    /// `p50 … pNN (n=…)` for the human-readable table.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "p50 {:.3} {unit}, p{p} {v:.3} {unit} (n={})",
                self.p50, self.n
            ),
            None => format!(
                "p50 {:.3} {unit} (n={}, too few for a tail)",
                self.p50, self.n
            ),
        }
    }
}

/// How one attempted operation (a point or a submission) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with a correct result.
    Ok,
    /// Completed with an error or a wrong result.
    Failed,
    /// Refused by the system under test (e.g. shed as overloaded).
    Refused,
    /// Did not complete within its deadline.
    TimedOut,
}

/// Attempted operations and how they ended. Refused and timed-out
/// operations count as failures: they missed every latency limit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that completed correctly.
    pub ok: u64,
    /// Operations that failed outright.
    pub failed: u64,
    /// Operations the system refused.
    pub refused: u64,
    /// Operations that timed out.
    pub timed_out: u64,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::TimedOut => self.timed_out += 1,
        }
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.refused += other.refused;
        self.timed_out += other.timed_out;
    }

    /// Failed + refused + timed out.
    pub fn failures(&self) -> u64 {
        self.failed + self.refused + self.timed_out
    }

    /// [`failures`](Self::failures) ÷ attempted (0 when nothing was
    /// attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failures() as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Renders the final result line:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
/// Values keep every digit Rust's shortest round-trip formatting gives.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failures(),
        body.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond_its_rank() {
        assert_eq!(tail(&ramp(10)), None);
        // 11 samples: p50 has rank 6, 5 beyond; nothing qualifies.
        assert_eq!(tail(&ramp(11)), None);
        // 20 samples: p50 (rank 10) leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 200 samples: p95 (rank 190) leaves exactly 10.
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        // 199 samples: p95 has rank 190, 9 beyond, so p90 it is.
        assert_eq!(tail(&ramp(199)), Some((90.0, 180.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(10), 50.0), 5.0);
        assert_eq!(percentile(&ramp(10), 100.0), 10.0);
        assert_eq!(percentile(&ramp(10), 0.0), 1.0);
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.n, s.p50, s.tail), (3, 3.0, None));
    }

    #[test]
    fn refused_and_timed_out_count_as_failures() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Refused,
            Outcome::TimedOut,
            Outcome::Failed,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 5);
        assert_eq!(t.failures(), 3);
        assert!((t.failed_frac() - 0.6).abs() < 1e-12);
        let mut u = Tally::default();
        u.record(Outcome::Ok);
        u.merge(&t);
        assert_eq!((u.attempted, u.failures()), (6, 3));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn names_follow_the_result_contract() {
        for ok in [
            "wall_s",
            "mem.l1_hit_ns",
            "serve.parse_ms_124pt",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "wall/s", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "Minstr/s", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut t = Tally::default();
        t.record(Outcome::Ok);
        t.record(Outcome::Refused);
        let m = [Metric {
            name: "wall_s".into(),
            value: 1.25,
            unit: "s",
        }];
        assert_eq!(
            result_line(true, &t, &m).unwrap(),
            "{\"correct\":true,\"attempted\":2,\"failed\":1,\
             \"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        let bad = [Metric {
            name: "x".into(),
            value: f64::NAN,
            unit: "s",
        }];
        assert!(result_line(true, &t, &bad).is_err());
    }
}
