//! Order statistics and the metric report.

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` (sorted in place), interpolating between
/// neighbours; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let position = q * (values.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    values[low] + (values[high] - values[low]) * (position - low as f64)
}

/// The highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
}

/// Samples that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The tail of `values` (sorted in place). With fewer than eleven samples
/// it is the maximum, with none beyond.
pub fn tail(values: &mut [f64]) -> Tail {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: values.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            beyond: 0,
        };
    }
    let index = n - TAIL_BEYOND - 1;
    Tail {
        value: values[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond: TAIL_BEYOND,
    }
}

/// Named metrics with units, printed one per line and then as the JSON
/// summary line.
#[derive(Debug)]
pub struct Metrics {
    attempted: usize,
    failed: usize,
    values: Vec<(String, f64, &'static str)>,
    shown: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn new(attempted: usize, failed: usize) -> Self {
        Metrics {
            attempted,
            failed,
            values: Vec::new(),
            shown: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.push((name.into(), value, unit));
    }

    /// A metric printed like the others but kept out of the summary,
    /// because it can be 0 or is too noisy to gate on.
    pub fn show(&mut self, name: &str, value: f64, unit: &'static str) {
        self.shown.push((name.into(), value, unit));
    }

    /// A line printed with the metrics but kept out of the summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn print(&self, correct: bool) {
        for (name, value, unit) in self.values.iter().chain(&self.shown) {
            println!("{name} {value} {unit}");
        }
        for note in &self.notes {
            println!("# {note}");
        }
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
