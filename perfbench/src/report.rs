//! Collects metrics, prints them by name with unit and sample count, and
//! ends standard output with the one-line JSON result.

use crate::clock;
use crate::stats::Summary;
use crate::trace::Span;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// Extra context printed beside it (not part of the JSON).
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// Figures printed for reading but not part of the JSON result.
    infos: Vec<Metric>,
    errors: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metric_owned(name.to_string(), value, unit, n);
    }

    /// Adds a metric with a computed name.
    pub fn metric_owned(&mut self, name: String, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            n,
            note: String::new(),
        });
    }

    /// Sets the note printed beside the last metric added.
    pub fn note_last(&mut self, note: String) {
        if let Some(m) = self.metrics.last_mut() {
            m.note = note;
        }
    }

    /// A tail figure, noting which percentile the sample count allowed.
    pub fn summary_tail(&mut self, name: &str, s: &Summary) {
        self.metric(name, s.tail, "us", s.n);
        self.note_last(format!("p{}", s.tail_p));
    }

    /// A figure printed for reading, not part of the JSON result.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.infos.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            note: String::new(),
        });
    }

    /// Sets the note printed beside the last figure added for reading.
    pub fn note_last_info(&mut self, note: String) {
        if let Some(m) = self.infos.last_mut() {
            m.note = note;
        }
    }

    /// `<prefix>_p50_us` and `<prefix>_tail_us` printed for reading.
    pub fn info_summary(&mut self, prefix: &str, s: &Summary) {
        self.info(&format!("{prefix}_p50_us"), s.p50, "us", s.n);
        self.info(&format!("{prefix}_tail_us"), s.tail, "us", s.n);
        self.note_last_info(format!("p{}", s.tail_p));
    }

    /// `setup_s`: the median of the run's set-ups.
    pub fn setup(&mut self, setups_s: &[f64]) {
        self.metric(
            "setup_s",
            crate::stats::median(setups_s),
            "s",
            setups_s.len(),
        );
    }

    /// `max_rss_mb`: the process's peak resident set.
    pub fn max_rss(&mut self) {
        self.metric("max_rss_mb", clock::max_rss_mb(), "MB", 1);
    }

    /// `cpu_ms_per_kop` from CPU ticks per 1 000 operations, measured over
    /// `total_ticks` ticks in all; a figure resting on fewer than
    /// [`clock::CPU_MIN_TICKS`] ticks is flagged, not passed as measured.
    pub fn cpu(&mut self, ticks_per_kop: f64, total_ticks: f64, n: usize) {
        let tick_ms = 1e3 / clock::CPU_TICKS_PER_S;
        self.metric("cpu_ms_per_kop", ticks_per_kop * tick_ms, "ms", n);
        if total_ticks < clock::CPU_MIN_TICKS {
            self.fail(format!(
                "cpu_ms_per_kop rests on {total_ticks} ticks < {} (tick = {tick_ms} ms)",
                clock::CPU_MIN_TICKS
            ));
        }
        self.note_last(format!("{total_ticks} ticks of {tick_ms} ms"));
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, message: String) {
        self.errors.push(message);
    }

    /// Whether a metric is already present.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// Overwrites the value of a metric already added.
    pub fn set_value(&mut self, name: &str, value: f64, n: usize) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .expect("metric to overwrite was added");
        m.value = value;
        m.n = n;
    }

    /// Prints the table, the failures and the JSON line; returns whether
    /// every correctness check passed.
    pub fn finish(mut self) -> bool {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.errors
                    .push(format!("{} is not a finite number", m.name));
            }
        }
        let print = |m: &Metric| {
            println!(
                "{:<34} {:>16.4} {:<6} n={:<8} {}",
                m.name, m.value, m.unit, m.n, m.note
            );
        };
        if !self.infos.is_empty() {
            println!("-- printed for reading, not in the result line:");
            self.infos.iter().for_each(print);
            println!("-- result metrics:");
        }
        self.metrics.iter().for_each(print);
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        let correct = self.errors.is_empty();
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}
