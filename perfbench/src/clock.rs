//! The benchmark's one clock, its telemetry sink, and process resources.
//!
//! Every timestamp comes from [`fleet_telemetry::Recorder::now_ns`] on one
//! process-wide recorder, so spans, client timings and the server's own
//! `HandleFrame` samples share an epoch and the benchmark reads no clock
//! of its own.

use fleet_telemetry::{Counter, Latency, Recorder, ResourceUsage, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static CLOCK: OnceLock<Recorder> = OnceLock::new();

/// Nanoseconds since the benchmark clock's epoch.
pub fn now_ns() -> u64 {
    CLOCK.get_or_init(Recorder::new).now_ns()
}

/// Sleeps until the benchmark clock reads at least `deadline_ns`.
pub fn sleep_until(deadline_ns: u64) {
    loop {
        let now = now_ns();
        if now >= deadline_ns {
            return;
        }
        std::thread::sleep(std::time::Duration::from_nanos(deadline_ns - now));
    }
}

static NEXT_THREAD_KEY: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_KEY: u64 = NEXT_THREAD_KEY.fetch_add(1, Ordering::Relaxed);
}

/// One `HandleFrame` sample as the server reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSample {
    /// Which server connection thread handled the frame.
    pub thread: u64,
    /// Start, ns on the benchmark clock.
    pub start_ns: u64,
    /// End, ns on the benchmark clock.
    pub end_ns: u64,
}

/// The benchmark-owned [`TelemetrySink`]: keeps every `HandleFrame` sample
/// with its server thread, the timestamp of every simulation round and
/// delivered result, and the protocol counters.
#[derive(Default)]
pub struct BenchSink {
    frames: Mutex<Vec<FrameSample>>,
    rounds: Mutex<Vec<u64>>,
    counters: [AtomicU64; Counter::ALL.len()],
}

impl BenchSink {
    /// The value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Every `HandleFrame` sample, in arrival order.
    pub fn frames(&self) -> Vec<FrameSample> {
        self.frames.lock().expect("frame samples lock").clone()
    }

    /// The end timestamp of every simulation round, in order.
    pub fn rounds(&self) -> Vec<u64> {
        self.rounds.lock().expect("round stamps lock").clone()
    }
}

impl TelemetrySink for BenchSink {
    fn now_ns(&self) -> u64 {
        now_ns()
    }

    fn record_latency(&self, metric: Latency, nanos: u64) {
        if metric == Latency::HandleFrame {
            let end_ns = now_ns();
            let sample = FrameSample {
                thread: THREAD_KEY.with(|key| *key),
                start_ns: end_ns.saturating_sub(nanos),
                end_ns,
            };
            self.frames.lock().expect("frame samples lock").push(sample);
        }
    }

    fn add(&self, counter: Counter, delta: u64) {
        if counter == Counter::SimRounds {
            self.rounds
                .lock()
                .expect("round stamps lock")
                .push(now_ns());
        }
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }
}

/// Kernel clock ticks per second behind [`ResourceUsage`]'s CPU times.
pub const CPU_TICKS_PER_S: f64 = 100.0;

/// CPU figures below this many ticks are flagged, not reported as measured.
pub const CPU_MIN_TICKS: f64 = 10.0;

/// Process resources consumed over one measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpan {
    before: ResourceUsage,
}

impl CpuSpan {
    /// Starts a measured phase.
    pub fn start() -> Self {
        CpuSpan {
            before: ResourceUsage::capture(),
        }
    }

    /// User + system CPU ticks since [`CpuSpan::start`].
    pub fn ticks(&self) -> f64 {
        (ResourceUsage::capture().cpu_seconds_since(&self.before) * CPU_TICKS_PER_S).round()
    }
}

/// Peak resident set of the process so far, in MB.
pub fn max_rss_mb() -> f64 {
    ResourceUsage::capture().max_rss_bytes as f64 / (1024.0 * 1024.0)
}
