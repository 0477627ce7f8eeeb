//! The `train` workload: `AsyncSimulation` with AdaSGD under D2 = N(12, 4)
//! staleness on non-IID data (the Fig. 8 setting), widened and made harder
//! so gradient compute dominates a step and accuracy still rises at the end.

use crate::clock::{self, BenchSink};
use crate::trace::{ExchangeId, Kind, Span, Tracer};
use fleet_core::{AdaSgd, StalenessTracker};
use fleet_data::partition::{non_iid_shards, UserPartition};
use fleet_data::synthetic::{generate, SyntheticSpec};
use fleet_data::Dataset;
use fleet_ml::models::mlp_classifier;
use fleet_ml::Sequential;
use fleet_server::simulation::EvalPoint;
use fleet_server::{AsyncSimulation, SimulationConfig, StalenessDistribution};
use fleet_telemetry::{Counter, TelemetryHandle, TelemetrySink};
use std::sync::Arc;

/// The shape of a simulated training world and run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainShape {
    /// Label classes.
    pub classes: usize,
    /// Input features.
    pub features: usize,
    /// Hidden width of the MLP.
    pub hidden: usize,
    /// Examples in the world before the 80/20 train/test split.
    pub examples: usize,
    /// Users of the non-IID partition.
    pub users: usize,
    /// Class-cluster width (Fig. 8 uses 0.5; wider is harder).
    pub cluster_std: f32,
    /// Global steps per round.
    pub steps: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Steps between test evaluations.
    pub eval_every: usize,
    /// Test examples per evaluation.
    pub eval_examples: usize,
}

/// The `train` workload: a wide MLP (gradient compute dominates a step) on
/// a world hard enough that accuracy still rises when the round ends.
///
/// A batch of 60 keeps every matrix product of a step below the kernels'
/// parallel threshold, so a step runs on one thread. On the 2-vCPU host
/// the benchmark was defined on, a batch of 100 (two threads per product)
/// cost the same per example, and the joins gave the step time a tail that
/// moved 4x between runs of the same code.
pub const TRAIN: TrainShape = TrainShape {
    classes: 10,
    features: 32,
    hidden: 256,
    examples: 6000,
    users: 100,
    cluster_std: 1.2,
    steps: 3000,
    batch: 60,
    eval_every: 50,
    eval_examples: 800,
};

/// The accuracy `time_to_target_s` waits for on `train`.
pub const TARGET_ACCURACY: f64 = 0.4;

/// The world one round trains on.
pub struct World {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// Non-IID user partition of the training split.
    pub users: UserPartition,
}

impl TrainShape {
    /// Builds the world for `seed`.
    pub fn world(&self, seed: u64) -> World {
        let spec = SyntheticSpec {
            cluster_std: self.cluster_std,
            ..SyntheticSpec::vector(self.classes, self.features, self.examples)
        };
        let (train, test) = generate(&spec, seed).split(0.2);
        let users = non_iid_shards(&train, self.users, 2, seed.wrapping_add(1));
        World { train, test, users }
    }

    /// The model every round starts from.
    pub fn model(&self, seed: u64) -> Sequential {
        mlp_classifier(self.features, &[self.hidden], self.classes, seed)
    }

    /// The simulation configuration.
    pub fn config(&self, seed: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .steps(self.steps)
            .learning_rate(0.03)
            .batch_size(self.batch)
            .aggregation_k(1)
            .staleness(StalenessDistribution::d2())
            .eval_every(self.eval_every)
            .eval_examples(self.eval_examples)
            .seed(seed)
            .build()
            .expect("benchmark simulation config is valid")
    }

    /// The aggregator (AdaSGD as in Fig. 8).
    pub fn aggregator(&self) -> AdaSgd {
        AdaSgd::new(self.classes, 99.7)
    }

    /// The same run evaluated once, at its last step: the rounds whose
    /// steps are timed. Evaluation is the benchmark's measurement, not
    /// training work, and draws no randomness, so the parameters end the
    /// same as with the full curve.
    pub fn timed(self) -> TrainShape {
        TrainShape {
            eval_every: self.steps,
            ..self
        }
    }
}

/// What one round produced.
pub struct Round {
    /// Start of the timed phase, ns on the benchmark clock.
    pub start_ns: u64,
    /// World + model + simulation construction.
    pub setup_ns: u64,
    /// First step start to last step end.
    pub wall_ns: u64,
    /// CPU ticks of the timed phase.
    pub cpu_ticks: f64,
    /// Duration of every step, in order.
    pub step_ns: Vec<u64>,
    /// End of every step, relative to the timed phase's start.
    pub step_end_ns: Vec<u64>,
    /// Test evaluations.
    pub evals: Vec<EvalPoint>,
    /// Final parameters.
    pub parameters: Vec<f32>,
    /// AdaSGD's staleness history at the end of the run.
    pub staleness_history: Vec<u64>,
    /// Results the simulation delivered and applied.
    pub delivered: u64,
    /// Results it applied.
    pub applied: u64,
}

/// Runs one round. The benchmark sink timestamps every step in both
/// modes (one clock read per step); nothing else differs.
pub fn run_round(shape: &TrainShape, seed: u64) -> Round {
    let setup_start = clock::now_ns();
    let world = shape.world(seed);
    let mut model = shape.model(seed);
    let mut sim = AsyncSimulation::new(&world.train, &world.test, &world.users, shape.config(seed));
    let sink = Arc::new(BenchSink::default());
    sim.set_telemetry(TelemetryHandle::new(
        Arc::clone(&sink) as Arc<dyn TelemetrySink>
    ));
    let start = clock::now_ns();
    let setup_ns = start - setup_start;
    let cpu = clock::CpuSpan::start();
    let checkpoint = sim.run_until(&mut model, shape.aggregator(), shape.steps);
    let cpu_ticks = cpu.ticks();
    let ends = sink.rounds();
    let wall_ns = ends.last().map_or(0, |end| end - start);
    let mut previous = start;
    let step_ns = ends
        .iter()
        .map(|&end| {
            let d = end - previous;
            previous = end;
            d
        })
        .collect();
    Round {
        start_ns: start,
        setup_ns,
        wall_ns,
        cpu_ticks,
        step_ns,
        step_end_ns: ends.iter().map(|&end| end - start).collect(),
        evals: checkpoint.evals.clone(),
        parameters: model.parameters(),
        staleness_history: checkpoint.server.aggregator.staleness_values.clone(),
        delivered: sink.counter(Counter::Results),
        applied: sink.counter(Counter::Applied),
    }
}

/// Evaluations the accuracy figures are smoothed over: with K = 1 on
/// non-IID users, test accuracy swings by ±0.1 from one evaluation to the
/// next.
pub const SMOOTHING: usize = 3;

/// Test accuracy at the end of the run (mean of the last [`SMOOTHING`]
/// evaluations).
pub fn final_accuracy(evals: &[EvalPoint]) -> f64 {
    let last = &evals[evals.len().saturating_sub(SMOOTHING)..];
    last.iter().map(|e| f64::from(e.accuracy)).sum::<f64>() / last.len().max(1) as f64
}

/// Wall time (ns) until the smoothed test accuracy of `evals` first
/// reaches `target`, read off the step end times `step_end_ns` of a run
/// with the same trajectory and interpolated between the two evaluations
/// that bracket the crossing; `None` when the run never reaches it.
pub fn time_to_target(evals: &[EvalPoint], step_end_ns: &[u64], target: f64) -> Option<f64> {
    // An evaluation at step `s` follows the `s`-th step.
    let at = |step: usize| step_end_ns[step.clamp(1, step_end_ns.len()) - 1] as f64;
    let mut previous: Option<(f64, f64)> = None;
    for (i, eval) in evals.iter().enumerate() {
        let window = &evals[(i + 1).saturating_sub(SMOOTHING)..=i];
        let acc = window.iter().map(|e| f64::from(e.accuracy)).sum::<f64>() / window.len() as f64;
        let t = at(eval.step);
        if acc >= target {
            return Some(match previous {
                Some((t0, a0)) if acc > a0 => t0 + (t - t0) * (target - a0) / (acc - a0),
                _ => t,
            });
        }
        previous = Some((t, acc));
    }
    None
}

/// The spans of a traced round: one per step, built from the sink's step
/// timestamps.
pub fn step_spans(round: &Round) -> Vec<Span> {
    let mut tracer = Tracer::new(true, 1 << 44);
    let mut begin = round.start_ns;
    for (step, &end) in round.step_end_ns.iter().enumerate() {
        let end = round.start_ns + end;
        tracer.push(Span {
            id: 0,
            parent: None,
            name: "simulation.round",
            start_ns: begin,
            end_ns: end,
            exchange: Some(ExchangeId {
                worker: 0,
                seq: step as u32,
                kind: Kind::Step,
            }),
        });
        begin = end;
    }
    tracer.into_spans()
}

/// Times `Sequential::compute_gradient` on workload batches, `reps` times.
pub fn gradient_probe(shape: &TrainShape, seed: u64, reps: usize, tracer: &mut Tracer) -> Vec<f64> {
    let world = shape.world(seed);
    let mut model = shape.model(seed);
    let indices: Vec<usize> = (0..shape.batch.min(world.train.len())).collect();
    let (inputs, labels) = world.train.batch(&indices);
    (0..reps)
        .map(|_| {
            let id = tracer.open("ml.gradient", None, None);
            let t0 = clock::now_ns();
            let out = model.compute_gradient(&inputs, &labels);
            let d = clock::now_ns() - t0;
            tracer.close(id);
            std::hint::black_box(out).expect("workload batches match the model");
            d as f64 / 1e3
        })
        .collect()
}

/// Times `StalenessTracker::tau_thres` over `history`, `reps` times (µs).
pub fn tau_thres_probe(history: &[u64], reps: usize, tracer: &mut Tracer) -> Vec<f64> {
    let mut tracker = StalenessTracker::without_bootstrap();
    tracker.restore_values(history.to_vec());
    (0..reps)
        .map(|_| {
            let id = tracer.open("core.tau_thres", None, None);
            let t0 = clock::now_ns();
            std::hint::black_box(tracker.tau_thres(99.7, 1));
            let d = clock::now_ns() - t0;
            tracer.close(id);
            d as f64 / 1e3
        })
        .collect()
}
