//! `fleet-perfbench` — the FLeet benchmark.
//!
//! ```text
//! fleet-perfbench --workload soak|bulk|train --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! every per-layer metric, and writes the span file. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is non-zero when a correctness check fails.
//! See `README.md` for the workloads, the metrics and how they interact.

mod clock;
mod exchange;
mod host;
mod report;
mod stats;
mod trace;
mod train;

use exchange::SocketWorkload;
use fleet_loadgen::FleetShape;
use report::Report;
use stats::Summary;
use std::path::PathBuf;
use train::TrainShape;

/// The seed later claims are checked on; never used while tuning.
pub const HELD_OUT_SEED: u64 = 0x5eed_0b5e;

/// `soak`: closed loop, 256 workers on the default 92-parameter MLP,
/// durable with a step cadence, a history past 10⁴ applied results.
fn soak() -> SocketWorkload {
    SocketWorkload {
        name: "soak",
        workers: 256,
        ops_per_worker: 48,
        shape: FleetShape::default(),
        batch: 32,
        rate: None,
        durable: true,
        checkpoint_every: 512,
        replay_limit: usize::MAX,
        slo_us: None,
    }
}

/// Input width that gives the bulk model about 1M parameters (hidden 8).
const BULK_FEATURES: usize = 131_072;

/// `bulk`: open loop at a fixed offered rate, 8 workers on a ~1M-parameter
/// model, no durability, short history.
fn bulk() -> SocketWorkload {
    SocketWorkload {
        name: "bulk",
        workers: 8,
        ops_per_worker: 13,
        shape: FleetShape {
            num_classes: 4,
            feature_dim: BULK_FEATURES,
            examples: 64,
        },
        batch: 4,
        rate: Some(10.0),
        durable: false,
        checkpoint_every: 16,
        replay_limit: 48,
        slo_us: Some(50_000.0),
    }
}

/// The socket pass the traced `train` run uses to price the exchange
/// layers at the train world's input shape (train itself has no socket).
fn train_probe() -> SocketWorkload {
    SocketWorkload {
        name: "train-probe",
        workers: 32,
        ops_per_worker: 16,
        shape: FleetShape {
            num_classes: train::TRAIN.classes,
            feature_dim: train::TRAIN.features,
            examples: 1024,
        },
        batch: 32,
        rate: None,
        durable: true,
        checkpoint_every: 64,
        replay_limit: usize::MAX,
        slo_us: None,
    }
}

/// The short simulation the traced socket runs use to price the
/// simulation layer at the fleet's default model shape.
const SIM_PROBE: TrainShape = TrainShape {
    classes: 4,
    features: 6,
    hidden: 8,
    examples: 1280,
    users: 64,
    cluster_std: 0.5,
    steps: 400,
    batch: 16,
    eval_every: 100,
    eval_examples: 200,
};

/// Nominal wall seconds of one round; a run makes `seconds / nominal`
/// rounds (at least 2), so the work per run is fixed by `--seconds`, not
/// by how fast the code is.
fn nominal_round_s(workload: &str) -> f64 {
    match workload {
        "soak" => 2.5,
        "bulk" => 10.8,
        _ => 1.4,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = if v == "held-out" {
                    HELD_OUT_SEED
                } else {
                    v.parse().map_err(|_| format!("bad --seed {v}"))?
                };
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["soak", "bulk", "train"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (soak, bulk, train)"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!(
                "{err}\nusage: fleet-perfbench --workload soak|bulk|train --seed N|held-out \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let work_dir = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("create the benchmark working directory");
    host::print(&args.workload, args.seed, args.trace);
    let rounds = ((args.seconds / nominal_round_s(&args.workload)).round() as usize).max(2);
    let mut report = Report::default();
    match (args.workload.as_str(), args.trace) {
        ("soak", false) => socket_untraced(&soak(), args.seed, rounds, &work_dir, &mut report),
        ("bulk", false) => socket_untraced(&bulk(), args.seed, rounds, &work_dir, &mut report),
        ("train", false) => train_untraced(args.seed, rounds, &mut report),
        ("soak", true) => socket_traced(&soak(), args.seed, &work_dir, &mut report),
        ("bulk", true) => socket_traced(&bulk(), args.seed, &work_dir, &mut report),
        _ => train_traced(args.seed, &work_dir, &mut report),
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    if args.trace {
        // One file per workload: the latest traced run's spans.
        let path = out_dir.join(format!("spans-{}.json", args.workload));
        match trace::write_json(&path, &args.workload, args.seed, &report.spans) {
            Ok(()) => println!(
                "spans: {} written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(err) => report.fail(format!("span file: {err}")),
        }
    }
    let correct = report.finish();
    std::process::exit(if correct { 0 } else { 1 });
}

/// Latency of each completed exchange (request + submit halves), in
/// completion order, plus the halves on their own.
struct Exchanges {
    op_us: Vec<f64>,
    /// Service time of each completed exchange (both halves from send), in
    /// completion order: what `uptime_slowdown` compares, so an open loop's
    /// queueing behind a burst does not pass for an uptime effect.
    service_us: Vec<f64>,
    request_us: Vec<f64>,
    submit_us: Vec<f64>,
    ok: usize,
    failed: usize,
    scheduled: usize,
}

fn service_us(record: &exchange::Record) -> f64 {
    (record.done_ns - record.send_ns) as f64 / 1e3
}

fn exchanges(round: &exchange::Round, slo_us: Option<f64>) -> Exchanges {
    use std::collections::BTreeMap;
    use trace::Kind;
    let mut requests = BTreeMap::new();
    let mut out = Exchanges {
        op_us: Vec::new(),
        service_us: Vec::new(),
        request_us: Vec::new(),
        submit_us: Vec::new(),
        ok: 0,
        failed: 0,
        scheduled: 0,
    };
    let mut done = Vec::new();
    for r in &round.records {
        let us = r.latency_ns() as f64 / 1e3;
        match r.id.kind {
            Kind::Request => {
                out.scheduled += 1;
                if r.outcome.ok() {
                    out.request_us.push(us);
                    requests.insert((r.id.worker, r.id.seq), (us, service_us(r)));
                } else {
                    out.failed += 1;
                }
            }
            _ => {
                // An exchange whose request failed was counted there.
                let Some(&(request, request_service)) = requests.get(&(r.id.worker, r.id.seq))
                else {
                    continue;
                };
                if !r.outcome.ok() {
                    out.failed += 1;
                    continue;
                }
                out.submit_us.push(us);
                let op = request + us;
                done.push((r.done_ns, op, request_service + service_us(r)));
                if slo_us.is_none_or(|limit| op <= limit) {
                    out.ok += 1;
                }
            }
        }
    }
    done.sort_by_key(|&(t, _, _)| t);
    out.op_us = done.iter().map(|&(_, op, _)| op).collect();
    out.service_us = done.iter().map(|&(_, _, service)| service).collect();
    out
}

/// One round's end-to-end figures. A run reports the median of each over
/// its rounds, so one disturbed round cannot move a result.
struct Figures {
    setup_s: f64,
    ops_per_s: f64,
    op: Summary,
    /// Service times of the round's first and last tenth of ops.
    first_tenth: Vec<f64>,
    last_tenth: Vec<f64>,
    cpu_ticks: f64,
    ops: usize,
}

impl Figures {
    /// `op_us` any order; `service_in_order` in completion order.
    fn of(
        setup_ns: u64,
        op_us: &[f64],
        service_in_order: &[f64],
        wall_ns: u64,
        ticks: f64,
    ) -> Self {
        let (first, last) = stats::first_and_last_tenth(service_in_order);
        Figures {
            setup_s: setup_ns as f64 / 1e9,
            ops_per_s: op_us.len() as f64 / (wall_ns as f64 / 1e9),
            op: Summary::of(op_us),
            first_tenth: first.to_vec(),
            last_tenth: last.to_vec(),
            cpu_ticks: ticks,
            ops: op_us.len(),
        }
    }
}

/// Reports the per-round medians of every timing figure, and `ok_ratio`
/// as `ok` out of `attempted`.
fn report_rounds(report: &mut Report, rounds: &[Figures], ok: usize, attempted: usize) {
    let median =
        |f: &dyn Fn(&Figures) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let n = rounds.len();
    report.setup(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    report.metric("ops_per_s", median(&|r| r.ops_per_s), "1/s", n);
    let per_round = rounds[0].op;
    report.metric("op_p50_us", median(&|r| r.op.p50), "us", n);
    report.note_last(format!("median of {n} rounds of {} ops", per_round.n));
    // Printed, not gated: on a shared 2-vCPU host the tail of every
    // workload moved by more than the largest bound between runs of the
    // same code (see README.md).
    report.info("op_tail_us", median(&|r| r.op.tail), "us", n);
    report.note_last_info(format!(
        "p{} of {} ops, median of {n} rounds",
        per_round.tail_p, per_round.n
    ));
    // The tenths of all rounds pooled: one median over n times as many
    // samples per side steadies the ratio.
    let pooled = |f: &dyn Fn(&Figures) -> &[f64]| {
        stats::median(
            &rounds
                .iter()
                .flat_map(|r| f(r).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    report.metric(
        "uptime_slowdown",
        pooled(&|r| &r.last_tenth) / pooled(&|r| &r.first_tenth),
        "ratio",
        n,
    );
    report.metric("ok_ratio", ok as f64 / attempted as f64, "ratio", attempted);
    report.max_rss();
    // CPU over all rounds at once: a round rests on too few ticks for a
    // per-round median to resolve better than a tick.
    let ticks: f64 = rounds.iter().map(|r| r.cpu_ticks).sum();
    let ops: usize = rounds.iter().map(|r| r.ops).sum();
    report.cpu(ticks * 1e3 / ops as f64, ticks, n);
}

fn socket_untraced(
    workload: &SocketWorkload,
    seed: u64,
    rounds: usize,
    work_dir: &std::path::Path,
    report: &mut Report,
) {
    let mut figures = Vec::new();
    let (mut op_us, mut request_us, mut submit_us) = (vec![], vec![], vec![]);
    let (mut ok, mut failed, mut scheduled) = (0, 0, 0);
    for round_no in 0..rounds {
        let round = exchange::run_round(workload, seed, work_dir, round_no, false);
        if round_no == 0 {
            println!("schedule digest: {:#018x}", round.digest);
        }
        round.errors.iter().for_each(|e| report.fail(e.clone()));
        let ex = exchanges(&round, workload.slo_us);
        figures.push(Figures::of(
            round.setup_ns,
            &ex.op_us,
            &ex.service_us,
            round.wall_ns,
            round.cpu_ticks,
        ));
        op_us.extend(ex.op_us);
        request_us.extend(ex.request_us);
        submit_us.extend(ex.submit_us);
        ok += ex.ok;
        failed += ex.failed;
        scheduled += ex.scheduled;
    }
    report.attempted = scheduled;
    report.failed = failed;
    // The same figures under their per-workload names, request and submit
    // pooled over the rounds, printed for reading.
    let per_s: Vec<f64> = figures.iter().map(|f| f.ops_per_s).collect();
    report.info(
        "exchanges_per_s",
        stats::median(&per_s),
        "1/s",
        figures.len(),
    );
    report.info_summary("request", &Summary::of(&request_us));
    report.info_summary("submit", &Summary::of(&submit_us));
    report.info(
        "error_ratio",
        failed as f64 / scheduled as f64,
        "ratio",
        scheduled,
    );
    if let Some(limit) = workload.slo_us {
        report.info("slo_limit_us", limit, "us", 1);
        report.info(
            "slo_miss_ratio",
            1.0 - ok as f64 / scheduled as f64,
            "ratio",
            scheduled,
        );
    }
    report_rounds(report, &figures, ok, scheduled);
}

fn socket_traced(
    workload: &SocketWorkload,
    seed: u64,
    work_dir: &std::path::Path,
    report: &mut Report,
) {
    let untraced = exchange::run_round(workload, seed, work_dir, 0, false);
    let round = exchange::run_round(workload, seed, work_dir, 1, true);
    println!("schedule digest: {:#018x}", round.digest);
    for r in [&untraced, &round] {
        r.errors.iter().for_each(|e| report.fail(e.clone()));
    }
    let replay = exchange::replay(workload, seed, work_dir);
    let ex = exchanges(&round, workload.slo_us);
    report.attempted = ex.scheduled;
    report.failed = ex.failed;
    // Overhead: a closed loop's wall time stretches with tracing; an open
    // loop's is pinned by its schedule, so compare its exchange latency.
    let overhead = match workload.rate {
        None => round.wall_ns as f64 / untraced.wall_ns as f64,
        Some(_) => stats::mean(&ex.op_us) / stats::mean(&exchanges(&untraced, None).op_us),
    };
    socket_layers(round, replay, report);
    sim_layers(&SIM_PROBE, seed, report);
    report.metric("telemetry.overhead_ratio", overhead, "ratio", 1);
}

/// Per-layer metrics of one traced socket round and its in-process replay;
/// their spans join the report's.
fn socket_layers(round: exchange::Round, replay: exchange::Replay, report: &mut Report) {
    let durations = |name: &str| {
        let mut all = trace::durations_us(&round.spans, name);
        all.extend(trace::durations_us(&replay.spans, name));
        all
    };
    let sent: Vec<&exchange::Record> = round.records.iter().filter(|r| r.sent()).collect();
    report.metric(
        "loadgen.schedule_ms",
        round.schedule_ns as f64 / 1e6,
        "ms",
        1,
    );
    let lag: Vec<f64> = sent.iter().map(|r| r.lag_ns() as f64 / 1e3).collect();
    report.summary_tail("loadgen.lag_tail_us", &Summary::of(&lag));
    // The server's own frame timings, nested under the client exchange
    // that contains them.
    let frame_spans = exchange::frame_spans(&round.records, &round.frames);
    let frames = Summary::of(&trace::durations_us(&frame_spans, "transport.handle_frame"));
    report.metric("transport.handle_frame_p50_us", frames.p50, "us", frames.n);
    report.summary_tail("transport.handle_frame_tail_us", &frames);
    // (kind, client exchange µs, in-process handler µs) per matched exchange.
    let split: Vec<(trace::Kind, f64, f64)> = sent
        .iter()
        .filter_map(|r| {
            let handler = replay.handler_ns.get(&r.id)?;
            Some((r.id.kind, service_us(r), *handler as f64 / 1e3))
        })
        .collect();
    for kind in [trace::Kind::Request, trace::Kind::Submit] {
        let (client, handler): (Vec<f64>, Vec<f64>) = split
            .iter()
            .filter(|s| s.0 == kind)
            .map(|s| (s.1, s.2))
            .unzip();
        if !client.is_empty() {
            println!(
                "  {kind:?}: client p50 {:.1} us = in-process handler p50 {:.1} us + outside",
                stats::median(&client),
                stats::median(&handler)
            );
        }
    }
    let outside: Vec<f64> = split.iter().map(|s| s.1 - s.2).collect();
    report.metric(
        "transport.outside_us",
        stats::median(&outside),
        "us",
        outside.len(),
    );
    for name in [
        "wire.encode_response",
        "wire.decode_response",
        "wire.encode_result",
        "wire.decode_result",
        "server.handle_request",
        "server.handle_result",
        "profiler.predict",
        "durability.append",
        "durability.checkpoint",
        "ml.gradient",
    ] {
        let d = durations(name);
        let value = if d.is_empty() { 0.0 } else { stats::median(&d) };
        report.metric_owned(format!("{name}_us"), value, "us", d.len());
    }
    report.metric(
        "wire.frame_bytes",
        stats::mean(&replay.frame_bytes),
        "bytes",
        replay.frame_bytes.len(),
    );
    let handle_result = durations("server.handle_result");
    let tenths = stats::tenth_medians(&handle_result);
    println!(
        "  server.handle_result_us (median) per tenth of history: {}",
        tenths
            .iter()
            .map(|t| format!("{t:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    report.metric(
        "server.handle_result_slowdown",
        stats::tenths_ratio(&handle_result),
        "ratio",
        handle_result.len(),
    );
    let state = &round.state;
    report.metric(
        "server.tasks_retained",
        (state.tasks.completed.len() + state.tasks.expired.len()) as f64,
        "count",
        1,
    );
    report.metric(
        "profiler.calibration_len",
        (state.iprof.latency.calibration.len() + state.iprof.energy.calibration.len()) as f64,
        "count",
        1,
    );
    let history = &state.parameter_server.aggregator.staleness_values;
    let applied = round
        .records
        .iter()
        .filter(|r| r.outcome == exchange::Outcome::Applied)
        .count();
    println!("  applied results this round: {applied}");
    report.metric(
        "core.staleness_history_len",
        history.len() as f64,
        "count",
        1,
    );
    tau_thres(history, report);
    report.metric(
        "durability.checkpoint_bytes",
        replay.checkpoint_bytes as f64,
        "bytes",
        1,
    );
    report.spans.extend(round.spans);
    report.spans.extend(frame_spans);
    report.spans.extend(replay.spans);
}

fn tau_thres(history: &[u64], report: &mut Report) {
    let mut tracer = trace::Tracer::new(true, 1 << 52);
    let t = train::tau_thres_probe(history, 21, &mut tracer);
    report.metric("core.tau_thres_us", stats::median(&t), "us", t.len());
    report.spans.extend(tracer.into_spans());
}

/// Simulation-layer metrics from a run of `shape`.
fn sim_layers(shape: &TrainShape, seed: u64, report: &mut Report) {
    sim_metrics(&train::run_round(shape, seed), report);
}

/// Simulation-layer metrics of one round; its step spans join the report's.
fn sim_metrics(round: &train::Round, report: &mut Report) {
    let step_us: Vec<f64> = round.step_ns.iter().map(|&d| d as f64 / 1e3).collect();
    report.metric(
        "simulation.round_p50_us",
        stats::median(&step_us),
        "us",
        step_us.len(),
    );
    report.metric(
        "simulation.round_slowdown",
        stats::tenths_ratio(&step_us),
        "ratio",
        step_us.len(),
    );
    report.spans.extend(train::step_spans(round));
}

fn train_untraced(seed: u64, rounds: usize, report: &mut Report) {
    // The accuracy curve comes from one round evaluated every
    // `eval_every` steps; the timed rounds evaluate only at their last step,
    // because on a shared host the parallel forward pass of an evaluation
    // moved the step-time tail by up to 5x between runs of the same code.
    let quality = train::run_round(&train::TRAIN, seed);
    check_train(&quality, report);
    let (mut figures, mut to_target) = (vec![], vec![]);
    let (mut steps, mut delivered, mut applied) = (0usize, 0u64, 0u64);
    for round_no in 0..rounds {
        let round = train::run_round(&train::TRAIN.timed(), seed);
        let step_us: Vec<f64> = round.step_ns.iter().map(|&d| d as f64 / 1e3).collect();
        figures.push(Figures::of(
            round.setup_ns,
            &step_us,
            &step_us,
            round.wall_ns,
            round.cpu_ticks,
        ));
        if let Some(t) =
            train::time_to_target(&quality.evals, &round.step_end_ns, train::TARGET_ACCURACY)
        {
            to_target.push(t / 1e9);
        }
        steps += step_us.len();
        delivered += round.delivered;
        applied += round.applied;
        if round.parameters != quality.parameters {
            report.fail(format!(
                "round {round_no}: parameters differ from the evaluated round's"
            ));
        }
    }
    report.attempted = steps;
    report.failed = (delivered - applied) as usize;
    let per_s: Vec<f64> = figures.iter().map(|f| f.ops_per_s).collect();
    report.info(
        "train_steps_per_s",
        stats::median(&per_s),
        "1/s",
        figures.len(),
    );
    if !to_target.is_empty() {
        report.info(
            "time_to_target_s",
            stats::median(&to_target),
            "s",
            to_target.len(),
        );
    }
    report.info(
        "final_accuracy",
        train::final_accuracy(&quality.evals),
        "ratio",
        1,
    );
    report_rounds(report, &figures, applied as usize, delivered as usize);
}

/// A train round must cross the target accuracy.
fn check_train(round: &train::Round, report: &mut Report) {
    // FNV-1a over the parameter bits: equal digests across runs of one
    // seed show the same trajectory.
    let digest = round
        .parameters
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
            p.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        });
    println!("final parameters digest: {digest:#018x}");
    println!(
        "  accuracy curve (step:accuracy): {}",
        round
            .evals
            .iter()
            .step_by(6)
            .map(|e| format!("{}:{:.3}", e.step, e.accuracy))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if train::time_to_target(&round.evals, &round.step_end_ns, train::TARGET_ACCURACY).is_none() {
        report.fail(format!(
            "train: smoothed accuracy never reached {}",
            train::TARGET_ACCURACY
        ));
    }
}

fn train_traced(seed: u64, work_dir: &std::path::Path, report: &mut Report) {
    let shape = train::TRAIN;
    let quality = train::run_round(&shape, seed);
    check_train(&quality, report);
    let untraced = train::run_round(&shape.timed(), seed);
    let round = train::run_round(&shape.timed(), seed);
    if untraced.parameters != round.parameters || round.parameters != quality.parameters {
        report.fail("train: traced and untraced runs end on different parameters".into());
    }
    report.attempted = round.step_ns.len();
    report.failed = (round.delivered - round.applied) as usize;
    sim_metrics(&round, report);
    let mut tracer = trace::Tracer::new(true, 1 << 48);
    let gradient = train::gradient_probe(&shape, seed, 51, &mut tracer);
    report.spans.extend(tracer.into_spans());
    report.metric(
        "core.staleness_history_len",
        round.staleness_history.len() as f64,
        "count",
        1,
    );
    tau_thres(&round.staleness_history, report);
    // The exchange layers, priced at the train world's input shape.
    let probe = train_probe();
    let socket = exchange::run_round(&probe, seed, work_dir, 0, true);
    socket.errors.iter().for_each(|e| report.fail(e.clone()));
    let replay = exchange::replay(&probe, seed, work_dir);
    let mut layers = Report::default();
    socket_layers(socket, replay, &mut layers);
    for m in layers.metrics {
        if !report.has(&m.name) {
            report.metrics.push(m);
        }
    }
    report.spans.extend(layers.spans);
    // ml.gradient on train is the workload's own batch, not the probe's.
    report.set_value("ml.gradient_us", stats::median(&gradient), gradient.len());
    report.metric(
        "telemetry.overhead_ratio",
        round.wall_ns as f64 / untraced.wall_ns as f64,
        "ratio",
        1,
    );
}
