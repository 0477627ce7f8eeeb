//! The socket workloads (`soak`, `bulk`): a `fleet-loadgen` schedule and
//! fleet driven over two real client connections into a
//! [`TransportServer`], plus the in-process replay of the same schedule
//! through [`FleetServer`]'s public entry points that the traced run uses
//! to time the server-side layers without the socket.

use crate::clock::{self, BenchSink, FrameSample};
use crate::trace::{ExchangeId, Kind, Span, Tracer};
use bytes::Bytes;
use fleet_core::ApplyMode;
use fleet_durability::{DurabilityOptions, DurableStore, EventKind as JournalKind};
use fleet_loadgen::{build_fleet, model_parameters, EventKind, FleetShape, Schedule, WorkloadSpec};
use fleet_server::protocol::{RejectionReason, TaskAssignment, TaskResponse};
use fleet_server::{
    encode_checkpoint, wire, FleetServer, FleetServerConfig, FleetServerState, ResultDisposition,
    Worker,
};
use fleet_telemetry::{Counter, TelemetryHandle, TelemetrySink};
use fleet_transport::{
    ClientConfig, Endpoint, FsyncPolicy, TransportConfig, TransportServer, WorkerClient,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Client connections (and so generator threads) of every socket workload.
pub const CONNECTIONS: usize = 2;

/// One socket workload's fixed shape.
#[derive(Debug, Clone)]
pub struct SocketWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Fleet size.
    pub workers: usize,
    /// Exchanges per worker in one round.
    pub ops_per_worker: usize,
    /// Model and dataset shape of the fleet.
    pub shape: FleetShape,
    /// Mini-batch cap (the schedule's batch size).
    pub batch: usize,
    /// Open-loop offered rate in exchanges per second; `None` is a closed
    /// loop.
    pub rate: Option<f64>,
    /// Whether the socket server journals and checkpoints (the in-process
    /// replay always does).
    pub durable: bool,
    /// Checkpoint cadence in steps, of the durable server and the replay.
    pub checkpoint_every: u64,
    /// Exchanges the in-process replay covers (a schedule prefix).
    pub replay_limit: usize,
    /// Exchange latency limit for `ok_ratio`; `None` counts every
    /// successful exchange.
    pub slo_us: Option<f64>,
}

impl SocketWorkload {
    /// The schedule spec of one round.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            workers: self.workers,
            ops_per_worker: self.ops_per_worker,
            batch_size: self.batch,
            model_len: model_parameters(&self.shape).len(),
            seed,
            ..WorkloadSpec::default()
        }
    }

    /// The server configuration every round uses.
    pub fn server_config(&self) -> FleetServerConfig {
        FleetServerConfig::builder()
            .num_classes(self.shape.num_classes)
            .shards(4)
            .aggregation_k(2)
            .apply_mode(ApplyMode::PerShard)
            .max_pending(64)
            // Arrivals have no round structure; leases never expire.
            .lease_min_rounds(1 << 20)
            .build()
            .expect("benchmark server config is valid")
    }
}

/// How one scheduled wire interaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Request answered with an assignment.
    Assigned,
    /// Result acknowledged as applied.
    Applied,
    /// Request rejected (any reason).
    Rejected,
    /// Result acknowledged but discarded.
    Discarded,
    /// Submit skipped because its request got no assignment.
    Skipped,
    /// The connection failed.
    TransportError,
}

impl Outcome {
    /// Whether the interaction did what the schedule asked.
    pub fn ok(self) -> bool {
        matches!(self, Outcome::Assigned | Outcome::Applied)
    }
}

/// One scheduled wire interaction as the load generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// (worker, seq, request|submit).
    pub id: ExchangeId,
    /// Generator thread (= connection).
    pub lane: usize,
    /// When it was due: the schedule time (open loop) or the moment the
    /// generator was ready to send (closed loop).
    pub due_ns: u64,
    /// When the frame was sent.
    pub send_ns: u64,
    /// When the reply arrived.
    pub done_ns: u64,
    /// How it ended.
    pub outcome: Outcome,
    /// The client span around it (0 when untraced).
    pub span: u64,
}

impl Record {
    /// Latency as the workload defines it: from due time in an open loop
    /// (coordinated omission shows), from send in a closed loop (where the
    /// two coincide up to the generator's own overhead).
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent: send minus due.
    pub fn lag_ns(&self) -> u64 {
        self.send_ns.saturating_sub(self.due_ns)
    }

    /// Whether a frame went out for it.
    pub fn sent(&self) -> bool {
        self.outcome != Outcome::Skipped
    }
}

/// Everything one driven round produced.
pub struct Round {
    /// Set-up: schedule + fleet + server bind (and recovery).
    pub setup_ns: u64,
    /// The `Schedule::generate` + `build_fleet` part of set-up.
    pub schedule_ns: u64,
    /// The schedule's digest.
    pub digest: u64,
    /// Every scheduled interaction, lane by lane in lane order.
    pub records: Vec<Record>,
    /// Timed phase: first due time to last reply.
    pub wall_ns: u64,
    /// CPU ticks of the timed phase.
    pub cpu_ticks: f64,
    /// The state `shutdown()` returned.
    pub state: FleetServerState,
    /// Client-side spans (traced rounds only).
    pub spans: Vec<Span>,
    /// The server's `HandleFrame` samples (traced rounds only).
    pub frames: Vec<FrameSample>,
    /// Correctness failures found in this round.
    pub errors: Vec<String>,
}

/// Builds, drives and shuts down one round.
pub fn run_round(
    workload: &SocketWorkload,
    seed: u64,
    work_dir: &Path,
    round_no: usize,
    traced: bool,
) -> Round {
    let spec = workload.spec(seed);
    let sink = traced.then(|| Arc::new(BenchSink::default()));
    let telemetry = || {
        sink.as_ref().map_or_else(TelemetryHandle::disabled, |s| {
            TelemetryHandle::new(Arc::clone(s) as Arc<dyn TelemetrySink>)
        })
    };
    let durable_dir = work_dir.join(format!("{}-durable", workload.name));
    let endpoint = Endpoint::uds(work_dir.join(format!("r{round_no}.sock")));

    let setup_start = clock::now_ns();
    let schedule = Schedule::generate(&spec).expect("benchmark workload spec is valid");
    let fleet = build_fleet(&spec, &workload.shape);
    let schedule_ns = clock::now_ns() - setup_start;
    let bind = |telemetry: TelemetryHandle| {
        let mut config = TransportConfig::builder().telemetry(telemetry);
        if workload.durable {
            config = config
                .durable(durable_dir.clone())
                .checkpoint_every(workload.checkpoint_every)
                .fsync(FsyncPolicy::Never);
        }
        TransportServer::bind(
            &endpoint,
            FleetServer::new(model_parameters(&workload.shape), workload.server_config()),
            config.build().expect("benchmark transport config is valid"),
        )
        .expect("bind the benchmark socket")
    };
    let _ = std::fs::remove_dir_all(&durable_dir);
    let server = bind(telemetry());
    let setup_ns = clock::now_ns() - setup_start;

    let cpu = clock::CpuSpan::start();
    let driven = drive(workload, &schedule, fleet, &endpoint, sink.clone(), traced);
    let cpu_ticks = cpu.ticks();
    let state = server.shutdown().expect("shut the benchmark server down");

    let mut errors = check_counts(&schedule, &driven.records, &state);
    if let Some(sink) = &sink {
        errors.extend(check_sink_counts(&driven.records, sink));
    }
    if workload.durable {
        // A server re-bound on the durable directory must recover exactly
        // the state the first one shut down with.
        let recovered = bind(TelemetryHandle::disabled())
            .shutdown()
            .expect("shut the recovered server down");
        if recovered != state {
            errors.push("recovery: re-bound server state differs from shutdown()".into());
        }
        let _ = std::fs::remove_dir_all(&durable_dir);
    }
    let frames = sink.map(|s| s.frames()).unwrap_or_default();
    Round {
        setup_ns,
        schedule_ns,
        digest: schedule.digest(),
        records: driven.records,
        wall_ns: driven.wall_ns,
        cpu_ticks,
        state,
        spans: driven.spans,
        frames,
        errors,
    }
}

struct Driven {
    records: Vec<Record>,
    wall_ns: u64,
    spans: Vec<Span>,
}

/// Replays `schedule` over [`CONNECTIONS`] clients, one thread each.
fn drive(
    workload: &SocketWorkload,
    schedule: &Schedule,
    fleet: Vec<Worker>,
    endpoint: &Endpoint,
    sink: Option<Arc<BenchSink>>,
    traced: bool,
) -> Driven {
    let mut lanes: Vec<Vec<(u32, Worker)>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (index, worker) in fleet.into_iter().enumerate() {
        lanes[index % CONNECTIONS].push((index as u32, worker));
    }
    // Open loop: each connection's events fall due in schedule order, evenly
    // spaced and interleaved with the other connection's, so exchanges (two
    // events each) are offered at `rate` per second and no connection gets
    // a burst; the schedule fixes who does what in which order, the rate
    // fixes when.
    let spacing_ns = workload.rate.map(|rate| 1e9 / (2.0 * rate));
    let mut lane_events: Vec<Vec<(fleet_loadgen::Event, Option<u64>)>> =
        vec![Vec::new(); CONNECTIONS];
    for event in schedule.events() {
        let lane = event.worker as usize % CONNECTIONS;
        let k = lane_events[lane].len() * CONNECTIONS + lane;
        let due = spacing_ns.map(|spacing| (k as f64 * spacing) as u64);
        lane_events[lane].push((*event, due));
    }
    // Give the threads a moment to start before the first event is due.
    let start = clock::now_ns() + 2_000_000;
    let outputs: Vec<(Vec<Record>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .zip(lane_events)
            .enumerate()
            .map(|(lane, (workers, events))| {
                let client_config = ClientConfig {
                    telemetry: sink.as_ref().map_or_else(TelemetryHandle::disabled, |s| {
                        TelemetryHandle::new(Arc::clone(s) as Arc<dyn TelemetrySink>)
                    }),
                    ..ClientConfig::default()
                };
                let lane_run = LaneRun {
                    lane,
                    client: WorkerClient::with_config(endpoint.clone(), client_config),
                    workers,
                    batch_cap: workload.batch,
                    start,
                    tracer: Tracer::new(traced, (lane as u64 + 1) << 40),
                };
                scope.spawn(move || lane_run.run(&events))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let mut records = Vec::new();
    let mut spans = Vec::new();
    for (r, sp) in outputs {
        records.extend(r);
        spans.extend(sp);
    }
    let end = records.iter().map(|r| r.done_ns).max().unwrap_or(start);
    Driven {
        records,
        wall_ns: end.saturating_sub(start),
        spans,
    }
}

struct LaneRun {
    lane: usize,
    client: WorkerClient,
    /// `(fleet index, worker)`, sorted by fleet index.
    workers: Vec<(u32, Worker)>,
    batch_cap: usize,
    start: u64,
    tracer: Tracer,
}

impl LaneRun {
    /// Replays this lane's events, each with its due offset from `start`
    /// (open loop) or none (closed loop: due when the lane is ready).
    fn run(mut self, events: &[(fleet_loadgen::Event, Option<u64>)]) -> (Vec<Record>, Vec<Span>) {
        let mut pending: Vec<Option<TaskAssignment>> = vec![None; self.workers.len()];
        let mut records = Vec::with_capacity(events.len());
        let mut broken = false;
        clock::sleep_until(self.start);
        for &(event, due) in events {
            let local = self
                .workers
                .binary_search_by_key(&event.worker, |w| w.0)
                .expect("event routed to the lane owning its worker");
            let kind = match event.kind {
                EventKind::Request => Kind::Request,
                EventKind::Submit => Kind::Submit,
            };
            let id = ExchangeId {
                worker: event.worker,
                seq: event.seq,
                kind,
            };
            let mut record = Record {
                id,
                lane: self.lane,
                due_ns: 0,
                send_ns: 0,
                done_ns: 0,
                outcome: Outcome::TransportError,
                span: 0,
            };
            if broken {
                records.push(record);
                continue;
            }
            let payload = match event.kind {
                EventKind::Request => None,
                EventKind::Submit => {
                    let Some(assignment) = pending[local].take() else {
                        record.outcome = Outcome::Skipped;
                        records.push(record);
                        continue;
                    };
                    // The worker computes before its upload is due.
                    let worker = &mut self.workers[local].1;
                    let result = self.tracer.time("ml.gradient", None, Some(id), || {
                        worker.execute(&assignment)
                    });
                    let Ok(result) = result else {
                        record.outcome = Outcome::Skipped;
                        records.push(record);
                        continue;
                    };
                    Some(self.tracer.time("wire.encode_result", None, Some(id), || {
                        wire::encode_result(&result).to_vec()
                    }))
                }
            };
            record.due_ns = match due {
                Some(offset) => {
                    let due = self.start + offset;
                    clock::sleep_until(due);
                    due
                }
                None => clock::now_ns(),
            };
            record.span = self.tracer.open(
                match kind {
                    Kind::Request => "client.request",
                    _ => "client.submit",
                },
                None,
                Some(id),
            );
            record.send_ns = clock::now_ns();
            record.outcome = match payload {
                None => {
                    let request = self.workers[local].1.request();
                    match self.client.request(&request) {
                        Ok(TaskResponse::Assignment(mut assignment)) => {
                            // The schedule simulated the spec's batch size;
                            // cap I-Prof's proposal to match.
                            assignment.mini_batch_size =
                                assignment.mini_batch_size.min(self.batch_cap);
                            pending[local] = Some(assignment);
                            Outcome::Assigned
                        }
                        Ok(TaskResponse::Rejected(_)) => Outcome::Rejected,
                        Err(_) => Outcome::TransportError,
                    }
                }
                Some(raw) => match self.client.submit_raw(&raw) {
                    Ok(ack) if ack.disposition == ResultDisposition::Applied => Outcome::Applied,
                    Ok(_) => Outcome::Discarded,
                    Err(_) => Outcome::TransportError,
                },
            };
            record.done_ns = clock::now_ns();
            self.tracer.close(record.span);
            broken = record.outcome == Outcome::TransportError;
            records.push(record);
        }
        self.client.disconnect();
        (records, self.tracer.into_spans())
    }
}

/// Generator-side counts against the server's own state: every scheduled
/// interaction is accounted for, and what the generator saw applied is what
/// the server applied.
fn check_counts(schedule: &Schedule, records: &[Record], state: &FleetServerState) -> Vec<String> {
    let mut errors = Vec::new();
    if records.len() != schedule.events().len() {
        errors.push(format!(
            "counts: {} scheduled interactions, {} accounted for",
            schedule.events().len(),
            records.len()
        ));
    }
    let count = |o: Outcome| records.iter().filter(|r| r.outcome == o).count() as u64;
    let assigned = count(Outcome::Assigned);
    let applied = count(Outcome::Applied);
    let rejected = count(Outcome::Rejected);
    let controller = &state.controller;
    let server_rejected =
        controller.rejected_size + controller.rejected_similarity + controller.rejected_overload;
    if controller.accepted != assigned {
        errors.push(format!(
            "counts: generator saw {assigned} assignments, server accepted {}",
            controller.accepted
        ));
    }
    if server_rejected != rejected {
        errors.push(format!(
            "counts: generator saw {rejected} rejections, server rejected {server_rejected}"
        ));
    }
    if state.parameter_server.updates_received != applied {
        errors.push(format!(
            "counts: generator saw {applied} applied results, server received {}",
            state.parameter_server.updates_received
        ));
    }
    errors
}

/// Generator-side counts against the counters the server reported through
/// the benchmark's sink (traced rounds).
fn check_sink_counts(records: &[Record], sink: &BenchSink) -> Vec<String> {
    let sent = |kind: Kind| {
        records
            .iter()
            .filter(|r| r.id.kind == kind && r.sent() && r.outcome != Outcome::TransportError)
            .count() as u64
    };
    let applied = records
        .iter()
        .filter(|r| r.outcome == Outcome::Applied)
        .count() as u64;
    let pairs = [
        (
            "requests",
            sent(Kind::Request),
            sink.counter(Counter::Requests),
        ),
        (
            "results",
            sent(Kind::Submit),
            sink.counter(Counter::Results),
        ),
        ("applied", applied, sink.counter(Counter::Applied)),
    ];
    pairs
        .iter()
        .filter(|(_, client, server)| client != server)
        .map(|(name, client, server)| {
            format!("counts: generator saw {client} {name}, server counter reads {server}")
        })
        .collect()
}

/// The server's `HandleFrame` samples as spans, each nested under the
/// client exchange that contains it. A connection thread's k-th frame
/// answers its connection's k-th exchange; which connection a thread
/// served is read off the timestamps (the lane whose exchanges contain
/// the most of the thread's frames, index by index).
pub fn frame_spans(records: &[Record], frames: &[FrameSample]) -> Vec<Span> {
    let sent_by_lane: Vec<Vec<&Record>> = (0..CONNECTIONS)
        .map(|lane| {
            records
                .iter()
                .filter(|r| r.lane == lane && r.sent() && r.done_ns > 0)
                .collect()
        })
        .collect();
    let mut by_thread: std::collections::BTreeMap<u64, Vec<&FrameSample>> = Default::default();
    for frame in frames {
        by_thread.entry(frame.thread).or_default().push(frame);
    }
    let mut tracer = Tracer::new(true, 1 << 46);
    for own in by_thread.values() {
        let score = |lane: usize| {
            own.iter()
                .zip(&sent_by_lane[lane])
                .filter(|(f, r)| f.start_ns >= r.send_ns && f.end_ns <= r.done_ns)
                .count()
        };
        let lane = (0..CONNECTIONS).max_by_key(|&lane| score(lane));
        let lane_records = lane
            .filter(|&lane| score(lane) > 0)
            .map_or(&[][..], |lane| &sent_by_lane[lane][..]);
        for (k, frame) in own.iter().enumerate() {
            let record = lane_records.get(k);
            tracer.push(Span {
                id: 0,
                parent: record.map(|r| r.span),
                name: "transport.handle_frame",
                start_ns: frame.start_ns,
                end_ns: frame.end_ns,
                exchange: record.map(|r| r.id),
            });
        }
    }
    tracer.into_spans()
}

/// Per-exchange server-side time measured by the in-process replay, plus
/// what the replay's layers cost.
pub struct Replay {
    /// Server-side handler time per exchange (see [`replay`]).
    pub handler_ns: std::collections::BTreeMap<ExchangeId, u64>,
    /// Every replay span.
    pub spans: Vec<Span>,
    /// Encoded response and result frame sizes, in bytes.
    pub frame_bytes: Vec<f64>,
    /// Payload size of the last checkpoint, in bytes.
    pub checkpoint_bytes: u64,
}

/// Replays a prefix of the round's schedule in-process, single-threaded,
/// through the same public entry points the transport calls, with a
/// durable store journaling every event and checkpointing on a cadence.
pub fn replay(workload: &SocketWorkload, seed: u64, work_dir: &Path) -> Replay {
    let spec = workload.spec(seed);
    let schedule = Schedule::generate(&spec).expect("benchmark workload spec is valid");
    let mut fleet = build_fleet(&spec, &workload.shape);
    let mut server = FleetServer::new(model_parameters(&workload.shape), workload.server_config());
    let dir: PathBuf = work_dir.join(format!("{}-replay", workload.name));
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions {
        checkpoint_every: workload.checkpoint_every,
        fsync: FsyncPolicy::Never,
        ..DurabilityOptions::new(dir.clone())
    };
    let (mut store, _) = DurableStore::open(&options).expect("open the replay store");
    store
        .begin(
            Bytes::from(encode_checkpoint(&server.checkpoint()).to_vec()),
            0,
            0,
        )
        .expect("seal the replay store");

    let mut tracer = Tracer::new(true, 1 << 50);
    let mut pending: Vec<Option<TaskAssignment>> = vec![None; fleet.len()];
    let mut handler_ns = std::collections::BTreeMap::new();
    let mut frame_bytes = Vec::new();
    let mut checkpoint_bytes = 0u64;
    let (mut steps, mut steps_at_checkpoint) = (0u64, 0u64);
    let limit = workload.replay_limit.saturating_mul(2);
    for event in schedule.events().iter().take(limit) {
        let worker = &mut fleet[event.worker as usize];
        let kind = match event.kind {
            EventKind::Request => Kind::Request,
            EventKind::Submit => Kind::Submit,
        };
        let id = Some(ExchangeId {
            worker: event.worker,
            seq: event.seq,
            kind,
        });
        match event.kind {
            EventKind::Request => {
                let request = worker.request();
                let raw = wire::encode_request(&request);
                let root = tracer.open("replay.request", None, id);
                tracer.time("profiler.predict", Some(root), id, || {
                    server
                        .iprof_mut()
                        .predict_batch(&request.device_model, &request.device_features)
                });
                let response = tracer.time("server.handle_request", Some(root), id, || {
                    server.handle_request(&request)
                });
                match &response {
                    TaskResponse::Rejected(RejectionReason::Overloaded { .. }) => {}
                    TaskResponse::Rejected(_) => steps += 1,
                    TaskResponse::Assignment(_) => {}
                }
                store
                    .append(JournalKind::Request, raw)
                    .expect("journal append in the replay store");
                if let Some(bytes) = checkpoint_if_due(
                    &mut tracer,
                    root,
                    id,
                    &mut store,
                    &server,
                    workload.checkpoint_every,
                    steps,
                    &mut steps_at_checkpoint,
                ) {
                    checkpoint_bytes = bytes;
                }
                let encoded = tracer.time("wire.encode_response", Some(root), id, || {
                    wire::encode_response(&response)
                });
                tracer.close(root);
                frame_bytes.push(encoded.len() as f64);
                let decoded = tracer.time("wire.decode_response", None, id, || {
                    wire::decode_response(encoded)
                });
                if let Ok(TaskResponse::Assignment(mut assignment)) = decoded {
                    assignment.mini_batch_size = assignment.mini_batch_size.min(workload.batch);
                    pending[event.worker as usize] = Some(assignment);
                }
            }
            EventKind::Submit => {
                let Some(assignment) = pending[event.worker as usize].take() else {
                    continue;
                };
                let Ok(result) =
                    tracer.time("ml.gradient", None, id, || worker.execute(&assignment))
                else {
                    continue;
                };
                let raw = tracer.time("wire.encode_result", None, id, || {
                    wire::encode_result(&result)
                });
                frame_bytes.push(raw.len() as f64);
                let root = tracer.open("replay.submit", None, id);
                let decoded = tracer
                    .time("wire.decode_result", Some(root), id, || {
                        wire::decode_result(raw.clone())
                    })
                    .expect("self-encoded results decode");
                let ack = tracer.time("server.handle_result", Some(root), id, || {
                    server.handle_result(decoded)
                });
                if ack.disposition == ResultDisposition::Applied {
                    steps += 1;
                }
                tracer
                    .time("durability.append", Some(root), id, || {
                        store.append(JournalKind::Result, raw)
                    })
                    .expect("journal append in the replay store");
                if let Some(bytes) = checkpoint_if_due(
                    &mut tracer,
                    root,
                    id,
                    &mut store,
                    &server,
                    workload.checkpoint_every,
                    steps,
                    &mut steps_at_checkpoint,
                ) {
                    checkpoint_bytes = bytes;
                }
                tracer.close(root);
            }
        }
    }
    let spans = tracer.into_spans();
    // The handler time the socket server would spend on each exchange: the
    // replay's root span minus the extra I-Prof prediction this replay
    // times, and minus the durable store's work when the socket server is
    // not durable.
    let mut not_on_server: std::collections::BTreeMap<u64, u64> = Default::default();
    for span in &spans {
        let extra = span.name == "profiler.predict"
            || (!workload.durable && span.name.starts_with("durability."));
        if let (true, Some(parent)) = (extra, span.parent) {
            *not_on_server.entry(parent).or_default() += span.duration_ns();
        }
    }
    for span in &spans {
        if let (true, Some(id)) = (span.name.starts_with("replay."), span.exchange) {
            let extra = not_on_server.get(&span.id).copied().unwrap_or(0);
            handler_ns.insert(id, span.duration_ns().saturating_sub(extra));
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Replay {
        handler_ns,
        spans,
        frame_bytes,
        checkpoint_bytes,
    }
}

#[allow(clippy::too_many_arguments)]
fn checkpoint_if_due(
    tracer: &mut Tracer,
    root: u64,
    id: Option<ExchangeId>,
    store: &mut DurableStore,
    server: &FleetServer,
    every: u64,
    steps: u64,
    steps_at_checkpoint: &mut u64,
) -> Option<u64> {
    if every == 0 || steps.saturating_sub(*steps_at_checkpoint) < every {
        return None;
    }
    *steps_at_checkpoint = steps;
    tracer.time("durability.checkpoint", Some(root), id, || {
        let payload = Bytes::from(encode_checkpoint(&server.checkpoint()).to_vec());
        let bytes = payload.len() as u64;
        store
            .checkpoint(payload, steps)
            .expect("checkpoint the replay store");
        Some(bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_transport::frame::{read_frame, write_frame, FrameKind, MAX_FRAME_LEN};
    use std::os::unix::net::UnixListener;

    /// A fake server that stalls `stall_ms` before answering its first
    /// frame, then answers every request at once with a rejection.
    fn stalled_server(path: &Path, stall_ms: u64) -> std::thread::JoinHandle<()> {
        let listener = UnixListener::bind(path).expect("bind the fake server");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept the generator connection");
            let reply = wire::encode_response(&TaskResponse::Rejected(RejectionReason::TooSimilar));
            let mut first = true;
            while read_frame(&mut stream, MAX_FRAME_LEN).is_ok() {
                if first {
                    std::thread::sleep(std::time::Duration::from_millis(stall_ms));
                    first = false;
                }
                if write_frame(&mut stream, FrameKind::Response, &reply.to_vec()).is_err() {
                    break;
                }
            }
        })
    }

    #[test]
    fn due_time_latency_counts_a_stall_against_every_queued_request() {
        let path =
            std::env::temp_dir().join(format!("perfbench-stall-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let stall_ms = 300;
        let server = stalled_server(&path, stall_ms);
        // One worker (so one connection), 20 exchanges falling due within
        // 0.2 s: every request but the first is due while the server stalls
        // on the first.
        let workload = SocketWorkload {
            name: "stall",
            workers: 1,
            ops_per_worker: 20,
            shape: FleetShape::default(),
            batch: 8,
            rate: Some(200.0),
            durable: false,
            checkpoint_every: 0,
            replay_limit: 0,
            slo_us: None,
        };
        let spec = workload.spec(3);
        let schedule = Schedule::generate(&spec).expect("valid spec");
        let fleet = build_fleet(&spec, &workload.shape);
        let driven = drive(
            &workload,
            &schedule,
            fleet,
            &Endpoint::uds(&path),
            None,
            false,
        );
        server.join().expect("fake server thread");
        let _ = std::fs::remove_file(&path);

        let requests: Vec<&Record> = driven
            .records
            .iter()
            .filter(|r| r.id.kind == Kind::Request)
            .collect();
        assert_eq!(requests.len(), 20);
        assert!(requests.iter().all(|r| r.outcome == Outcome::Rejected));
        // Every submit was skipped: its request was rejected.
        assert!(driven
            .records
            .iter()
            .filter(|r| r.id.kind == Kind::Submit)
            .all(|r| r.outcome == Outcome::Skipped));
        let ms = |ns: u64| ns as f64 / 1e6;
        let first_done = requests[0].done_ns;
        assert!(ms(requests[0].latency_ns()) >= stall_ms as f64);
        for r in &requests[1..] {
            assert!(r.due_ns < first_done, "request due after the stall ended");
            // The generator could only send once the stall ended ...
            assert!(r.send_ns >= first_done);
            assert_eq!(r.lag_ns(), r.send_ns - r.due_ns);
            // ... and the latency from due time carries that wait, while
            // the latency from send would hide it.
            assert!(r.latency_ns() >= first_done - r.due_ns);
            assert!(r.latency_ns() >= r.lag_ns());
        }
        let from_due: Vec<f64> = requests.iter().map(|r| ms(r.latency_ns())).collect();
        let from_send: Vec<f64> = requests.iter().map(|r| ms(r.done_ns - r.send_ns)).collect();
        let (due_p50, send_p50) = (
            crate::stats::median(&from_due),
            crate::stats::median(&from_send),
        );
        assert!(due_p50 > 50.0, "due-time p50 {due_p50} ms hides the stall");
        assert!(send_p50 < due_p50 / 5.0, "send-time p50 {send_p50} ms");
    }
}
