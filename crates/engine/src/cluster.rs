//! Multi-process clusters: real worker processes over the TCP transport.
//!
//! The in-process runtime ([`runtime`](crate::runtime)) hosts every
//! TaskManager as a thread and every service as a shared `Arc`. This module
//! splits that picture across OS processes the way the paper's deployment
//! does across machines:
//!
//! * The **driver** process keeps the authoritative services — the GCS
//!   tables, the durable object store, the result sink and the
//!   [`Coordinator`] — and hosts *no* workers. It exposes them over a tiny
//!   length-prefixed control protocol ([`quokka_gcs::remote`]) on a loopback
//!   listener, answering each GCS call by calling the same [`Gcs`] method on
//!   its own tables.
//! * Each **workerd** process ([`run_workerd`], driven by the
//!   `quokka-workerd` binary) hosts a contiguous range of workers. Its GCS
//!   handle is a [`Gcs::remote`] handle that sends each call as one control
//!   frame, its durable store a [`RemoteDurable`] proxy, and its shuffle
//!   plane a real [`TcpTransport`] mesh wired to every peer process.
//!
//! Because every recovery action in Quokka is a GCS edit, the coordinator's
//! failure handling is *unchanged*: SIGKILL a workerd process and its
//! heartbeats stop flowing to the driver, the detector suspects and then
//! kills its workers, and channel reconciliation plus lineage replay resume
//! the query on the survivors — the same Algorithm 2 path the thread-based
//! chaos tests exercise.

use crate::layout::QueryLayout;
use crate::recovery::{Coordinator, CoordinatorOutcome};
use crate::runtime::QueryOutcome;
use crate::stream::{BatchStream, StreamEvent};
use crate::worker::{spawn_workers_for, Services};
use bytes::Bytes;
use parking_lot::Mutex;
use quokka_batch::wire::{self, WireReader};
use quokka_batch::{Batch, Schema};
use quokka_common::config::EngineConfig;
use quokka_common::ids::{TaskName, WorkerId};
use quokka_common::metrics::{MetricsRegistry, PeerWireStats};
use quokka_common::{QuokkaError, Result};
use quokka_gcs::remote::{
    self, ControlClient, OP_DURABLE_GET, OP_DURABLE_PUT, OP_DURABLE_READ_SPLIT, OP_GCS,
    OP_HEARTBEAT, OP_SINK_EMIT, OP_WIRE_STATS,
};
use quokka_gcs::Gcs;
use quokka_net::{DataPlane, FlightServer, TcpTransport};
use quokka_plan::catalog::TableSplits;
use quokka_plan::stage::StageGraph;
use quokka_storage::{CostModel, DurableObjectStore, ObjectStore};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long a workerd waits for every peer process to publish its shuffle
/// address before giving up. Generous: peers may still be compiling their
/// table snapshots.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(60);

/// Split `workers` workers over `processes` processes into contiguous
/// ranges; process `i` hosts `ranges[i]`. Every process gets at least the
/// floor share and the remainder is spread over the first processes.
pub fn worker_ranges(workers: u32, processes: u32) -> Vec<std::ops::Range<WorkerId>> {
    let processes = processes.max(1);
    let base = workers / processes;
    let extra = workers % processes;
    let mut ranges = Vec::with_capacity(processes as usize);
    let mut start = 0;
    for p in 0..processes {
        let len = base + u32::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Render ranges as `"0-2,2-4"` for the workerd command line.
pub fn format_ranges(ranges: &[std::ops::Range<WorkerId>]) -> String {
    ranges.iter().map(|r| format!("{}-{}", r.start, r.end)).collect::<Vec<_>>().join(",")
}

/// Parse the `"0-2,2-4"` form produced by [`format_ranges`].
pub fn parse_ranges(text: &str) -> Result<Vec<std::ops::Range<WorkerId>>> {
    let mut ranges = Vec::new();
    for part in text.split(',') {
        let (start, end) = part
            .split_once('-')
            .ok_or_else(|| QuokkaError::Config(format!("bad worker range {part:?}")))?;
        let start: WorkerId =
            start.parse().map_err(|_| QuokkaError::Config(format!("bad worker range {part:?}")))?;
        let end: WorkerId =
            end.parse().map_err(|_| QuokkaError::Config(format!("bad worker range {part:?}")))?;
        if end < start {
            return Err(QuokkaError::Config(format!("bad worker range {part:?}")));
        }
        ranges.push(start..end);
    }
    Ok(ranges)
}

// ---------------------------------------------------------------------------
// Remote durable store (workerd side)
// ---------------------------------------------------------------------------

/// An [`ObjectStore`] that proxies every call to the driver's
/// [`DurableObjectStore`] over the control connection. Worker processes have
/// no durable storage of their own — like the paper's S3, the object store
/// is a shared service that survives worker death.
#[derive(Debug)]
pub struct RemoteDurable {
    client: Arc<ControlClient>,
}

impl RemoteDurable {
    pub fn new(client: Arc<ControlClient>) -> Self {
        RemoteDurable { client }
    }
}

impl ObjectStore for RemoteDurable {
    fn put(&self, key: String, payload: Bytes) {
        let mut req = Vec::with_capacity(key.len() + payload.len() + 16);
        wire::put_u8(&mut req, OP_DURABLE_PUT);
        wire::put_str(&mut req, &key);
        wire::put_bytes(&mut req, &payload);
        if let Err(e) = self.client.request(&req) {
            panic!("durable store connection to driver lost: {e}");
        }
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        let mut req = Vec::with_capacity(key.len() + 8);
        wire::put_u8(&mut req, OP_DURABLE_GET);
        wire::put_str(&mut req, key);
        let resp = self.client.request(&req)?;
        let mut r = WireReader::new(&resp);
        let payload = Bytes::from(r.bytes()?.to_vec());
        r.expect_end()?;
        Ok(payload)
    }

    /// One control round trip: the driver projects the split to `schema`
    /// and encodes only those columns, so unread columns never cross the
    /// socket.
    fn read_split(&self, table: &str, split: u64, schema: &Schema) -> Result<Batch> {
        let mut req = Vec::with_capacity(table.len() + 64);
        wire::put_u8(&mut req, OP_DURABLE_READ_SPLIT);
        wire::put_str(&mut req, table);
        wire::put_u64(&mut req, split);
        // The requested columns travel as an empty batch: the wire format's
        // schema header.
        wire::encode_batch_into(&Batch::empty(schema.clone()), &mut req);
        let resp = self.client.request(&req)?;
        let mut r = WireReader::new(&resp);
        let batch = wire::decode_batch_from(&mut r)?;
        r.expect_end()?;
        Ok(batch)
    }
}

// ---------------------------------------------------------------------------
// Control server (driver side)
// ---------------------------------------------------------------------------

struct ControlState {
    services: Arc<Services>,
    durable: Arc<DurableObjectStore>,
    shutdown: AtomicBool,
    socks: Mutex<Vec<TcpStream>>,
    /// Last `(tasks, recovery_tasks)` totals reported per process, for
    /// watchdog forwarding and recovery accounting.
    process_tasks: Mutex<BTreeMap<u32, (u64, u64)>>,
}

/// The driver's control endpoint: serves GCS, durable-store, sink,
/// heartbeat and wire-stat traffic from workerd processes.
pub struct ControlServer {
    addr: SocketAddr,
    state: Arc<ControlState>,
    accept: Option<thread::JoinHandle<()>>,
}

impl ControlServer {
    /// Bind on an ephemeral loopback port and start serving.
    pub fn bind(services: Arc<Services>, durable: Arc<DurableObjectStore>) -> Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| QuokkaError::Transient(format!("control bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| QuokkaError::Transient(format!("control local_addr failed: {e}")))?;
        let state = Arc::new(ControlState {
            services,
            durable,
            shutdown: AtomicBool::new(false),
            socks: Mutex::new(Vec::new()),
            process_tasks: Mutex::new(BTreeMap::new()),
        });
        let accept_state = Arc::clone(&state);
        let accept = thread::Builder::new()
            .name("quokka-control-accept".into())
            .spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if accept_state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let _ = stream.set_nodelay(true);
                    if let Ok(clone) = stream.try_clone() {
                        accept_state.socks.lock().push(clone);
                    }
                    let conn_state = Arc::clone(&accept_state);
                    let _ = thread::Builder::new()
                        .name("quokka-control-conn".into())
                        .spawn(move || serve_connection(stream, conn_state));
                }
            })
            .map_err(|e| QuokkaError::Transient(format!("control accept spawn failed: {e}")))?;
        Ok(ControlServer { addr, state, accept: Some(accept) })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ControlServer {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop awake, then hard-close every connection so
        // handler threads blocked in `read_frame` see EOF.
        let _ = TcpStream::connect(self.addr);
        for sock in self.state.socks.lock().drain(..) {
            let _ = sock.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn serve_connection(mut stream: TcpStream, state: Arc<ControlState>) {
    loop {
        let payload = match wire::read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        let response = dispatch(&payload, &state).unwrap_or_else(|e| remote::err_frame(&e));
        if wire::write_frame(&mut stream, &[&response]).is_err() {
            return;
        }
    }
}

/// Handle one control request against the driver's authoritative services.
/// A GCS call is answered by the same [`Gcs`] method on the driver's tables.
fn dispatch(payload: &[u8], state: &ControlState) -> Result<Vec<u8>> {
    let mut r = WireReader::new(payload);
    let op = r.u8()?;
    match op {
        OP_GCS => state.services.gcs.serve(&mut r),
        OP_DURABLE_GET => {
            let key = r.str()?;
            r.expect_end()?;
            let payload = state.durable.get(&key)?;
            Ok(remote::ok_frame(|buf| wire::put_bytes(buf, &payload)))
        }
        OP_DURABLE_PUT => {
            let key = r.str()?;
            let payload = Bytes::from(r.bytes()?.to_vec());
            r.expect_end()?;
            state.durable.put(key, payload);
            Ok(remote::ok_frame(|_| {}))
        }
        OP_DURABLE_READ_SPLIT => {
            let table = r.str()?;
            let split = r.u64()?;
            let schema = wire::decode_batch_from(&mut r)?.schema().clone();
            r.expect_end()?;
            let batch = state.durable.read_split(&table, split, &schema)?;
            Ok(remote::ok_frame(|buf| wire::encode_batch_into(&batch, buf)))
        }
        OP_SINK_EMIT => {
            let stage = r.u32()?;
            let channel = r.u32()?;
            let seq = r.u32()?;
            let encoded = r.bytes()?;
            r.expect_end()?;
            let batches = wire::decode_partition(encoded)?;
            let name = TaskName::new(stage, channel, seq);
            state.services.emit_result(name, batches);
            // Record delivery only *after* the batch is queued on the result
            // stream: once the coordinator sees the name here, the batch is
            // provably ordered ahead of any future `Finished` event.
            if let Some(delivered) = &state.services.delivered_sinks {
                delivered.lock().insert(name);
            }
            // The query may be complete: let the coordinator check now.
            state.services.wakeups.coordinator.notify();
            Ok(remote::ok_frame(|_| {}))
        }
        OP_HEARTBEAT => {
            let process = r.u32()?;
            let tasks_total = r.u64()?;
            let recovery_total = r.u64()?;
            let count = r.u32()? as usize;
            for _ in 0..count {
                let worker = r.u32()?;
                let beats = r.u64()?;
                if let Some(slot) = state.services.heartbeats.get(worker as usize) {
                    slot.fetch_max(beats, Ordering::SeqCst);
                }
            }
            r.expect_end()?;
            // Forward task progress into the driver's metrics so the stall
            // watchdog sees commits that happened in other processes (and
            // recovery statistics survive into the final snapshot).
            let (task_delta, recovery_delta) = {
                let mut totals = state.process_tasks.lock();
                if !totals.contains_key(&process) {
                    eprintln!("[control] first heartbeat from process {process}");
                }
                let last = totals.entry(process).or_insert((0, 0));
                let task_delta = tasks_total.saturating_sub(last.0);
                let recovery_delta = recovery_total.saturating_sub(last.1);
                *last = (tasks_total, recovery_total);
                (task_delta, recovery_delta)
            };
            for _ in 0..recovery_delta {
                state.services.metrics.add_task(true);
            }
            for _ in 0..task_delta.saturating_sub(recovery_delta) {
                state.services.metrics.add_task(false);
            }
            Ok(remote::ok_frame(|_| {}))
        }
        OP_WIRE_STATS => {
            let count = r.u32()? as usize;
            let mut peers = Vec::with_capacity(count);
            for _ in 0..count {
                peers.push(PeerWireStats {
                    peer: r.u32()?,
                    frames_sent: r.u64()?,
                    bytes_sent: r.u64()?,
                    frames_received: r.u64()?,
                    bytes_received: r.u64()?,
                    send_queue_peak: r.u64()?,
                });
            }
            r.expect_end()?;
            state.services.metrics.merge_wire_peers(&peers);
            Ok(remote::ok_frame(|_| {}))
        }
        other => Err(QuokkaError::Internal(format!("unknown control opcode {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Driver harness
// ---------------------------------------------------------------------------

/// Kill one worker process mid-query (the process-level analogue of
/// [`ChaosPlan::kill_at_progress`](quokka_common::ChaosPlan::kill_at_progress)).
#[derive(Debug, Clone, Copy)]
pub struct KillPlan {
    /// Index of the workerd process to SIGKILL.
    pub victim_process: usize,
    /// Fire once the GCS has committed at least this many transactions and
    /// the victim holds operator state — progress-based rather than
    /// wall-clock so runs are reproducible.
    pub after_transactions: u64,
}

/// Everything [`run_process_query`] needs to drive a multi-process run.
pub struct ProcessQuery {
    /// Engine configuration; `cluster.workers` are split over `processes`.
    pub config: EngineConfig,
    /// The compiled stage graph (workerd processes recompile the identical
    /// graph from the query number — plan compilation is deterministic).
    pub graph: StageGraph,
    /// Schema of the query result.
    pub output_schema: Schema,
    /// Base table snapshots, served by the driver's durable store.
    pub tables: BTreeMap<String, TableSplits>,
    /// Path to the `quokka-workerd` binary.
    pub workerd: std::path::PathBuf,
    /// Extra arguments handed to every workerd (e.g. `--query 3 --sf 0.01`)
    /// so it can rebuild the plan; `--driver/--process/--ranges` are
    /// appended by the harness.
    pub workerd_args: Vec<String>,
    /// Number of worker processes to spawn.
    pub processes: u32,
    /// Optionally SIGKILL one process mid-query.
    pub kill: Option<KillPlan>,
}

/// Run one query across real worker processes. The driver hosts the
/// coordinator and every shared service but no workers; result batches
/// stream back over the control connection and are collected here.
pub fn run_process_query(query: ProcessQuery) -> Result<QueryOutcome> {
    let config = &query.config;
    if !config.chaos.is_empty() {
        // Chaos triggers count commits made in the driver's process; here
        // every commit happens in a workerd.
        return Err(QuokkaError::Config(
            "process mode injects faults with KillPlan, not ChaosPlan".to_string(),
        ));
    }
    let cost = CostModel::new(config.cost);
    let metrics = MetricsRegistry::new();
    let table_splits =
        query.tables.iter().map(|(table, splits)| (table.clone(), splits.len() as u64)).collect();
    let durable = Arc::new(DurableObjectStore::new(cost, Arc::clone(&metrics), query.tables));

    let layout = Arc::new(QueryLayout::new(query.graph.clone(), &config.cluster, &table_splits)?);
    let gcs = Arc::new(Gcs::new(cost.gcs_delay()));
    // The driver's own data plane carries no shuffle traffic (it hosts no
    // workers); the real TCP mesh lives in the workerd processes.
    let plane = Arc::new(DataPlane::new(config.cluster.workers, cost, Arc::clone(&metrics)));

    let (tx, rx) = channel::<StreamEvent>();
    let cancel = Arc::new(AtomicBool::new(false));
    let delivered_sinks = Arc::new(Mutex::new(std::collections::HashSet::new()));
    let services = Arc::new(Services {
        cancelled: Arc::clone(&cancel),
        delivered_sinks: Some(Arc::clone(&delivered_sinks)),
        ..Services::new(
            config.clone(),
            layout,
            Arc::clone(&gcs),
            plane,
            durable.clone() as Arc<dyn ObjectStore>,
            tx.clone(),
            Arc::clone(&metrics),
        )
    });
    services.register_channels();

    let server = ControlServer::bind(Arc::clone(&services), Arc::clone(&durable))?;
    let driver_addr = server.addr();

    // Spawn the worker processes.
    let ranges = worker_ranges(config.cluster.workers, query.processes);
    let ranges_arg = format_ranges(&ranges);
    let mut spawned = Vec::new();
    for (process, _) in ranges.iter().enumerate() {
        let child = Command::new(&query.workerd)
            .args(&query.workerd_args)
            .arg("--driver")
            .arg(driver_addr.to_string())
            .arg("--process")
            .arg(process.to_string())
            .arg("--ranges")
            .arg(&ranges_arg)
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| QuokkaError::Config(format!("failed to spawn workerd: {e}")))?;
        spawned.push(Some(child));
    }
    let children: Arc<Mutex<Vec<Option<Child>>>> = Arc::new(Mutex::new(spawned));

    // The chaos arm: SIGKILL the victim process once enough GCS
    // transactions have committed *beyond* the driver's own registration
    // commits (the baseline is captured after spawn, so the threshold counts
    // worker task commits) and the victim holds operator state: a stateful
    // channel on one of its workers has committed a task and is not done,
    // the process-mode twin of `CommitTally::holds_state`. The kill thus
    // always lands mid-execution, with state for recovery to replay, at the
    // same logical point on every rerun.
    let killer = query.kill.map(|plan| {
        let services = Arc::clone(&services);
        let children = Arc::clone(&children);
        let victims = ranges[plan.victim_process].clone();
        let baseline = gcs.transactions();
        thread::spawn(move || loop {
            let gcs = &services.gcs;
            if gcs.is_query_done() || gcs.query_error().is_some() {
                return false;
            }
            let holds_state = || {
                gcs.all_channels().iter().any(|c| {
                    victims.contains(&c.worker)
                        && c.committed_seq.is_some()
                        && !c.done
                        && services.layout.graph.stage(c.addr.stage).is_stateful()
                })
            };
            if gcs.transactions() >= baseline + plan.after_transactions && holds_state() {
                let victim = children.lock()[plan.victim_process].take();
                if let Some(mut child) = victim {
                    eprintln!(
                        "[chaos] SIGKILL workerd process {} at {} GCS transactions",
                        plan.victim_process,
                        gcs.transactions()
                    );
                    let _ = child.kill();
                    let _ = child.wait();
                    return true;
                }
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        })
    });

    // The coordinator runs on its own thread and reports through the same
    // stream protocol as the in-process runtime.
    let coordinator = {
        let services = Arc::clone(&services);
        thread::spawn(move || {
            let start = Instant::now();
            services.metrics.restart_clock();
            let outcome = Coordinator::new(Arc::clone(&services)).run();
            let gcs = &services.gcs;
            if gcs.query_error().is_none() && !gcs.is_query_done() {
                gcs.set_query_done();
            }
            let event = match outcome {
                CoordinatorOutcome::Completed => {
                    StreamEvent::Finished(Box::new(services.finished_metrics(start.elapsed())))
                }
                CoordinatorOutcome::Failed(error) => StreamEvent::Failed(error),
                CoordinatorOutcome::NeedsRestart { .. } => {
                    StreamEvent::Failed(QuokkaError::Internal(
                        "process mode requires a fault strategy with intra-query recovery"
                            .to_string(),
                    ))
                }
            };
            let _ = services.sink.lock().send(event);
        })
    };
    drop(tx);

    let outcome = BatchStream::new(query.output_schema, rx, cancel).collect();
    let _ = coordinator.join();
    let killed = killer.map(|handle| handle.join().unwrap_or(false)).unwrap_or(false);

    // Reap the children: they exit on their own once the query-done flag is
    // set (or their control connection drops); escalate to SIGKILL if one
    // wedges.
    let deadline = Instant::now() + Duration::from_secs(10);
    for slot in children.lock().iter_mut() {
        if let Some(child) = slot.as_mut() {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }

    let mut outcome = outcome?;
    // Wire stats arrive as each workerd exits — after the coordinator took
    // its snapshot. Fold the late arrivals in now that every child is gone.
    outcome.metrics.transport_peers = metrics.snapshot(Duration::ZERO).transport_peers;
    if killed {
        // A SIGKILLed process sends no final wire stats; the surviving
        // processes' counters still prove real bytes crossed sockets.
        outcome.metrics.failures = outcome.metrics.failures.max(1);
    }
    drop(server);
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Workerd runtime (worker-process side)
// ---------------------------------------------------------------------------

/// Everything [`run_workerd`] needs to host one process's worker range.
pub struct WorkerdOpts {
    /// Address of the driver's control server.
    pub driver: SocketAddr,
    /// This process's index into `ranges`.
    pub process: usize,
    /// Worker ranges of every process (identical on all processes).
    pub ranges: Vec<std::ops::Range<WorkerId>>,
    /// Engine configuration — must match the driver's.
    pub config: EngineConfig,
    /// The compiled stage graph — must equal the driver's (recompiled
    /// deterministically from the query text/number).
    pub graph: StageGraph,
    /// Split counts per base table — must match the driver's table load.
    pub table_splits: BTreeMap<String, u64>,
}

/// Host this process's workers until the query finishes. Called by the
/// `quokka-workerd` binary; panics tear the whole process down, which is
/// exactly the failure model the driver's detector handles.
pub fn run_workerd(opts: WorkerdOpts) -> Result<()> {
    let client = Arc::new(ControlClient::connect(opts.driver)?);
    let gcs = Arc::new(Gcs::remote(Arc::clone(&client)));
    let durable: Arc<dyn ObjectStore> = Arc::new(RemoteDurable::new(Arc::clone(&client)));
    let metrics = MetricsRegistry::new();
    let cost = CostModel::new(opts.config.cost);
    let workers = opts.config.cluster.workers;
    let my_range = opts
        .ranges
        .get(opts.process)
        .cloned()
        .ok_or_else(|| QuokkaError::Config("process index out of range".to_string()))?;

    let layout = Arc::new(QueryLayout::new(opts.graph, &opts.config.cluster, &opts.table_splits)?);

    // Inboxes for every worker exist in every process, but only frames for
    // locally hosted workers ever arrive (peers connect lanes per worker).
    let servers: Vec<Arc<FlightServer>> =
        (0..workers).map(|w| Arc::new(FlightServer::new(w))).collect();
    let transport = TcpTransport::bind(
        workers,
        &opts.config.transport,
        Arc::clone(&metrics),
        DataPlane::deliver_into(servers.clone()),
    )?;

    // Rendezvous: publish our listener, wait for every peer's, then open a
    // lane per remote worker (and loopback lanes for our own).
    gcs.publish_process(opts.process as u32, transport.local_addr());
    let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
    for (process, range) in opts.ranges.iter().enumerate() {
        let addr = loop {
            if let Some(addr) = gcs.process_addr(process as u32) {
                break addr;
            }
            if Instant::now() > deadline {
                return Err(QuokkaError::Transient(format!(
                    "peer process {process} never published its address"
                )));
            }
            thread::sleep(Duration::from_millis(2));
        };
        for worker in range.clone() {
            transport.connect_peer(worker, addr)?;
        }
    }
    let plane =
        Arc::new(DataPlane::from_parts(servers, cost, Arc::clone(&metrics), Box::new(transport)));

    // Sink forwarder: relay local sink commits to the driver's collector.
    let (tx, rx) = channel::<StreamEvent>();
    let sink_client = Arc::clone(&client);
    let sink_forwarder = thread::Builder::new()
        .name("quokka-workerd-sink".into())
        .spawn(move || {
            while let Ok(event) = rx.recv() {
                if let StreamEvent::Batch { name, batches } = event {
                    let encoded = wire::encode_partition(&batches);
                    let mut req = Vec::with_capacity(encoded.len() + 24);
                    wire::put_u8(&mut req, OP_SINK_EMIT);
                    wire::put_u32(&mut req, name.stage);
                    wire::put_u32(&mut req, name.channel);
                    wire::put_u32(&mut req, name.seq);
                    wire::put_bytes(&mut req, &encoded);
                    if let Err(e) = sink_client.request(&req) {
                        panic!("sink connection to driver lost: {e}");
                    }
                }
            }
        })
        .map_err(|e| QuokkaError::Transient(format!("sink forwarder spawn failed: {e}")))?;

    let services = Arc::new(Services::new(
        opts.config.clone(),
        layout,
        Arc::clone(&gcs),
        plane,
        durable,
        tx,
        Arc::clone(&metrics),
    ));

    eprintln!(
        "quokka-workerd: process {} hosting workers {}..{} connected to {}",
        opts.process, my_range.start, my_range.end, opts.driver
    );
    // The driver's failure detector only watches workers it has heard
    // from, so report one beat of every hosted worker before any of them
    // runs: a process killed before its forwarder's first report would
    // otherwise never be detected.
    for worker in my_range.clone() {
        services.heartbeat(worker);
    }
    report_heartbeat(&client, opts.process as u32, &services, my_range.clone())?;
    let handles = spawn_workers_for(&services, my_range.clone());

    // Heartbeat forwarder: ship hosted workers' beat counters (and this
    // process's task total, for the driver's stall watchdog) to the driver.
    let stop = Arc::new(AtomicBool::new(false));
    let hb_stop = Arc::clone(&stop);
    let hb_client = Arc::clone(&client);
    let hb_services = Arc::clone(&services);
    let hb_range = my_range.clone();
    let hb_process = opts.process as u32;
    let hb_interval = opts.config.cluster.heartbeat_interval;
    let heartbeat_forwarder = thread::Builder::new()
        .name("quokka-workerd-heartbeat".into())
        .spawn(move || {
            while !hb_stop.load(Ordering::SeqCst) {
                if let Err(e) =
                    report_heartbeat(&hb_client, hb_process, &hb_services, hb_range.clone())
                {
                    // Driver is gone; nothing to heartbeat to. The workers
                    // will panic on their next GCS access and exit.
                    eprintln!("quokka-workerd: heartbeat forwarding stopped: {e}");
                    return;
                }
                thread::sleep(hb_interval);
            }
        })
        .map_err(|e| QuokkaError::Transient(format!("heartbeat forwarder spawn failed: {e}")))?;

    for handle in handles {
        let _ = handle.join();
    }
    stop.store(true, Ordering::SeqCst);
    let _ = heartbeat_forwarder.join();

    // Ship final wire stats so the driver's bench/test output shows the
    // real socket traffic, then let `services` drop (tearing the transport
    // down) and the sink forwarder drain.
    let peers = metrics.snapshot(Duration::ZERO).transport_peers;
    let mut req = Vec::with_capacity(8 + peers.len() * 44);
    wire::put_u8(&mut req, OP_WIRE_STATS);
    wire::put_u32(&mut req, peers.len() as u32);
    for p in &peers {
        wire::put_u32(&mut req, p.peer);
        wire::put_u64(&mut req, p.frames_sent);
        wire::put_u64(&mut req, p.bytes_sent);
        wire::put_u64(&mut req, p.frames_received);
        wire::put_u64(&mut req, p.bytes_received);
        wire::put_u64(&mut req, p.send_queue_peak);
    }
    let _ = client.request(&req);

    drop(services);
    let _ = sink_forwarder.join();
    Ok(())
}

/// Report the beat counters of the workers `range` hosts, and this
/// process's task totals, to the driver.
fn report_heartbeat(
    client: &ControlClient,
    process: u32,
    services: &Services,
    range: std::ops::Range<WorkerId>,
) -> Result<()> {
    let mut req = Vec::with_capacity(24 + range.len() * 12);
    let snap = services.metrics.snapshot(Duration::ZERO);
    wire::put_u8(&mut req, OP_HEARTBEAT);
    wire::put_u32(&mut req, process);
    wire::put_u64(&mut req, snap.tasks_executed);
    wire::put_u64(&mut req, snap.recovery_tasks);
    wire::put_u32(&mut req, range.len() as u32);
    for worker in range {
        wire::put_u32(&mut req, worker);
        wire::put_u64(&mut req, services.heartbeat_count(worker));
    }
    client.request(&req).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_batch::{Column, DataType};
    use quokka_common::ids::ChannelAddr;
    use quokka_gcs::tables::{
        ChannelState, LineageRecord, LineageSource, PartitionEntry, ReplayRequest, TaskCommit,
    };
    use quokka_plan::logical::PlanBuilder;

    /// The schema of the one table every test server serves.
    fn table_schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("name", DataType::Utf8),
            ("price", DataType::Float64),
        ])
    }

    /// A driver's control server for a scan of table `t` in three splits,
    /// with `gcs` as its GCS tables.
    fn control_server(gcs: Arc<Gcs>) -> (ControlServer, Arc<DurableObjectStore>) {
        let schema = table_schema();
        let batch = Batch::try_new(
            schema.clone(),
            vec![
                Column::Int64((0..100).collect()),
                Column::Utf8((0..100).map(|i| format!("name-{}", i % 7)).collect()).encode_auto(),
                Column::Float64((0..100).map(|i| i as f64 * 0.25).collect()),
            ],
        )
        .unwrap();
        let tables = BTreeMap::from([("t".to_string(), TableSplits::from(batch.chunks(40)))]);
        let config = EngineConfig::quokka(2);
        let graph = StageGraph::compile(&PlanBuilder::scan("t", schema).build().unwrap()).unwrap();
        let splits = BTreeMap::from([("t".to_string(), 3u64)]);
        let layout = Arc::new(QueryLayout::new(graph, &config.cluster, &splits).unwrap());
        let (cost, metrics) = (CostModel::free(), MetricsRegistry::new());
        let durable = Arc::new(DurableObjectStore::new(cost, Arc::clone(&metrics), tables));
        let (tx, _rx) = channel();
        let services = Arc::new(Services::new(
            config,
            layout,
            gcs,
            Arc::new(DataPlane::new(2, cost, Arc::clone(&metrics))),
            durable.clone() as Arc<dyn ObjectStore>,
            tx,
            metrics,
        ));
        (ControlServer::bind(services, Arc::clone(&durable)).unwrap(), durable)
    }

    #[test]
    fn remote_split_reads_ship_exactly_the_in_process_projection() {
        let (server, durable) = control_server(Arc::new(Gcs::default()));
        let remote = RemoteDurable::new(Arc::new(ControlClient::connect(server.addr()).unwrap()));

        let pruned = Schema::from_pairs(&[("price", DataType::Float64), ("name", DataType::Utf8)]);
        for split in 0..3 {
            let local = durable.read_split("t", split, &pruned).unwrap();
            let shipped = remote.read_split("t", split, &pruned).unwrap();
            assert_eq!(shipped.schema(), &pruned, "split {split} carries only the scan's columns");
            assert_eq!(shipped, local, "split {split} differs from the in-process read");
        }
        assert!(remote.read_split("t", 3, &pruned).is_err(), "no fourth split");
    }

    /// The GCS calls of a query's life — registration, the rendezvous, a
    /// commit, each of the three commit aborts, replays, lost partitions
    /// and the control flags — with every answer, by name, rendered for
    /// comparison.
    fn query_calls(gcs: &Gcs) -> BTreeMap<&'static str, String> {
        let (scan, sink) = (ChannelAddr::new(0, 0), ChannelAddr::new(1, 0));
        let fresh = ChannelState::new(scan, 0, 0);
        let mut done = fresh.clone();
        done.committed_seq = Some(0);
        let commit = |seq, prev: &ChannelState| TaskCommit {
            worker: 0,
            lineage: LineageRecord {
                task: scan.task(seq),
                source: LineageSource::InputSplits { splits: vec![0, 1] },
                finished_inputs: vec![],
                finalize: false,
            },
            partition: PartitionEntry {
                name: scan.task(seq),
                owner: 0,
                backed_up: true,
                spooled: false,
            },
            channel_state: ChannelState { committed_seq: Some(seq), ..prev.clone() },
            prev_channel: Some(prev.clone()),
        };
        let replay = ReplayRequest::new(1, scan.task(0), sink);
        let mut answers = BTreeMap::new();
        let mut answer = |name, value: &dyn std::fmt::Debug| {
            answers.insert(name, format!("{value:?}"));
        };

        gcs.put_channel(&fresh);
        gcs.put_channel(&ChannelState::new(sink, 1, 1));
        gcs.publish_process(0, "127.0.0.1:7001".parse().unwrap());
        answer("rendezvous", &(gcs.process_addr(0), gcs.process_addr(1)));
        answer("channels", &(gcs.get_channel(scan), gcs.get_channel(ChannelAddr::new(9, 9))));
        answer("flags", &(gcs.is_paused(), gcs.is_query_done(), gcs.query_error()));
        answer("commit", &gcs.commit_task(&commit(0, &fresh), false));
        answer(
            "committed",
            &(gcs.lineage_committed(scan.task(0)), gcs.lineage_committed(scan.task(1))),
        );
        answer("records", &(gcs.get_lineage(scan.task(0)), gcs.get_partition(scan.task(0))));
        answer("after commit", &gcs.all_channels());
        answer("stale commit", &gcs.commit_task(&commit(1, &fresh), false));
        gcs.set_paused(true);
        answer("paused commit", &gcs.commit_task(&commit(1, &done), false));
        gcs.set_paused(false);
        gcs.add_replay(&replay);
        gcs.add_replay(&ReplayRequest { attempts: 2, ..replay.clone() });
        answer("replays", &(gcs.replays_for_worker(1), gcs.replays_for_worker(0)));
        answer("claims", &(gcs.remove_replay(&replay), gcs.remove_replay(&replay)));
        gcs.mark_partition_lost(scan.task(0));
        answer("lost", &(gcs.take_lost_partitions(), gcs.take_lost_partitions()));
        gcs.mark_worker_failed(0);
        answer("failed", &(gcs.is_worker_failed(0), gcs.is_worker_failed(1)));
        answer("failed commit", &gcs.commit_task(&commit(1, &done), false));
        gcs.set_query_error("boom");
        gcs.set_query_done();
        answer("end", &(gcs.query_error(), gcs.is_query_done()));
        answer("counters", &(gcs.transactions(), gcs.lineage_bytes()));
        answers
    }

    #[test]
    fn a_remote_gcs_over_the_control_server_answers_like_the_local_gcs() {
        let authority = Arc::new(Gcs::default());
        let (server, _) = control_server(Arc::clone(&authority));
        let client = Arc::new(ControlClient::connect(server.addr()).unwrap());
        let remote = Gcs::remote(Arc::clone(&client));

        let local = query_calls(&Gcs::default());
        assert_eq!(query_calls(&remote), local);
        assert_eq!(local["commit"], "Ok(())");
        for (call, why) in [
            ("stale commit", "reconciled"),
            ("paused commit", "barrier"),
            ("failed commit", "failed"),
        ] {
            assert!(
                local[call].contains("TransactionAborted") && local[call].contains(why),
                "{call}"
            );
        }
        assert_eq!(local["claims"], "(true, false)", "a replay request is claimed once");

        // Truncated or garbage GCS frames get a typed error, and the
        // connection keeps serving.
        let mut truncated = vec![OP_GCS, 25];
        truncated.extend_from_slice(&[0, 0, 0]);
        for garbage in [&[OP_GCS][..], &[OP_GCS, 200], &truncated] {
            let err = client.request(garbage).unwrap_err();
            assert!(matches!(err, QuokkaError::Transient(_)), "{garbage:?}: {err:?}");
        }
        assert!(remote.is_query_done());
        assert_eq!(authority.transactions(), remote.transactions());
    }

    #[test]
    fn worker_ranges_cover_all_workers_contiguously() {
        for workers in 1..=9u32 {
            for processes in 1..=4u32 {
                let ranges = worker_ranges(workers, processes);
                assert_eq!(ranges.len(), processes as usize);
                let mut next = 0;
                for range in &ranges {
                    assert_eq!(range.start, next);
                    next = range.end;
                }
                assert_eq!(next, workers);
            }
        }
    }

    #[test]
    fn ranges_round_trip_through_the_command_line_form() {
        let ranges = worker_ranges(7, 3);
        let text = format_ranges(&ranges);
        assert_eq!(text, "0-3,3-5,5-7");
        assert_eq!(parse_ranges(&text).unwrap(), ranges);
        assert!(parse_ranges("3-1").is_err());
        assert!(parse_ranges("nope").is_err());
    }
}
