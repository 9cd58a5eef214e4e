//! The three TPC-H workloads and the rounds they run in.
//!
//! Every round builds a fresh session on data generated from `seed + round`
//! (timed: the set-up), computes the oracle answers with
//! `ReferenceExecutor` on the hand-built plans (untimed; it shares neither
//! the SQL frontend nor the optimizer with the engine path), and then runs
//! its measured phase through the SQL frontend. In a traced run, a probe
//! phase after the measured phase times the layers the engine path hides:
//! SQL planning, optimization, stage compilation and the split codec.

use crate::check;
use crate::host;
use crate::trace::{SpanId, Tracer};
use quokka::batch::codec::{decode_partition, encode_partition};
use quokka::common::rng::DetRng;
use quokka::plan::stage::StageGraph;
use quokka::plan::Optimizer;
use quokka::tpch::queries::sql::sql_text;
use quokka::tpch::schema::{table_schema, TABLE_NAMES};
use quokka::{
    Batch, ChaosPlan, EngineConfig, QueryHandle, QueryMetrics, QuokkaSession, ReferenceExecutor,
    TpchGenerator, TransportConfig,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Engine workers in every workload (`EngineConfig::quokka(WORKERS)`).
pub const WORKERS: u32 = 4;

/// A query past this deadline fails with a typed timeout. The slowest query
/// of any workload takes about a second on a 2-vCPU host.
const QUERY_DEADLINE: Duration = Duration::from_secs(20);

/// No new round starts once a run has been going this long, so a run ends
/// within its time limit even when the program slows down badly.
const RUN_BUDGET: Duration = Duration::from_secs(120);

/// Medians over three rounds drop a cold first round, or one that a burst
/// of host steal hit.
const MIN_ROUNDS: u32 = 3;

/// Closed-loop clients of `tpch-serve`, as many as the 2-vCPU reference host
/// has CPUs.
pub const SERVE_CLIENTS: u64 = 2;

/// Requests a `tpch-serve` run makes at least, so that ten samples lie
/// beyond its p99.
const SERVE_MIN_REQUESTS: u64 = 1000;

/// The worker `tpch-recover` kills, and the input progress it dies at.
const KILLED_WORKER: u32 = 1;
const KILL_PROGRESS: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Batch,
    Serve,
    Recover,
}

/// A workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub sf: f64,
    pub queries: &'static [usize],
    pub tcp: bool,
    /// Measured seconds a round takes on the 2-vCPU reference host; a run
    /// of `--seconds` has `--seconds / round_seconds` rounds, at least
    /// [`MIN_ROUNDS`]. The count depends on `--seconds` alone, so a faster
    /// program measures the same work in less time.
    pub round_seconds: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tpch-batch",
        kind: Kind::Batch,
        sf: 0.02,
        queries: &quokka::tpch::ALL_QUERIES,
        tcp: false,
        round_seconds: 8.5,
    },
    Workload {
        name: "tpch-serve",
        kind: Kind::Serve,
        sf: 0.005,
        queries: &[1, 3, 4, 6, 12, 14],
        tcp: false,
        round_seconds: 6.0,
    },
    Workload {
        name: "tpch-recover",
        kind: Kind::Recover,
        sf: 0.02,
        queries: &quokka::tpch::REPRESENTATIVE,
        tcp: false,
        round_seconds: 8.5,
    },
];

/// `tpch-recover` over the TCP transport. It is not a benchmark workload:
/// TCP recovery has a known defect (Q9, Q8 and Q5 kill runs return wrong
/// sums in a few percent of runs), and this workload reproduces it,
/// reporting each wrong result as a failed operation.
pub const TCP_RECOVER: Workload = Workload { name: "tpch-recover-tcp", tcp: true, ..WORKLOADS[2] };

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().chain([&TCP_RECOVER]).copied().find(|w| w.name == name)
    }

    pub fn rounds(&self, seconds: f64) -> u32 {
        ((seconds / self.round_seconds).round() as u32).max(MIN_ROUNDS)
    }

    /// Operations in flight at once: the clients of a closed loop.
    pub fn concurrency(&self) -> u64 {
        match self.kind {
            Kind::Serve => SERVE_CLIENTS,
            Kind::Batch | Kind::Recover => 1,
        }
    }

    pub fn transport(&self) -> &'static str {
        if self.tcp {
            "tcp"
        } else {
            "inproc"
        }
    }

    /// The session's configuration: Quokka's defaults (pipelined, write-ahead
    /// lineage, cost model off) plus the per-query deadline.
    pub fn config(&self) -> EngineConfig {
        let config = EngineConfig::quokka(WORKERS).with_query_timeout(QUERY_DEADLINE);
        if self.tcp {
            config.with_transport(TransportConfig::tcp())
        } else {
            config
        }
    }

    fn kill_config(&self) -> EngineConfig {
        self.config().with_chaos(ChaosPlan::kill_at_progress(KILLED_WORKER, KILL_PROGRESS))
    }
}

/// One engine execution, as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct Op {
    pub query: usize,
    pub round: u32,
    pub kind: OpKind,
    /// `QuokkaSession::sql` (unless the op shares a planned handle) +
    /// `QueryHandle::stream` + draining the stream.
    pub latency: Duration,
    pub submit: Duration,
    /// From `stream` returning to the first `next_batch` result.
    pub first_batch: Duration,
    pub drain: Duration,
    /// Process CPU time (all threads, so also that of ops running
    /// alongside) while the op ran.
    pub cpu: Duration,
    /// Share of host CPU time the hypervisor stole while the op ran.
    pub steal: f64,
    pub metrics: Option<QueryMetrics>,
    pub failed: bool,
}

/// One round: its set-up and its measured phase.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Time to a query-ready session, and its generate and register parts.
    pub setup: Duration,
    pub generate: Duration,
    pub register: Duration,
    /// Wall time of the measured phase.
    pub wall: Duration,
    /// Peak RSS of the measured phase, in MiB.
    pub peak_rss_mib: f64,
    /// Share of host CPU the hypervisor stole during the measured phase.
    pub steal: f64,
}

/// Per-statement timings of the traced probe phase.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub query: usize,
    pub plan: Duration,
    pub optimize: Duration,
    pub compile: Duration,
    pub stages: usize,
}

/// A failed operation.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The result differed from the oracle (rather than an error, a missed
    /// deadline, or a kill that did not happen).
    pub wrong_result: bool,
    /// Everything needed to rerun it, and the first rows that differ.
    pub log: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunData {
    pub rounds: Vec<Round>,
    pub ops: Vec<Op>,
    pub failures: Vec<Failure>,
    pub peak_rss_reset_failed: bool,
    /// Oracle time per query, one sample per round.
    pub reference: BTreeMap<usize, Vec<Duration>>,
    pub probes: Vec<Probe>,
    /// Per round: (encoded MiB, encode time, decode time).
    pub codec: Vec<(f64, Duration, Duration)>,
    /// Every `QuokkaSession::sql` call of the measured phases.
    pub sql_calls: Vec<Duration>,
    /// Plan-cache hits and misses during the measured phases.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl RunData {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// The ops the end-to-end metrics cover: measured queries and
    /// requests, and `tpch-recover`'s kill runs. Warm-ups and clean twins
    /// are checked but are not headline ops.
    pub fn headline(&self) -> impl Iterator<Item = &Op> {
        self.ops.iter().filter(|op| matches!(op.kind, OpKind::Headline | OpKind::Kill))
    }
}

/// Shared state of one run.
pub struct Runner<'a> {
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: &'a Tracer,
    data: Mutex<RunData>,
    next_op: AtomicU64,
}

impl<'a> Runner<'a> {
    pub fn new(workload: Workload, seed: u64, seconds: f64, tracer: &'a Tracer) -> Self {
        Runner {
            workload,
            seed,
            seconds,
            tracer,
            data: Mutex::new(RunData::default()),
            next_op: AtomicU64::new(0),
        }
    }

    /// Run the workload's rounds and return what they measured. A serve
    /// round lasts its share of `--seconds`; batch and recover rounds are
    /// fixed work.
    pub fn run(self) -> RunData {
        let started = Instant::now();
        let rounds = self.workload.rounds(self.seconds);
        for round in 0..rounds {
            if started.elapsed() > RUN_BUDGET {
                eprintln!("run budget of {RUN_BUDGET:?} spent; stopping after {round} rounds");
                break;
            }
            self.tracer.time("round", None, round as u64, |span| {
                self.round(round, self.seconds / rounds as f64, span);
            });
        }
        self.data.into_inner().expect("run data poisoned")
    }

    fn data(&self) -> std::sync::MutexGuard<'_, RunData> {
        self.data.lock().expect("run data poisoned")
    }

    fn round(&self, round: u32, seconds: f64, span: SpanId) {
        let data_seed = self.seed.wrapping_add(round as u64);
        let (session, mut record) = self.setup(data_seed, span);
        let oracle = self.oracle(&session, span);
        let ctx = RoundCtx { session: &session, oracle: &oracle, round };
        if self.workload.kind == Kind::Serve {
            // A serving endpoint is query-ready once every statement has
            // been planned and cached.
            let ((), warmup) = self.tracer.time("setup.warmup", Some(span), round as u64, |w| {
                for &query in self.workload.queries {
                    self.op(&ctx, query, OpKind::Warmup, Plan::Fresh, w);
                }
            });
            record.setup += warmup;
        }
        let reset_failed = host::reset_peak_rss().is_err();
        let stats_before = session.plan_cache().stats();
        let ticks_before = host::HostTicks::now();
        let ((), wall) = self.tracer.time("measure", Some(span), round as u64, |measure| {
            self.measure(&ctx, seconds, measure)
        });
        record.steal = host::HostTicks::now().steal_share_since(&ticks_before);
        record.peak_rss_mib = host::peak_rss_mib();
        record.wall = wall;
        let stats = session.plan_cache().stats();
        {
            let mut data = self.data();
            data.rounds.push(record);
            data.peak_rss_reset_failed |= reset_failed;
            data.cache_hits += stats.hits - stats_before.hits;
            data.cache_misses += stats.misses - stats_before.misses;
        }
        // Probes run after the measured phase, so that their allocations do
        // not raise the peak-RSS baseline the measured phase starts from.
        if self.tracer.enabled() {
            self.tracer
                .time("probe", Some(span), round as u64, |probe| self.probe(&session, probe));
        }
    }

    fn measure(&self, ctx: &RoundCtx<'_>, seconds: f64, parent: SpanId) {
        match self.workload.kind {
            Kind::Batch => {
                for &query in self.workload.queries {
                    self.op(ctx, query, OpKind::Headline, Plan::Fresh, parent);
                }
            }
            Kind::Serve => self.serve(ctx, seconds, parent),
            Kind::Recover => {
                for &query in self.workload.queries {
                    let handle = self.plan(ctx.session, query, OpKind::Clean, parent);
                    for kind in [OpKind::Clean, OpKind::Kill] {
                        self.op(ctx, query, kind, Plan::Shared(&handle), parent);
                    }
                }
            }
        }
    }

    /// Generate the round's data and register it in a fresh session.
    fn setup(&self, data_seed: u64, parent: SpanId) -> (QuokkaSession, Round) {
        let generator = TpchGenerator::new(self.workload.sf, data_seed);
        let mut setup = Round::default();
        let (session, total) = self.tracer.time("setup", Some(parent), data_seed, |span| {
            let session = QuokkaSession::new(self.workload.config());
            for table in TABLE_NAMES {
                let (batches, generate) =
                    self.tracer.time("tpch.generate", Some(span), data_seed, |_| {
                        generator.generate(table).expect("TPC-H tables generate")
                    });
                let schema = table_schema(table).expect("known TPC-H table");
                let ((), register) =
                    self.tracer.time("quokka.register", Some(span), data_seed, |_| {
                        session.register_table(table, schema, batches)
                    });
                setup.generate += generate;
                setup.register += register;
            }
            session
        });
        setup.setup = total;
        (session, setup)
    }

    /// The oracle answer of every query, from the hand-built plans.
    fn oracle(&self, session: &QuokkaSession, parent: SpanId) -> BTreeMap<usize, Batch> {
        let (answers, _) = self.tracer.time("oracle", Some(parent), 0, |span| {
            let executor = ReferenceExecutor::new(session.catalog());
            let mut answers = BTreeMap::new();
            for &query in self.workload.queries {
                let plan = quokka::tpch::query(query).expect("hand-built TPC-H plan");
                let (answer, took) =
                    self.tracer.time("plan.reference", Some(span), query as u64, |_| {
                        executor.execute(&plan).expect("the reference executor answers TPC-H")
                    });
                self.data().reference.entry(query).or_default().push(took);
                answers.insert(query, answer);
            }
            answers
        });
        answers
    }

    /// Time the layers the engine path runs but does not expose: SQL
    /// planning, optimization, stage compilation, and the split codec.
    fn probe(&self, session: &QuokkaSession, parent: SpanId) {
        let catalog = session.catalog();
        for &query in self.workload.queries {
            let text = sql_text(query).expect("TPC-H SQL text");
            let op = query as u64;
            let (plan, plan_time) = self.tracer.time("sql.plan", Some(parent), op, |_| {
                quokka::sql::plan_query(text, catalog).expect("TPC-H SQL plans")
            });
            let (lowered, optimize) = self.tracer.time("plan.optimize", Some(parent), op, |_| {
                Optimizer::with_catalog(catalog).optimize(&plan).expect("TPC-H plans optimize")
            });
            let (graph, compile) = self.tracer.time("plan.compile", Some(parent), op, |_| {
                StageGraph::compile(&lowered).expect("TPC-H plans compile")
            });
            self.data().probes.push(Probe {
                query,
                plan: plan_time,
                optimize,
                compile,
                stages: graph.num_stages(),
            });
        }
        let (mut encoded_bytes, mut encode, mut decode) = (0usize, Duration::ZERO, Duration::ZERO);
        for table in TABLE_NAMES {
            let splits =
                quokka::plan::Catalog::table_batches(catalog, table).expect("registered table");
            let (payloads, took) = self.tracer.time("batch.encode", Some(parent), 0, |_| {
                splits
                    .iter()
                    .map(|split| encode_partition(std::slice::from_ref(split)))
                    .collect::<Vec<_>>()
            });
            encode += took;
            encoded_bytes += payloads.iter().map(|p| p.len()).sum::<usize>();
            let (decoded, took) = self.tracer.time("batch.decode", Some(parent), 0, |_| {
                payloads
                    .iter()
                    .map(|p| decode_partition(p).expect("encoded splits decode"))
                    .collect::<Vec<_>>()
            });
            decode += took;
            assert_eq!(decoded.len(), splits.len(), "every split round-trips");
        }
        self.data().codec.push((encoded_bytes as f64 / (1024.0 * 1024.0), encode, decode));
    }

    /// `tpch-serve`'s measured phase: closed-loop clients sharing the
    /// session, each replaying the statements in its own seeded orders
    /// until the phase's time is up and the round has started its share of
    /// the run's minimum requests.
    fn serve(&self, ctx: &RoundCtx<'_>, seconds: f64, parent: SpanId) {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let quota = SERVE_MIN_REQUESTS.div_ceil(self.workload.rounds(self.seconds) as u64);
        let started = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for client in 0..SERVE_CLIENTS {
                let started = &started;
                scope.spawn(move || {
                    let mut rng = DetRng::derive(self.seed, (ctx.round as u64) << 8 | client);
                    let mut order = self.workload.queries.to_vec();
                    'requests: loop {
                        for i in (1..order.len()).rev() {
                            order.swap(i, rng.next_below(i as u64 + 1) as usize);
                        }
                        for &query in &order {
                            if Instant::now() >= deadline
                                && started.load(Ordering::Relaxed) >= quota
                            {
                                break 'requests;
                            }
                            started.fetch_add(1, Ordering::Relaxed);
                            self.op(ctx, query, OpKind::Headline, Plan::Fresh, parent);
                        }
                    }
                });
            }
        });
    }

    /// Plan `query`'s SQL text through the session (and its plan cache).
    fn plan(
        &self,
        session: &QuokkaSession,
        query: usize,
        kind: OpKind,
        parent: SpanId,
    ) -> quokka::Result<QueryHandle> {
        let text = sql_text(query).expect("TPC-H SQL text");
        let (handle, took) =
            self.tracer.time("quokka.sql", Some(parent), query as u64, |_| session.sql(text));
        if kind != OpKind::Warmup {
            self.data().sql_calls.push(took);
        }
        handle
    }

    /// Run one statement through the engine, check it against the oracle,
    /// and record it.
    fn op(&self, ctx: &RoundCtx<'_>, query: usize, kind: OpKind, plan: Plan<'_>, parent: SpanId) {
        let config = match kind {
            OpKind::Kill => self.workload.kill_config(),
            _ => self.workload.config(),
        };
        let id = self.next_op.fetch_add(1, Ordering::Relaxed);
        let cpu_before = host::process_cpu();
        let ticks_before = host::HostTicks::now();
        let round = ctx.round;
        let mut op = Op { query, round, kind, ..Op::default() };
        let (outcome, latency) = self.tracer.time(kind.span_name(), Some(parent), id, |span| {
            let planned;
            let handle = match plan {
                Plan::Shared(handle) => handle.as_ref().map_err(Clone::clone)?,
                Plan::Fresh => {
                    planned = self.plan(ctx.session, query, kind, span)?;
                    &planned
                }
            };
            let (stream, submit) =
                self.tracer.time("engine.submit", Some(span), id, |_| handle.stream_with(&config));
            op.submit = submit;
            let mut stream = stream?;
            let (batches, drain) = self.tracer.time("engine.drain", Some(span), id, |_| {
                let start = Instant::now();
                let mut batches = Vec::new();
                loop {
                    let next = stream.next_batch();
                    if batches.is_empty() {
                        op.first_batch = start.elapsed();
                    }
                    match next? {
                        Some(batch) => batches.push(batch),
                        None => break Ok::<_, quokka::QuokkaError>(batches),
                    }
                }
            });
            op.drain = drain;
            op.metrics = stream.metrics().cloned();
            let batches = batches?;
            if batches.is_empty() {
                Ok(Batch::empty(stream.schema().clone()))
            } else {
                Batch::concat(&batches)
            }
        });
        op.latency = latency;
        op.cpu = host::process_cpu().saturating_sub(cpu_before);
        op.steal = host::HostTicks::now().steal_share_since(&ticks_before);
        let (verdict, _) = self.tracer.time("check", Some(parent), id, |_| match outcome {
            Err(error) => Err((false, format!("error: {error}"))),
            Ok(batch) => match check::compare(&batch, &ctx.oracle[&query]) {
                Err(mismatch) => Err((true, format!("wrong result: {mismatch}"))),
                Ok(()) => match (&op.metrics, kind) {
                    (Some(m), OpKind::Kill) if m.failures != 1 => {
                        Err((false, format!("kill run saw {} worker failures, not 1", m.failures)))
                    }
                    _ => Ok(()),
                },
            },
        });
        if let Err((wrong_result, detail)) = verdict {
            op.failed = true;
            let log = self.describe(round, query, kind, &detail);
            eprintln!("{log}");
            self.data().failures.push(Failure { wrong_result, log });
        }
        self.data().ops.push(op);
    }

    /// One log line that names everything needed to rerun a failure.
    fn describe(&self, round: u32, query: usize, kind: OpKind, detail: &str) -> String {
        let chaos = if kind == OpKind::Kill {
            format!(", kill worker {KILLED_WORKER} at {:.0}% input", KILL_PROGRESS * 100.0)
        } else {
            String::new()
        };
        format!(
            "FAILED {} seed={} round={round} data_seed={} sf={} Q{query} {} run \
             [workers={WORKERS}, transport={}{chaos}] (rerun: --workload {0} --seed {1}): {detail}",
            self.workload.name,
            self.seed,
            self.seed.wrapping_add(round as u64),
            self.workload.sf,
            kind.label(),
            self.workload.transport(),
        )
    }
}

/// What every operation of a round shares.
struct RoundCtx<'r> {
    session: &'r QuokkaSession,
    oracle: &'r BTreeMap<usize, Batch>,
    round: u32,
}

/// Where an operation's query handle comes from.
#[derive(Clone, Copy)]
enum Plan<'h> {
    /// The operation plans its statement through `QuokkaSession::sql`.
    Fresh,
    /// Recover's clean and kill runs execute one planned handle, so that
    /// planning is not counted as time lost to recovery.
    Shared(&'h quokka::Result<QueryHandle>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpKind {
    /// `tpch-serve` set-up: plans and caches every statement.
    Warmup,
    #[default]
    Headline,
    /// `tpch-recover`'s undisturbed twin of a kill run.
    Clean,
    Kill,
}

impl OpKind {
    fn span_name(self) -> &'static str {
        match self {
            OpKind::Warmup => "query.warmup",
            OpKind::Headline => "query",
            OpKind::Clean => "query.clean",
            OpKind::Kill => "query.kill",
        }
    }

    fn label(self) -> &'static str {
        match self {
            OpKind::Warmup => "warm-up",
            OpKind::Headline => "measured",
            OpKind::Clean => "clean",
            OpKind::Kill => "kill",
        }
    }
}
