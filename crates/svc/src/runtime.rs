//! The real concurrent runtime front end: actual worker threads behind
//! the service's admission/breaker semantics, driven over the wire
//! protocol ([`crate::wire`]).
//!
//! # One engine, two paces
//!
//! The server runs the crate's admission engine, the same one the
//! virtual-tick [`Service`](crate::service::Service) and the `Frontend`
//! run: arrival checks, class queues, the floored ladder and exact
//! grant, dispatch, settlement, breaker feedback, retries and hedges.
//! What the runtime adds is real: decoded and authenticated wire frames,
//! worker threads, and in wall pace a real clock.
//!
//! * **Virtual pace** ([`Pace::Virtual`]) — the differential-oracle
//!   mode. The client writes the whole trace over the wire and closes;
//!   the server decodes and authenticates every frame, then replays the
//!   arrivals through the engine's event loop, the same loop
//!   [`Service::run`](crate::service::Service::run) runs. Each dispatched
//!   job is a round trip to a worker thread, and it is settled before
//!   the next event. A dispatch round never yields more than one job,
//!   because the loop dispatches after every event and each event adds
//!   one arrival or frees one worker. So at most one selection is in
//!   flight, and the runtime's accounting equals the sim's exactly —
//!   which is what lets CI re-run the real runtime three times and
//!   demand byte-identical reports.
//! * **Wall pace** ([`Pace::Wall`]) — arrivals are paced by real
//!   sleeps (trace tick × calibrated `ns_per_tick`), deadlines are wall
//!   deadlines mapped through the same tick economy, and workers settle
//!   the shared [`TerminalLedger`] themselves at completion time:
//!   genuinely racing settlements, first writer wins, hedge twins
//!   deduplicate through the ledger. The server calls the engine's
//!   arrival, dispatch and settlement steps on the real clock. Only
//!   invariants (terminal accounting, exactly-one-response-per-id) are
//!   asserted here, not bit-determinism.

use std::io::{Read, Write};
use std::net::{Shutdown as NetShutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dams_core::{CoreMetrics, Instance, SelectionPolicy};
use dams_obs::{Mode, Registry};
use dams_workload::ArrivalEvent;

use crate::clock::MonoClock;
use crate::engine::{Engine, Job, Outcome, TerminalFate, TerminalLedger};
use crate::obs::RuntimeMetrics;
use crate::service::{self, SvcConfig, SvcReport};
use crate::wire::{
    duplex_pair, write_frame, DuplexEnd, FrameReader, Hello, Message, WireError, WireOutcome,
    WireRequest, WireResponse,
};

/// How request arrivals are paced through the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Replay on the virtual tick clock (deterministic; the
    /// differential-oracle mode).
    Virtual,
    /// Pace arrivals in real time at `ns_per_tick` nanoseconds per
    /// virtual tick (from [`crate::clock::calibrate_wall`]).
    Wall { ns_per_tick: u64 },
}

/// Which byte transport carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process cross-wired pipes ([`duplex_pair`]).
    Duplex,
    /// A real loopback TCP connection.
    Tcp,
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transport::Duplex => write!(f, "duplex"),
            Transport::Tcp => write!(f, "tcp"),
        }
    }
}

/// Runtime configuration: the service semantics plus the runtime's own
/// pacing/transport/session choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    pub svc: SvcConfig,
    pub pace: Pace,
    pub transport: Transport,
    /// Wallet sessions the client opens (requests carry a tenant id;
    /// `trace.tenant` should stay below this).
    pub tenants: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            svc: SvcConfig::default(),
            pace: Pace::Virtual,
            transport: Transport::Duplex,
            tenants: 3,
        }
    }
}

/// What the client observed on its side of the wire — the independent
/// cross-check against the server's report (wire fidelity: every unique
/// id gets exactly one terminal response).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientTally {
    pub responses: u64,
    pub completed: u64,
    pub failed: u64,
    pub shed: u64,
    pub deadline_met: u64,
    /// Responses for an id already answered (must stay 0).
    pub duplicates: u64,
}

/// Everything one runtime run produced.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Sim-comparable accounting (same shape the virtual-tick service
    /// reports, including the deterministic snapshot).
    pub svc: SvcReport,
    pub client: ClientTally,
    /// Frames the server decoded (hellos + requests + shutdown).
    pub frames_received: u64,
    /// Frames the server rejected at decode (0 on a clean transport).
    pub frames_rejected: u64,
    /// Wallet sessions opened.
    pub sessions: u64,
    /// Wall-clock sidecar snapshot ([`Mode::WallClock`]): only the
    /// nanosecond timers, rendered in full. Empty-ish in virtual pace.
    pub wall_snapshot: String,
}

// ---------------------------------------------------------------------
// Transport plumbing
// ---------------------------------------------------------------------

enum Channel {
    Duplex(DuplexEnd),
    Tcp(TcpStream),
}

impl Channel {
    fn try_clone(&self) -> Result<Channel, WireError> {
        match self {
            Channel::Duplex(d) => Ok(Channel::Duplex(d.clone())),
            Channel::Tcp(t) => t
                .try_clone()
                .map(Channel::Tcp)
                .map_err(|e| WireError::Io(e.to_string())),
        }
    }

    fn close_write(&self) {
        match self {
            Channel::Duplex(d) => d.close(),
            Channel::Tcp(t) => {
                let _ = t.shutdown(NetShutdown::Write);
            }
        }
    }
}

impl Read for Channel {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Channel::Duplex(d) => d.read(buf),
            Channel::Tcp(t) => t.read(buf),
        }
    }
}

impl Write for Channel {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Channel::Duplex(d) => d.write(buf),
            Channel::Tcp(t) => t.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Channel::Duplex(d) => d.flush(),
            Channel::Tcp(t) => t.flush(),
        }
    }
}

fn make_transport(transport: Transport) -> Result<(Channel, Channel), WireError> {
    match transport {
        Transport::Duplex => {
            let (a, b) = duplex_pair();
            Ok((Channel::Duplex(a), Channel::Duplex(b)))
        }
        Transport::Tcp => {
            let io_err = |e: std::io::Error| WireError::Io(e.to_string());
            let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
            let addr = listener.local_addr().map_err(io_err)?;
            let client = TcpStream::connect(addr).map_err(io_err)?;
            let (server, _) = listener.accept().map_err(io_err)?;
            client.set_nodelay(true).map_err(io_err)?;
            server.set_nodelay(true).map_err(io_err)?;
            Ok((Channel::Tcp(client), Channel::Tcp(server)))
        }
    }
}

fn wire_request(e: &ArrivalEvent) -> WireRequest {
    WireRequest {
        tick: e.tick,
        id: e.id,
        tenant: e.tenant,
        target: e.target,
        interactive: e.interactive,
        budget: e.budget,
        require_exact: e.require_exact,
    }
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// Everything the server's main thread hears about.
enum ServerMsg {
    /// A frame the wall-pace reader thread decoded.
    Frame(Message),
    /// The wall-pace reader thread reached end of stream (or a bad frame).
    ReaderDone(Result<(), WireError>),
    /// A worker finished a job.
    Done(Done),
}

struct Done {
    job: Job,
    outcome: Outcome,
    /// Wall pace only: the clock tick the worker finished at.
    finish_tick: u64,
    /// Wall pace only: whether this worker's inline settlement won.
    won: bool,
}

/// Wall-pace inline settlement context handed to each worker.
struct InlineSettle {
    ledger: Arc<TerminalLedger>,
    clock: MonoClock,
    ns_per_tick: u64,
    metrics: RuntimeMetrics,
}

fn worker_loop(
    instance: &Instance,
    policy: SelectionPolicy,
    core: CoreMetrics,
    jobs: mpsc::Receiver<Job>,
    done: mpsc::Sender<ServerMsg>,
    inline: Option<InlineSettle>,
) {
    while let Ok(job) = jobs.recv() {
        let started = Instant::now();
        let outcome = job.select(instance, None, policy, &core);
        let (mut finish_tick, mut won) = (0, false);
        if let Some(inl) = &inline {
            // Racing settlement: first twin to reach the ledger wins.
            finish_tick = inl.clock.now();
            won = inl
                .ledger
                .settle(job.req.id, TerminalFate::of(&job, &outcome, finish_tick));
            inl.metrics
                .wall_service
                .record(started.elapsed().as_nanos() as u64);
            inl.metrics.wall_latency.record(
                finish_tick
                    .saturating_sub(job.enqueued)
                    .saturating_mul(inl.ns_per_tick),
            );
        }
        let msg = ServerMsg::Done(Done {
            job,
            outcome,
            finish_tick,
            won,
        });
        if done.send(msg).is_err() {
            return;
        }
    }
}

fn hung_up() -> WireError {
    WireError::Io("worker pool hung up".into())
}

/// Count one frame the client sent; returns the request it carries.
fn count_frame(rt: &RuntimeMetrics, msg: Message) -> Option<WireRequest> {
    match msg {
        Message::Request(r) => {
            rt.frames_received.inc();
            return Some(r);
        }
        Message::Hello(_) => {
            rt.sessions.inc();
            rt.frames_received.inc();
        }
        Message::Shutdown => rt.frames_received.inc(),
        // A client never sends responses: a protocol violation, rejected.
        Message::Response(_) => rt.frames_rejected.inc(),
    }
    None
}

// ---------------------------------------------------------------------
// Wall-pace server
// ---------------------------------------------------------------------

/// Serve on the real clock until the client is done and every request
/// is answered.
fn run_wall(
    engine: &mut Engine,
    clock: MonoClock,
    ns_per_tick: u64,
    job_tx: &[mpsc::Sender<Job>],
    rx: mpsc::Receiver<ServerMsg>,
    rt: &RuntimeMetrics,
    respond: &mut impl FnMut(u64, TerminalFate) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let mut reader_done = false;
    let mut in_flight = 0usize;
    loop {
        let now = clock.now();
        while let Some(event) = engine.pop_due(now) {
            engine.on_event(now, event);
        }
        while let Some(job) = engine.dispatch(clock.now()) {
            job_tx[job.worker].send(job).map_err(|_| hung_up())?;
            in_flight += 1;
        }
        for (id, fate) in engine.settled.drain(..) {
            respond(id, fate)?;
        }
        if reader_done && in_flight == 0 && engine.is_drained() {
            break;
        }
        let timeout = match engine.next_due() {
            Some(due) => {
                let ticks = due.saturating_sub(clock.now());
                Duration::from_nanos(ticks.saturating_mul(ns_per_tick).clamp(50_000, 5_000_000))
            }
            None => Duration::from_micros(500),
        };
        match rx.recv_timeout(timeout) {
            Ok(ServerMsg::Frame(msg)) => {
                if let Some(r) = count_frame(rt, msg) {
                    engine.arrive(clock.now(), r.to_request(), 1, false);
                }
            }
            Ok(ServerMsg::ReaderDone(res)) => {
                res?;
                reader_done = true;
            }
            Ok(ServerMsg::Done(done)) => {
                // The worker already raced the ledger; the engine mirrors
                // the winner into metrics and the response stream.
                in_flight -= 1;
                let job = done.job;
                engine.idle.push_back(job.worker);
                if done.won {
                    let cost = engine.price(&job, &done.outcome);
                    let finish = done.finish_tick;
                    let fate = engine.settle(&job, &done.outcome, cost, finish, finish);
                    respond(job.req.id, fate)?;
                } else if job.hedge {
                    engine.metrics.hedges_wasted.inc();
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(WireError::Io("wall server channel hung up".into()));
            }
        }
    }
    engine.final_tick = clock.now();
    Ok(())
}

// ---------------------------------------------------------------------
// Top-level runner
// ---------------------------------------------------------------------

/// Run the full client/server exchange for one trace and report both
/// sides. See the module docs for the two pacing modes.
pub fn run_runtime(
    instance: &Instance,
    policy: SelectionPolicy,
    cfg: &RuntimeConfig,
    trace: &[ArrivalEvent],
) -> Result<RuntimeReport, WireError> {
    let (client, server) = make_transport(cfg.transport)?;
    let tenants = cfg.tenants.max(1);
    let trace_owned: Vec<ArrivalEvent> = trace.to_vec();
    let pace = cfg.pace;

    std::thread::scope(|s| -> Result<RuntimeReport, WireError> {
        // Client writer: sessions, the paced trace, then shutdown.
        let writer_chan = client.try_clone()?;
        let writer = s.spawn(move || -> Result<(), WireError> {
            let mut w = writer_chan;
            for t in 0..tenants {
                write_frame(&mut w, &Message::Hello(Hello { tenant: t }))?;
            }
            let origin = Instant::now();
            for e in &trace_owned {
                if let Pace::Wall { ns_per_tick } = pace {
                    let due = Duration::from_nanos(e.tick.saturating_mul(ns_per_tick));
                    let elapsed = origin.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                }
                write_frame(&mut w, &Message::Request(wire_request(e)))?;
            }
            write_frame(&mut w, &Message::Shutdown)?;
            w.close_write();
            Ok(())
        });

        // Client reader: tally terminal responses until server EOF.
        let reader = s.spawn(move || -> Result<ClientTally, WireError> {
            let mut tally = ClientTally::default();
            let mut seen = std::collections::HashSet::new();
            let mut rd = FrameReader::new(client);
            while let Some(msg) = rd.read_frame()? {
                if let Message::Response(r) = msg {
                    tally.responses += 1;
                    if !seen.insert(r.id) {
                        tally.duplicates += 1;
                        continue;
                    }
                    match r.outcome {
                        WireOutcome::Completed { met, .. } => {
                            tally.completed += 1;
                            if met {
                                tally.deadline_met += 1;
                            }
                        }
                        WireOutcome::Shed(_) => tally.shed += 1,
                        WireOutcome::Failed => tally.failed += 1,
                    }
                }
            }
            Ok(tally)
        });

        let mut report = run_server(s, instance, policy, cfg, server)?;
        writer.join().expect("client writer panicked")?;
        report.client = reader.join().expect("client reader panicked")?;
        Ok(report)
    })
}

fn run_server<'scope, 'env>(
    s: &'scope std::thread::Scope<'scope, 'env>,
    instance: &'env Instance,
    policy: SelectionPolicy,
    cfg: &RuntimeConfig,
    server: Channel,
) -> Result<RuntimeReport, WireError>
where
    'env: 'scope,
{
    let registry = Registry::new();
    let rt = RuntimeMetrics::in_registry(&registry);
    let mut engine = Engine::new(cfg.svc, &registry, service::SEED_SALT);
    let wall = match cfg.pace {
        Pace::Wall { ns_per_tick } => Some((MonoClock::wall(ns_per_tick), ns_per_tick.max(1))),
        Pace::Virtual => None,
    };

    // Per-worker job channels; every worker reports on the one server
    // channel.
    let (tx, rx) = mpsc::channel::<ServerMsg>();
    let job_tx: Vec<mpsc::Sender<Job>> = (0..cfg.svc.workers.max(1))
        .map(|_| {
            let (job_tx, jobs) = mpsc::channel::<Job>();
            let core = engine.core.clone();
            let done = tx.clone();
            let inline = wall.map(|(clock, ns_per_tick)| InlineSettle {
                ledger: Arc::clone(&engine.ledger),
                clock,
                ns_per_tick,
                metrics: rt.clone(),
            });
            s.spawn(move || worker_loop(instance, policy, core, jobs, done, inline));
            job_tx
        })
        .collect();

    let mut resp = server.try_clone()?;
    let mut respond = |id: u64, fate: TerminalFate| {
        let outcome = match fate {
            TerminalFate::Completed { met, degraded } => WireOutcome::Completed { met, degraded },
            TerminalFate::Shed(r) => WireOutcome::Shed(r),
            TerminalFate::Failed => WireOutcome::Failed,
        };
        rt.frames_sent.inc();
        write_frame(&mut resp, &Message::Response(WireResponse { id, outcome }))
    };

    match wall {
        Some((clock, ns_per_tick)) => {
            // Reader thread feeds the server channel.
            s.spawn(move || {
                let mut reader = FrameReader::new(server);
                loop {
                    let msg = match reader.read_frame() {
                        Ok(Some(msg)) => ServerMsg::Frame(msg),
                        Ok(None) => ServerMsg::ReaderDone(Ok(())),
                        Err(e) => ServerMsg::ReaderDone(Err(e)),
                    };
                    let last = matches!(msg, ServerMsg::ReaderDone(_));
                    if tx.send(msg).is_err() || last {
                        return;
                    }
                }
            });
            run_wall(
                &mut engine,
                clock,
                ns_per_tick,
                &job_tx,
                rx,
                &rt,
                &mut respond,
            )?;
        }
        None => {
            drop(tx);
            // Pull the entire trace off the wire (every frame decoded and
            // digest-checked; a corrupt frame aborts the session — the
            // stream is self-authenticating, not self-healing), then
            // replay it through the engine's event loop.
            let mut reader = FrameReader::new(server);
            let mut arrivals = Vec::new();
            while let Some(msg) = reader.read_frame()? {
                if let Some(r) = count_frame(&rt, msg) {
                    arrivals.push((r.tick, r.to_request()));
                }
            }
            let execute = |job: &Job| {
                job_tx[job.worker].send(*job).map_err(|_| hung_up())?;
                match rx.recv() {
                    Ok(ServerMsg::Done(done)) => Ok(done.outcome),
                    _ => Err(hung_up()),
                }
            };
            engine.run(&arrivals, execute, &mut respond)?;
        }
    }

    // Stop the worker pool.
    drop(job_tx);
    let svc = engine.report(&registry);
    resp.close_write();
    Ok(RuntimeReport {
        svc,
        client: ClientTally::default(),
        frames_received: rt.frames_received.get(),
        frames_rejected: rt.frames_rejected.get(),
        sessions: rt.sessions.get(),
        wall_snapshot: registry.snapshot().render_text(Mode::WallClock),
    })
}
