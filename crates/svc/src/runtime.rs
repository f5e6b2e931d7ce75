//! The real concurrent runtime front end: a worker thread behind the
//! service's admission/breaker semantics, driven over the wire protocol
//! ([`crate::wire`]).
//!
//! # One engine, one clock
//!
//! The server runs the crate's admission engine, the same one the
//! virtual-tick [`Service`](crate::service::Service) and the `Frontend`
//! run: arrival checks, class queues, the floored ladder and exact
//! grant, dispatch, settlement, breaker feedback, retries and hedges.
//! What the runtime adds is real: decoded and authenticated wire frames
//! over an in-process pipe or loopback TCP, and a worker thread.
//!
//! The client writes the whole trace over the wire and closes; the server
//! decodes and authenticates every frame, then replays the arrivals
//! through the engine's event loop on the work-tick clock, the same loop
//! [`Service::run`](crate::service::Service::run) runs. Each dispatched
//! job is a round trip to the worker thread, and it is settled before the
//! next event. A dispatch round never yields more than one job, because
//! the loop dispatches after every event and each event adds one arrival
//! or frees one worker. So at most one selection is in flight: one
//! thread runs every job while the engine models `cfg.svc.workers`
//! worker slots, and the runtime's accounting equals the sim's exactly —
//! which is what lets CI re-run the real runtime three times and demand
//! byte-identical reports.

use std::io::{Read, Write};
use std::net::{Shutdown as NetShutdown, TcpListener, TcpStream};
use std::sync::mpsc;

use dams_core::{Instance, SelectionPolicy};
use dams_obs::Registry;
use dams_workload::ArrivalEvent;

use crate::engine::{Engine, Job, Outcome, TerminalFate};
use crate::obs::RuntimeMetrics;
use crate::service::{self, SvcConfig, SvcReport};
use crate::wire::{
    duplex_pair, write_frame, DuplexEnd, FrameReader, Hello, Message, WireError, WireOutcome,
    WireRequest, WireResponse,
};

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
/// transport/session choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    pub svc: SvcConfig,
    pub transport: Transport,
    /// Wallet sessions the client opens (requests carry a tenant id;
    /// `trace.tenant` should stay below this).
    pub tenants: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            svc: SvcConfig::default(),
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
// Server
// ---------------------------------------------------------------------

fn hung_up() -> WireError {
    WireError::Io("worker thread hung up".into())
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
// Top-level runner
// ---------------------------------------------------------------------

/// Run the full client/server exchange for one trace and report both
/// sides (see the module docs).
pub fn run_runtime(
    instance: &Instance,
    policy: SelectionPolicy,
    cfg: &RuntimeConfig,
    trace: &[ArrivalEvent],
) -> Result<RuntimeReport, WireError> {
    let (client, server) = make_transport(cfg.transport)?;
    let tenants = cfg.tenants.max(1);

    std::thread::scope(|s| -> Result<RuntimeReport, WireError> {
        // Client writer: sessions, the trace, then shutdown.
        let writer_chan = client.try_clone()?;
        let writer = s.spawn(move || -> Result<(), WireError> {
            let mut w = writer_chan;
            for t in 0..tenants {
                write_frame(&mut w, &Message::Hello(Hello { tenant: t }))?;
            }
            for e in trace {
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

    // The worker thread: one job in, one outcome out. It exits when
    // `job_tx` drops at the end of this function.
    let (job_tx, jobs) = mpsc::channel::<Job>();
    let (done_tx, done) = mpsc::channel::<Outcome>();
    let core = engine.core.clone();
    s.spawn(move || {
        while let Ok(job) = jobs.recv() {
            let outcome = job.select(instance, None, policy, &core);
            if done_tx.send(outcome).is_err() {
                return;
            }
        }
    });

    let mut resp = server.try_clone()?;
    let respond = |id: u64, fate: TerminalFate| {
        let outcome = match fate {
            TerminalFate::Completed { met, degraded } => WireOutcome::Completed { met, degraded },
            TerminalFate::Shed(r) => WireOutcome::Shed(r),
            TerminalFate::Failed => WireOutcome::Failed,
        };
        rt.frames_sent.inc();
        write_frame(&mut resp, &Message::Response(WireResponse { id, outcome }))
    };

    // Pull the entire trace off the wire (every frame decoded and
    // digest-checked; a corrupt frame aborts the session — the stream is
    // self-authenticating, not self-healing), then replay it through the
    // engine's event loop.
    let mut reader = FrameReader::new(server);
    let mut arrivals = Vec::new();
    while let Some(msg) = reader.read_frame()? {
        if let Some(r) = count_frame(&rt, msg) {
            arrivals.push((r.tick, r.to_request()));
        }
    }
    let execute = |job: &Job| {
        job_tx.send(*job).map_err(|_| hung_up())?;
        done.recv().map_err(|_| hung_up())
    };
    engine.run(&arrivals, execute, respond)?;

    let svc = engine.report(&registry);
    resp.close_write();
    Ok(RuntimeReport {
        svc,
        client: ClientTally::default(),
        frames_received: rt.frames_received.get(),
        frames_rejected: rt.frames_rejected.get(),
        sessions: rt.sessions.get(),
    })
}
