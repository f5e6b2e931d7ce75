//! The real concurrent runtime front end: the virtual-tick
//! [`Service`] behind the wire protocol ([`crate::wire`]).
//!
//! # One engine, one clock
//!
//! The client writes the whole trace over the wire and closes. The
//! server decodes and authenticates every frame, over an in-process pipe
//! or loopback TCP, and counts them in the `svc.runtime.*` family of the
//! service's own registry. It then serves the decoded arrivals with
//! [`Service::serve`], the event loop [`Service::run`] runs, on the same
//! work-tick clock, and sends each terminal fate back as a response
//! frame the moment the request settles. What the runtime adds is real:
//! the frames, the transport, and the client threads that write the
//! trace and tally the responses. So the runtime's accounting equals the
//! sim's exactly — which is what lets CI re-run the real runtime three
//! times and demand byte-identical reports.

use std::io::{Read, Write};
use std::net::{Shutdown as NetShutdown, TcpListener, TcpStream};

use dams_core::{Instance, SelectionPolicy};
use dams_workload::ArrivalEvent;

use crate::obs::RuntimeMetrics;
use crate::service::{Service, SvcConfig, SvcReport};
use crate::wire::{
    duplex_pair, write_frame, DuplexEnd, FrameReader, Hello, Message, WireError, WireOutcome,
    WireRequest, WireResponse,
};
use crate::TerminalFate;

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

/// Decode the whole trace off the wire, then serve it through a
/// [`Service`], answering each terminal fate with a response frame.
fn run_server(
    instance: &Instance,
    policy: SelectionPolicy,
    cfg: &RuntimeConfig,
    server: Channel,
) -> Result<RuntimeReport, WireError> {
    let mut service = Service::new(instance, policy, cfg.svc);
    let rt = RuntimeMetrics::in_registry(service.registry());

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
    // self-authenticating, not self-healing), then serve it.
    let mut reader = FrameReader::new(server);
    let mut arrivals = Vec::new();
    while let Some(msg) = reader.read_frame()? {
        if let Some(r) = count_frame(&rt, msg) {
            arrivals.push((r.tick, r.to_request()));
        }
    }
    let svc = service.serve(&arrivals, respond)?;
    resp.close_write();
    Ok(RuntimeReport {
        svc,
        client: ClientTally::default(),
        frames_received: rt.frames_received.get(),
        frames_rejected: rt.frames_rejected.get(),
        sessions: rt.sessions.get(),
    })
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

        let mut report = run_server(instance, policy, cfg, server)?;
        writer.join().expect("client writer panicked")?;
        report.client = reader.join().expect("client reader panicked")?;
        Ok(report)
    })
}
