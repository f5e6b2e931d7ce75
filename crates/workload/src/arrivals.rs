//! The arrival trace: one request arrival per event, transport- and
//! service-neutral.
//!
//! The overload harness generates seeded open-loop arrival schedules
//! ([`crate::openloop`]). The sim-vs-real differential oracle serves one
//! such schedule on both sides: the virtual-tick service model takes it
//! as it is, and the real runtime takes the same arrivals as
//! [`ArrivalEvent`]s, which it encodes into wire frames. Neither side
//! reads text.
//!
//! [`render_trace`] writes a trace as a line-oriented TSV with a
//! versioned header, so a run's input can be saved next to its report
//! (`dams-cli serve --real --trace-out FILE`):
//!
//! ```text
//! dams-trace v1
//! # tick  id  tenant  target  class  budget  require_exact
//! 17      0   0       0       I      4096    0
//! 17      1   1       1       B      4096    1
//! ```
//!
//! Fields are tab-separated; `class` is `I` (interactive) or `B` (batch).

/// One request arrival, transport- and service-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalEvent {
    /// Virtual arrival tick (wall-clock replays scale this by the
    /// calibrated ns-per-tick).
    pub tick: u64,
    /// Caller-unique request id; terminal accounting is per id.
    pub id: u64,
    /// Wallet session the request belongs to.
    pub tenant: u64,
    /// Target token to build a ring for.
    pub target: u32,
    /// Interactive (wallet user waiting) vs batch traffic.
    pub interactive: bool,
    /// End-to-end deadline budget in virtual ticks.
    pub budget: u64,
    /// Refuse degraded answers (shed instead while the breaker is open).
    pub require_exact: bool,
}

const HEADER: &str = "dams-trace v1";

/// Render a trace to its canonical text form (see the module docs).
pub fn render_trace(events: &[ArrivalEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 24 + 64);
    out.push_str(HEADER);
    out.push('\n');
    out.push_str("# tick\tid\ttenant\ttarget\tclass\tbudget\trequire_exact\n");
    for e in events {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            e.tick,
            e.id,
            e.tenant,
            e.target,
            if e.interactive { "I" } else { "B" },
            e.budget,
            u8::from(e.require_exact),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ArrivalEvent> {
        (0..5)
            .map(|i| ArrivalEvent {
                tick: 10 * i + 1,
                id: i,
                tenant: i % 3,
                target: (i % 4) as u32,
                interactive: i % 2 == 0,
                budget: 4096 + i,
                require_exact: i == 3,
            })
            .collect()
    }

    #[test]
    fn round_trips_exactly() {
        // The exact text of a rendered trace: header, column comment, one
        // tab-separated row per event in order.
        let text = render_trace(&sample());
        assert_eq!(
            text,
            "dams-trace v1\n\
             # tick\tid\ttenant\ttarget\tclass\tbudget\trequire_exact\n\
             1\t0\t0\t0\tI\t4096\t0\n\
             11\t1\t1\t1\tB\t4097\t0\n\
             21\t2\t2\t2\tI\t4098\t0\n\
             31\t3\t0\t3\tB\t4099\t1\n\
             41\t4\t1\t0\tI\t4100\t0\n"
        );
        assert_eq!(render_trace(&[]), text[..text.find("\n1\t").unwrap() + 1]);
    }
}
