//! Mapping live nodes' clocks onto the benchmark's clock.
//!
//! Each live driver stamps deliveries with the time since *its own* start.
//! The benchmark estimates, per node, the offset between that clock and
//! its own by asking the node for `now()` several times and keeping the
//! probe with the smallest round trip: the node read its clock somewhere
//! inside that round trip, so the midpoint is the best estimate and half
//! the round trip bounds the error.

/// One clock probe: benchmark time before the query, the node's reported
/// time, and benchmark time after the reply (all seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Benchmark clock when the query was sent.
    pub sent: f64,
    /// The node's clock as read on its driver thread.
    pub remote: f64,
    /// Benchmark clock when the reply arrived.
    pub received: f64,
}

impl Probe {
    /// Round-trip time of this probe.
    pub fn rtt(&self) -> f64 {
        self.received - self.sent
    }
}

/// A node's clock offset: `benchmark time = node time + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Offset {
    /// Seconds to add to a node timestamp.
    pub offset: f64,
    /// Half the round trip of the probe used: the error bound.
    pub error: f64,
}

impl Offset {
    /// Estimates the offset from the minimum-RTT probe. `None` when no
    /// probes were taken.
    pub fn from_probes(probes: &[Probe]) -> Option<Offset> {
        let best = probes.iter().min_by(|a, b| a.rtt().total_cmp(&b.rtt()))?;
        Some(Offset {
            offset: (best.sent + best.received) / 2.0 - best.remote,
            error: best.rtt() / 2.0,
        })
    }

    /// A node timestamp on the benchmark's clock.
    pub fn map(&self, node_time: f64) -> f64 {
        node_time + self.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_rtt_probe_wins() {
        // The node's clock started 2.5 s after the benchmark's. The slow
        // probe read the clock early in a long round trip; the fast one
        // is nearly symmetric.
        let probes = [
            Probe {
                sent: 10.0,
                remote: 7.5 + 0.0001,
                received: 10.0100,
            },
            Probe {
                sent: 11.0,
                remote: 8.500_005,
                received: 11.000_010,
            },
        ];
        let o = Offset::from_probes(&probes).unwrap();
        assert!((o.offset - 2.5).abs() < 1e-9, "offset {}", o.offset);
        assert!((o.error - 0.000_005).abs() < 1e-12);
        // A delivery stamped 9.0 on the node happened at 11.5 here.
        assert!((o.map(9.0) - 11.5).abs() < 1e-9);
    }

    #[test]
    fn true_offset_lies_within_the_error_bound() {
        let truth = -0.75;
        // Remote reads anywhere inside each round trip.
        let probes: Vec<Probe> = (0..20)
            .map(|i| {
                let sent = i as f64;
                let rtt = 0.001 + 0.0005 * ((i * 7) % 5) as f64;
                let read_at = sent + rtt * (((i * 3) % 4) as f64 / 4.0);
                Probe {
                    sent,
                    remote: read_at - truth,
                    received: sent + rtt,
                }
            })
            .collect();
        let o = Offset::from_probes(&probes).unwrap();
        assert!((o.offset - truth).abs() <= o.error + 1e-12);
        assert!(Offset::from_probes(&[]).is_none());
    }
}
