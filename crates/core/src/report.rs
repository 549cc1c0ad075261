//! Run reports: a serializable summary of one simulation run.
//!
//! A [`Report`] bundles everything needed to compare two runs offline:
//! network size, simulated time, the run digest (the same FNV-1a digest
//! the golden tests pin), per-event delivery aggregates, network
//! counters, the [`ProtoMetrics`](crate::metrics::ProtoMetrics) registry,
//! and — when a flight recorder was installed — the trace summary.
//!
//! [`Report::of_run`] assembles a report from any simulator run, so
//! HyperSub and every baseline emit the same shape. [`Report::to_json`]
//! builds a [`Json`] value and writes it with the crate's one JSON
//! codec, [`crate::json`]: one line per top-level field, one line per
//! counter and histogram. Its [`Report::from_json`] reads any document
//! of the same shape back. The digest is written as a hex *string*
//! (`"0x…"`) because a u64 exceeds the integer range that `f64`-based
//! JSON readers keep exactly.

use crate::digest::run_digest;
use crate::index::IndexDiag;
use crate::json::Json;
use crate::metrics::{EventStats, Metrics};
use crate::sim::Network;
use hypersub_simnet::{NetStats, Payload, Sim};

/// Aggregate delivery outcome over all published events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventSummary {
    /// Events published.
    pub published: u64,
    /// Ground-truth expected deliveries, summed over events.
    pub expected: u64,
    /// Distinct deliveries actually made, summed over events.
    pub delivered: u64,
    /// Duplicate deliveries observed (should be 0).
    pub duplicates: u64,
    /// Max hops over all deliveries.
    pub max_hops: u64,
    /// Max delivery latency over all events, in microseconds.
    pub max_latency_us: u64,
}

impl EventSummary {
    /// Aggregates per-event statistics into one summary. Shared by
    /// [`Network::report`] and the non-HyperSub systems of the shoot-out
    /// harness, so every system's report row is computed identically.
    pub fn from_stats(stats: &[EventStats]) -> Self {
        Self {
            published: stats.len() as u64,
            expected: stats.iter().map(|s| s.expected as u64).sum(),
            delivered: stats.iter().map(|s| s.delivered as u64).sum(),
            duplicates: stats.iter().map(|s| s.duplicates as u64).sum(),
            max_hops: stats.iter().map(|s| s.max_hops as u64).max().unwrap_or(0),
            max_latency_us: stats
                .iter()
                .map(|s| s.max_latency.as_micros())
                .max()
                .unwrap_or(0),
        }
    }
}

/// Network-level totals (from `hypersub_simnet::NetStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSummary {
    /// Messages sent.
    pub total_msgs: u64,
    /// Bytes sent.
    pub total_bytes: u64,
    /// Messages dropped at dead destinations.
    pub dropped: u64,
    /// Messages lost to probabilistic fault injection.
    pub fault_dropped: u64,
    /// Messages dropped by partitions.
    pub partition_dropped: u64,
    /// Duplicate copies injected by fault duplication.
    pub duplicated: u64,
}

impl NetSummary {
    /// Snapshots the global counters of a [`NetStats`].
    pub fn from_net(n: &NetStats) -> Self {
        Self {
            total_msgs: n.total_msgs(),
            total_bytes: n.total_bytes(),
            dropped: n.dropped(),
            fault_dropped: n.fault_dropped(),
            partition_dropped: n.partition_dropped(),
            duplicated: n.duplicated(),
        }
    }
}

/// One exported counter: a total plus the hottest node's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSummary {
    /// Sum over all nodes.
    pub total: u64,
    /// Largest single-node count.
    pub max_node: u64,
}

/// One exported histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Log2 bucket counts (trailing zeros trimmed).
    pub buckets: Vec<u64>,
}

/// Flight-recorder summary, present when recording was enabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Ring-buffer capacity.
    pub capacity: u64,
    /// Events recorded over the run (including evicted ones).
    pub recorded: u64,
    /// Events evicted by the ring bound.
    pub evicted: u64,
    /// Retained-event counts per kind, sorted by kind.
    pub kinds: Vec<(String, u64)>,
}

/// A serializable summary of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Number of nodes.
    pub nodes: u64,
    /// Final simulated time, in microseconds.
    pub time_us: u64,
    /// Simulator events processed.
    pub steps: u64,
    /// The run digest (delivery trace + network counters).
    pub digest: u64,
    /// Delivery aggregates.
    pub events: EventSummary,
    /// Network totals.
    pub net: NetSummary,
    /// Named protocol counters, in registry order.
    pub counters: Vec<(String, CounterSummary)>,
    /// Named protocol histograms, in registry order.
    pub histograms: Vec<(String, HistSummary)>,
    /// Trace summary when a flight recorder was installed.
    pub trace: Option<TraceSummary>,
}

impl CounterSummary {
    /// Total and hottest node of a per-node count.
    pub fn over(per_node: impl IntoIterator<Item = u64>) -> Self {
        per_node.into_iter().fold(Self::default(), |s, v| Self {
            total: s.total + v,
            max_node: s.max_node.max(v),
        })
    }
}

impl Network {
    /// Snapshots this run into a [`Report`]. Besides the shared
    /// registry, the counters carry matching-index occupancy summed over
    /// every node's zone repos. The ratio registrations/entries is the
    /// *duplication factor* the hotpath bench prints; exporting both
    /// sides lets `report diff` guard its drift between pinned runs (and
    /// cap it in CI). `bytes` is resident index memory,
    /// `covering_collapsed` the entries absorbed under a coverer,
    /// `candidates_scanned` the cumulative verification probes indexed
    /// queries performed.
    pub fn report(&self) -> Report {
        let diags: Vec<IndexDiag> = self.nodes().iter().map(|n| n.index_diag()).collect();
        let index = |field: fn(&IndexDiag) -> u64| CounterSummary::over(diags.iter().map(field));
        Report::of_run(
            &self.sim,
            self.metrics(),
            self.sim.world().oracle.len(),
            [
                ("index.entries", index(|d| d.entries)),
                ("index.registrations", index(|d| d.registrations)),
                ("index.bytes", index(|d| d.bytes)),
                ("index.covering_collapsed", index(|d| d.covering_collapsed)),
                ("index.candidates_scanned", index(|d| d.candidates_scanned)),
            ],
        )
    }
}

impl Report {
    /// Assembles the report of a run on `sim` whose world keeps
    /// `metrics` and an oracle of `subscriptions` subscriptions. The
    /// counters are the shared [`ProtoMetrics`](crate::metrics::ProtoMetrics)
    /// registry followed by the system's own `extra` counters, in order.
    /// [`Network::report`] and the baselines' `BaselineNet::report` both
    /// build their reports here, so every system's report has one shape.
    pub fn of_run<N, M: Payload, W>(
        sim: &Sim<N, M, W>,
        metrics: &Metrics,
        subscriptions: usize,
        extra: impl IntoIterator<Item = (&'static str, CounterSummary)>,
    ) -> Report {
        let proto = &metrics.proto;
        let counters = proto
            .counters()
            .iter()
            .map(|&(name, c)| {
                (
                    name,
                    CounterSummary {
                        total: c.total(),
                        max_node: c.max(),
                    },
                )
            })
            .chain(extra)
            .map(|(name, c)| (name.to_string(), c))
            .collect();
        let histograms = proto
            .histograms()
            .iter()
            .map(|&(name, h)| {
                (
                    name.to_string(),
                    HistSummary {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        buckets: h.buckets().to_vec(),
                    },
                )
            })
            .collect();
        let trace = sim.recorder().map(|r| TraceSummary {
            capacity: r.capacity() as u64,
            recorded: r.recorded(),
            evicted: r.evicted(),
            kinds: r
                .kind_counts()
                .into_iter()
                .map(|(k, c)| (k.to_string(), c))
                .collect(),
        });
        Report {
            nodes: sim.len() as u64,
            time_us: sim.time().as_micros(),
            steps: sim.steps(),
            digest: run_digest(metrics.deliveries(), sim.net()),
            events: EventSummary::from_stats(&metrics.event_stats(subscriptions, sim.net())),
            net: NetSummary::from_net(sim.net()),
            counters,
            histograms,
            trace,
        }
    }

    /// Total of the named counter, or 0 when the report predates it —
    /// keeps old baselines comparable as the counter registry grows.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.total)
            .unwrap_or(0)
    }

    /// Serializes to a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let e = &self.events;
        let n = &self.net;
        let counters = self.counters.iter().map(|(name, c)| {
            let c = Json::object([("total", c.total.into()), ("max_node", c.max_node.into())]);
            (name.as_str(), c)
        });
        let histograms = self.histograms.iter().map(|(name, h)| {
            let buckets = h.buckets.iter().map(|&b| b.into()).collect();
            let h = Json::object([
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("max", h.max.into()),
                ("buckets", Json::Arr(buckets)),
            ]);
            (name.as_str(), h)
        });
        let trace = match &self.trace {
            None => Json::Null,
            Some(t) => Json::object([
                ("capacity", t.capacity.into()),
                ("recorded", t.recorded.into()),
                ("evicted", t.evicted.into()),
                (
                    "kinds",
                    Json::object(t.kinds.iter().map(|(k, c)| (k.as_str(), (*c).into()))),
                ),
            ]),
        };
        Json::object([
            ("version", 1.into()),
            ("nodes", self.nodes.into()),
            ("time_us", self.time_us.into()),
            ("steps", self.steps.into()),
            ("digest", Json::hex(self.digest)),
            (
                "events",
                Json::object([
                    ("published", e.published.into()),
                    ("expected", e.expected.into()),
                    ("delivered", e.delivered.into()),
                    ("duplicates", e.duplicates.into()),
                    ("max_hops", e.max_hops.into()),
                    ("max_latency_us", e.max_latency_us.into()),
                ]),
            ),
            (
                "net",
                Json::object([
                    ("total_msgs", n.total_msgs.into()),
                    ("total_bytes", n.total_bytes.into()),
                    ("dropped", n.dropped.into()),
                    ("fault_dropped", n.fault_dropped.into()),
                    ("partition_dropped", n.partition_dropped.into()),
                    ("duplicated", n.duplicated.into()),
                ]),
            ),
            ("counters", Json::object(counters)),
            ("histograms", Json::object(histograms)),
            ("trace", trace),
        ])
        .write()
    }

    /// Parses a document produced by [`Report::to_json`] (any JSON with
    /// the same shape works — field order and whitespace are free).
    ///
    /// # Errors
    /// A human-readable description of the first syntax or shape problem.
    pub fn from_json(s: &str) -> Result<Report, String> {
        let top = Json::parse(s)?;
        let events = top.get("events")?;
        let net = top.get("net")?;
        let counters = named(top.get("counters")?, |c| {
            Ok(CounterSummary {
                total: num(c, "total")?,
                max_node: num(c, "max_node")?,
            })
        })?;
        let histograms = named(top.get("histograms")?, |h| {
            let buckets = h.get("buckets")?.as_arr()?.iter().map(Json::as_num);
            Ok(HistSummary {
                count: num(h, "count")?,
                sum: num(h, "sum")?,
                max: num(h, "max")?,
                buckets: buckets.collect::<Result<_, _>>()?,
            })
        })?;
        let trace = match top.get("trace")? {
            Json::Null => None,
            t => Some(TraceSummary {
                capacity: num(t, "capacity")?,
                recorded: num(t, "recorded")?,
                evicted: num(t, "evicted")?,
                kinds: named(t.get("kinds")?, Json::as_num)?,
            }),
        };
        Ok(Report {
            nodes: num(&top, "nodes")?,
            time_us: num(&top, "time_us")?,
            steps: num(&top, "steps")?,
            digest: top.get("digest")?.as_hex()?,
            events: EventSummary {
                published: num(events, "published")?,
                expected: num(events, "expected")?,
                delivered: num(events, "delivered")?,
                duplicates: num(events, "duplicates")?,
                max_hops: num(events, "max_hops")?,
                max_latency_us: num(events, "max_latency_us")?,
            },
            net: NetSummary {
                total_msgs: num(net, "total_msgs")?,
                total_bytes: num(net, "total_bytes")?,
                dropped: num(net, "dropped")?,
                fault_dropped: num(net, "fault_dropped")?,
                partition_dropped: num(net, "partition_dropped")?,
                duplicated: num(net, "duplicated")?,
            },
            counters,
            histograms,
            trace,
        })
    }
}

/// The `u64` member `key` of object `obj`.
fn num(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)?.as_num().map_err(|e| format!("{key}: {e}"))
}

/// The members of object `obj`, each value converted by `read`.
fn named<T>(
    obj: &Json,
    read: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<(String, T)>, String> {
    let member =
        |(k, v): &(String, Json)| Ok((k.clone(), read(v).map_err(|e| format!("{k}: {e}"))?));
    obj.as_obj()?.iter().map(member).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            nodes: 16,
            time_us: 123_456,
            steps: 789,
            digest: 0xdead_beef_cafe_f00d,
            events: EventSummary {
                published: 10,
                expected: 20,
                delivered: 20,
                duplicates: 0,
                max_hops: 5,
                max_latency_us: 91_000,
            },
            net: NetSummary {
                total_msgs: 400,
                total_bytes: 123_000,
                dropped: 1,
                fault_dropped: 2,
                partition_dropped: 3,
                duplicated: 4,
            },
            counters: vec![
                (
                    "retry.attempts".into(),
                    CounterSummary {
                        total: 7,
                        max_node: 3,
                    },
                ),
                (
                    "lb.migrated_subs".into(),
                    CounterSummary {
                        total: 0,
                        max_node: 0,
                    },
                ),
            ],
            histograms: vec![(
                "delivery.fanout".into(),
                HistSummary {
                    count: 12,
                    sum: 30,
                    max: 6,
                    buckets: vec![0, 4, 6, 2],
                },
            )],
            trace: Some(TraceSummary {
                capacity: 4096,
                recorded: 5000,
                evicted: 904,
                kinds: vec![("net.deliver".into(), 2000), ("net.send".into(), 2096)],
            }),
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let r = sample();
        let parsed = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_round_trip_without_trace() {
        let r = Report {
            trace: None,
            ..sample()
        };
        let parsed = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert!(r.to_json().contains("\"trace\": null"));
    }

    #[test]
    fn digest_survives_as_hex_string() {
        // 0xdead_beef_cafe_f00d > 2^53: a float round-trip would corrupt
        // it, the hex-string encoding must not.
        let r = sample();
        assert!(r.to_json().contains("\"digest\": \"0xdeadbeefcafef00d\""));
        assert_eq!(
            Report::from_json(&r.to_json()).unwrap().digest,
            0xdead_beef_cafe_f00d
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("{").is_err());
        assert!(Report::from_json("{}").is_err(), "missing fields");
        assert!(Report::from_json("{} garbage").is_err());
        let truncated = &sample().to_json()[..100];
        assert!(Report::from_json(truncated).is_err());
    }

    #[test]
    fn escaped_names_round_trip() {
        let mut r = sample();
        r.counters.push((
            "weird\"name\\with\nescapes".into(),
            CounterSummary {
                total: 1,
                max_node: 1,
            },
        ));
        assert_eq!(Report::from_json(&r.to_json()).unwrap(), r);
    }
}
