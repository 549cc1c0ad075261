//! The baseline shoot-out: five pub/sub systems, one deterministic
//! comparison harness.
//!
//! The paper's central claim is comparative — HyperSub beats
//! rendezvous-point and attribute-range DHT designs on load concentration
//! and installation cost (§2, §5). This crate turns the repo into the
//! apparatus that can actually produce that comparison. A [`System`]
//! abstracts "build a network, install the workload's subscriptions,
//! publish its events, emit a [`Report`]", and five implementations run
//! over the **same** seeded workload stream and the **same** Chord
//! substrate:
//!
//! * `hypersub` — the paper's system (`hypersub_core::sim::Network`).
//! * `rendezvous` — Ferry-style single rendezvous point.
//! * `attr_ring` — attribute-range replication on the ring (DEBS'04).
//! * `subgroup` — subscription subgrouping (after arXiv 1611.08743).
//! * `gossip` — flood-to-all-brokers strawman (after arXiv 2207.06369).
//!
//! ## Fairness rules
//!
//! Every system sees identical inputs:
//!
//! 1. **Same substrate.** `NetworkBuilder::build` and
//!    `BaselineNetBuilder::build_with` both derive the King-like
//!    topology, ring ids, and simulator RNG from the master seed with
//!    the one function [`hypersub_core::sim::Substrate::derive`], so node
//!    `i` has the same Chord id and the same link latencies everywhere.
//! 2. **Same workload.** One `WorkloadGen` per run, seeded `seed ^
//!    0xabcd`, consumed in the same call order: all subscriptions
//!    (node-major), then per event `random_node`, `event_point`,
//!    `interarrival`.
//! 3. **Same cost model.** Wire sizes come from the shared
//!    `hypersub_core::msg` constants (header 20 B, event 100 B, SubID
//!    9 B), pinned by `tests/wire_golden.rs`.
//!
//! The delivery-equivalence oracle is exact but compares *canonical*
//! relations: raw [`SubId`]s are not stable across systems (HyperSub's
//! per-node iid counter also numbers zone repositories and hosted
//! migrations, so a subscribing node that stores a zone repo interleaves
//! those allocations with its local subscription iids). Every driver
//! therefore records the `SubId` each `subscribe` call returns, in the
//! shared workload order; subscription *k* of the run is ordinal *k* in
//! every system, and cross-system equivalence demands the identical
//! event → ordinal relation. Within one system the raw
//! delivered-equals-expected check still runs on `SubId`s.

use hypersub_baselines::attr_ring::AttrRingNode;
use hypersub_baselines::common::{BaselineNetBuilder, BaselineNode};
use hypersub_baselines::gossip::GossipNode;
use hypersub_baselines::rendezvous::RendezvousNode;
use hypersub_baselines::subgroup::SubgroupNode;
use hypersub_chord::ChordState;
use hypersub_core::config::SystemConfig;
use hypersub_core::error::Result;
use hypersub_core::json::Json;
use hypersub_core::metrics::EventStats;
use hypersub_core::model::{Registry, SubId};
use hypersub_core::report::Report;
use hypersub_core::sim::{Network, TopologyKind};
use hypersub_lph::Point;
use hypersub_simnet::SimTime;
use hypersub_stats::{LoadDist, Table};
use hypersub_workload::{WorkloadGen, WorkloadSpec};
use std::collections::HashMap;
use std::time::Instant;

/// One rung of the size ladder: (nodes, subs per node, events).
pub type Rung = (usize, usize, usize);

/// Quick tier: the 1k-node smoke rung CI runs on every push.
pub const QUICK_LADDER: &[Rung] = &[(1_000, 4, 200)];

/// Full tier: the 512/8k/32k rungs `run_experiments.sh` runs. The 512
/// rung is the §2 comparison EXPERIMENTS.md reports; the 32k rung
/// scales subscriptions and events down to keep the attribute-ring
/// system's O(arc-length) installation within a workstation budget.
pub const FULL_LADDER: &[Rung] = &[(512, 6, 2_000), (8_000, 4, 800), (32_000, 2, 400)];

/// Parameters of one shoot-out run (one system × one rung).
#[derive(Debug, Clone)]
pub struct ShootoutParams {
    /// Network size.
    pub nodes: usize,
    /// Master seed (substrate and workload derive from it).
    pub seed: u64,
    /// Target mean RTT of the King-like topology.
    pub mean_rtt: SimTime,
    /// The workload (Table 1 shape; `subs_per_node`/`events` set by the
    /// rung).
    pub spec: WorkloadSpec,
}

impl ShootoutParams {
    /// Builds parameters for one rung of the ladder.
    pub fn new(rung: Rung, seed: u64) -> Self {
        let (nodes, subs_per_node, events) = rung;
        let mut spec = WorkloadSpec::paper_table1();
        spec.subs_per_node = subs_per_node;
        spec.events = events;
        Self {
            nodes,
            seed,
            mean_rtt: SimTime::from_millis(180),
            spec,
        }
    }
}

/// The outcome of running one system on one rung.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// System name.
    pub system: &'static str,
    /// Network size.
    pub nodes: usize,
    /// Subscriptions per node.
    pub subs_per_node: usize,
    /// Events published.
    pub events: usize,
    /// Full observability report (digest, counters, histograms).
    pub report: Report,
    /// Per-event statistics.
    pub event_stats: Vec<EventStats>,
    /// Distinct `(event, subscriber)` pairs actually delivered, sorted.
    pub delivered: Vec<(u64, SubId)>,
    /// Ground-truth `(event, subscriber)` pairs, sorted.
    pub expected: Vec<(u64, SubId)>,
    /// The `SubId` each `subscribe` call returned, in workload order.
    /// Index *k* is subscription ordinal *k*; because every system
    /// consumes the same workload stream, ordinals align across systems
    /// even where raw iid numbering does not.
    pub sub_ids: Vec<SubId>,
    /// Per-node stored-entry loads.
    pub loads: Vec<u64>,
    /// Messages spent before the first event (subscription installation).
    pub install_msgs: u64,
    /// Installation bytes.
    pub install_bytes: u64,
    /// Wall-clock duration of the run (non-deterministic; excluded from
    /// digests and comparisons).
    pub wall_secs: f64,
}

impl SystemRun {
    /// Whether this run delivered exactly the ground-truth relation.
    pub fn equivalent(&self) -> bool {
        self.delivered == self.expected
    }

    /// Rewrites an `(event, SubId)` relation into the system-independent
    /// `(event, subscription ordinal)` form, using this run's
    /// [`SystemRun::sub_ids`]. A pair whose `SubId` was never returned by
    /// a `subscribe` call maps to `u32::MAX` (it cannot match any other
    /// system's relation, so it surfaces as an equivalence failure rather
    /// than being silently dropped).
    fn canonicalize(&self, pairs: &[(u64, SubId)]) -> Vec<(u64, u32)> {
        let ordinals: HashMap<SubId, u32> = self
            .sub_ids
            .iter()
            .enumerate()
            .map(|(k, &sid)| (sid, k as u32))
            .collect();
        let mut out: Vec<(u64, u32)> = pairs
            .iter()
            .map(|&(ev, sid)| (ev, ordinals.get(&sid).copied().unwrap_or(u32::MAX)))
            .collect();
        out.sort_unstable();
        out
    }

    /// The delivered relation in canonical `(event, ordinal)` form.
    pub fn delivered_canonical(&self) -> Vec<(u64, u32)> {
        self.canonicalize(&self.delivered)
    }

    /// The ground-truth relation in canonical `(event, ordinal)` form.
    pub fn expected_canonical(&self) -> Vec<(u64, u32)> {
        self.canonicalize(&self.expected)
    }

    /// Per-node load distribution summary.
    pub fn load_dist(&self) -> LoadDist {
        LoadDist::from_loads(&self.loads)
    }

    /// Mean of per-event max hops.
    pub fn avg_max_hops(&self) -> f64 {
        mean(self.event_stats.iter().map(|e| e.max_hops as f64))
    }

    /// Mean of per-event max delivery latency, in milliseconds.
    pub fn avg_max_latency_ms(&self) -> f64 {
        mean(
            self.event_stats
                .iter()
                .map(|e| e.max_latency.as_millis_f64()),
        )
    }

    /// Mean per-node stored-entry load.
    pub fn load_mean(&self) -> f64 {
        mean(self.loads.iter().map(|&l| l as f64))
    }

    /// Max hops over all deliveries.
    pub fn max_hops(&self) -> u32 {
        self.event_stats
            .iter()
            .map(|e| e.max_hops)
            .max()
            .unwrap_or(0)
    }

    /// Bytes spent after installation (event routing + delivery).
    pub fn event_bytes(&self) -> u64 {
        self.report
            .net
            .total_bytes
            .saturating_sub(self.install_bytes)
    }

    /// Event-phase bytes per published event.
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.event_bytes() as f64 / self.events as f64
    }

    /// Simulator events processed per wall-clock second
    /// (non-deterministic; reported for throughput context only).
    pub fn sim_events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.report.steps as f64 / self.wall_secs
    }
}

/// A pub/sub system the shoot-out can run: build a network on the shared
/// substrate, install the shared workload, publish its events, and
/// report. Implementations must follow the crate-level fairness rules.
pub trait System {
    /// Short machine-readable name (JSON key, CLI argument).
    fn name(&self) -> &'static str;

    /// Runs the system once with the given parameters.
    fn run(&self, p: &ShootoutParams) -> Result<SystemRun>;
}

/// All five systems, in canonical order (HyperSub first).
pub fn all_systems() -> Vec<Box<dyn System>> {
    vec![
        Box::new(HyperSubSystem),
        Box::new(RendezvousSystem),
        Box::new(AttrRingSystem),
        Box::new(SubgroupSystem),
        Box::new(GossipSystem),
    ]
}

/// Looks a system up by its [`System::name`].
pub fn system_by_name(name: &str) -> Option<Box<dyn System>> {
    all_systems().into_iter().find(|s| s.name() == name)
}

/// The paper's system, driven through `Network`.
pub struct HyperSubSystem;

impl System for HyperSubSystem {
    fn name(&self) -> &'static str {
        "hypersub"
    }

    fn run(&self, p: &ShootoutParams) -> Result<SystemRun> {
        let start = Instant::now();
        let registry = Registry::new(vec![p.spec.scheme_def(0)]);
        let mut net = Network::builder(p.nodes)
            .registry(registry)
            .config(SystemConfig::default())
            .topology(TopologyKind::KingLike(p.mean_rtt))
            .seed(p.seed)
            .build()?;
        let mut gen = WorkloadGen::new(p.spec.clone(), p.seed ^ 0xabcd);
        let mut sub_ids = Vec::with_capacity(p.nodes * p.spec.subs_per_node);
        for node in 0..p.nodes {
            for _ in 0..p.spec.subs_per_node {
                sub_ids.push(net.subscribe(node, 0, gen.subscription()));
            }
        }
        net.run_to_quiescence();
        let install_msgs = net.net().total_msgs();
        let install_bytes = net.net().total_bytes();
        let mut published: Vec<(u64, Point)> = Vec::with_capacity(p.spec.events);
        let mut t = net.time() + SimTime::from_secs(1);
        for _ in 0..p.spec.events {
            let node = gen.random_node(p.nodes);
            let point = gen.event_point();
            let id = net.schedule_publish(t, node, 0, point.clone())?;
            published.push((id, point));
            t += gen.interarrival();
        }
        net.run_to_quiescence();
        let expected = expected_pairs(&published, |pt| net.expected_matches(0, pt));
        let delivered = delivered_pairs(net.deliveries());
        Ok(SystemRun {
            system: self.name(),
            nodes: p.nodes,
            subs_per_node: p.spec.subs_per_node,
            events: p.spec.events,
            report: net.report(),
            event_stats: net.event_stats(),
            delivered,
            expected,
            sub_ids,
            loads: net.node_loads(),
            install_msgs,
            install_bytes,
            wall_secs: start.elapsed().as_secs_f64(),
        })
    }
}

/// Shared driver for every [`BaselineNode`] system: identical phase
/// structure and workload call order to the HyperSub driver above.
fn drive_baseline<N, F>(name: &'static str, p: &ShootoutParams, make: F) -> Result<SystemRun>
where
    N: BaselineNode,
    F: FnMut(ChordState) -> N,
{
    let start = Instant::now();
    let mut net = BaselineNetBuilder::new(p.nodes)
        .seed(p.seed)
        .topology(TopologyKind::KingLike(p.mean_rtt))
        .build_with(make)?;
    let mut gen = WorkloadGen::new(p.spec.clone(), p.seed ^ 0xabcd);
    let mut sub_ids = Vec::with_capacity(p.nodes * p.spec.subs_per_node);
    for node in 0..p.nodes {
        for _ in 0..p.spec.subs_per_node {
            sub_ids.push(net.subscribe(node, gen.subscription())?);
        }
    }
    net.run_to_quiescence();
    let install_msgs = net.net().total_msgs();
    let install_bytes = net.net().total_bytes();
    let mut published: Vec<(u64, Point)> = Vec::with_capacity(p.spec.events);
    let mut t = net.time() + SimTime::from_secs(1);
    for _ in 0..p.spec.events {
        let node = gen.random_node(p.nodes);
        let point = gen.event_point();
        let id = net.schedule_publish(t, node, point.clone())?;
        published.push((id, point));
        t += gen.interarrival();
    }
    net.run_to_quiescence();
    let expected = expected_pairs(&published, |pt| net.expected_matches(pt));
    let delivered = delivered_pairs(net.deliveries());
    Ok(SystemRun {
        system: name,
        nodes: p.nodes,
        subs_per_node: p.spec.subs_per_node,
        events: p.spec.events,
        report: net.report(),
        event_stats: net.event_stats(),
        delivered,
        expected,
        sub_ids,
        loads: net.node_loads(),
        install_msgs,
        install_bytes,
        wall_secs: start.elapsed().as_secs_f64(),
    })
}

/// Arithmetic mean, 0 for no samples.
fn mean(samples: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = samples.fold((0usize, 0.0), |(n, sum), x| (n + 1, sum + x));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn expected_pairs(
    published: &[(u64, Point)],
    mut matches: impl FnMut(&Point) -> Vec<SubId>,
) -> Vec<(u64, SubId)> {
    let mut pairs = Vec::new();
    for (id, point) in published {
        for sid in matches(point) {
            pairs.push((*id, sid));
        }
    }
    pairs.sort_unstable();
    pairs
}

fn delivered_pairs(deliveries: &[hypersub_core::metrics::DeliveryRecord]) -> Vec<(u64, SubId)> {
    let mut pairs: Vec<(u64, SubId)> = deliveries.iter().map(|d| (d.event, d.subid)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Ferry-style single rendezvous point.
pub struct RendezvousSystem;

impl System for RendezvousSystem {
    fn name(&self) -> &'static str {
        "rendezvous"
    }

    fn run(&self, p: &ShootoutParams) -> Result<SystemRun> {
        let scheme = p.spec.scheme_name.clone();
        drive_baseline(self.name(), p, |st| RendezvousNode::new(st, &scheme))
    }
}

/// Attribute-range replication on the ring.
pub struct AttrRingSystem;

impl System for AttrRingSystem {
    fn name(&self) -> &'static str {
        "attr_ring"
    }

    fn run(&self, p: &ShootoutParams) -> Result<SystemRun> {
        let scheme = p.spec.scheme_name.clone();
        let space = p.spec.scheme_def(0).space.clone();
        drive_baseline(self.name(), p, |st| {
            AttrRingNode::new(st, &scheme, space.clone())
        })
    }
}

/// Subscription subgrouping (arXiv 1611.08743 style).
pub struct SubgroupSystem;

impl System for SubgroupSystem {
    fn name(&self) -> &'static str {
        "subgroup"
    }

    fn run(&self, p: &ShootoutParams) -> Result<SystemRun> {
        let scheme = p.spec.scheme_name.clone();
        let space = p.spec.scheme_def(0).space.clone();
        drive_baseline(self.name(), p, |st| {
            SubgroupNode::new(st, &scheme, space.clone())
        })
    }
}

/// Flood-to-all-brokers strawman (SmartPubSub style).
pub struct GossipSystem;

impl System for GossipSystem {
    fn name(&self) -> &'static str {
        "gossip"
    }

    fn run(&self, p: &ShootoutParams) -> Result<SystemRun> {
        drive_baseline(self.name(), p, GossipNode::new)
    }
}

/// All systems' results on one rung, plus the equivalence verdict.
#[derive(Debug)]
pub struct RungOutcome {
    /// The rung that ran.
    pub rung: Rung,
    /// One result per system, in run order.
    pub runs: Vec<SystemRun>,
    /// Human-readable equivalence failures; empty means the oracle
    /// passed for every system.
    pub failures: Vec<String>,
}

impl RungOutcome {
    /// Whether the delivery-equivalence oracle passed everywhere.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `systems` on one rung and checks the delivery-equivalence
/// oracle: every system must deliver exactly its own ground truth, with
/// zero duplicates, and all systems' `(event, subscriber)` relations
/// must be identical.
pub fn run_rung(systems: &[Box<dyn System>], rung: Rung, seed: u64) -> Result<RungOutcome> {
    let p = ShootoutParams::new(rung, seed);
    let mut runs = Vec::with_capacity(systems.len());
    for s in systems {
        runs.push(s.run(&p)?);
    }
    let mut failures = Vec::new();
    for r in &runs {
        if !r.equivalent() {
            failures.push(format!(
                "{}: delivered {} pairs, ground truth {}",
                r.system,
                r.delivered.len(),
                r.expected.len()
            ));
        }
        let dups: usize = r.event_stats.iter().map(|e| e.duplicates).sum();
        if dups > 0 {
            failures.push(format!("{}: {dups} duplicate deliveries", r.system));
        }
    }
    // Cross-system comparison runs on the canonical (event, ordinal)
    // form — raw SubIds legitimately differ (see crate docs).
    if let Some(first) = runs.first() {
        let first_expected = first.expected_canonical();
        let first_delivered = first.delivered_canonical();
        for r in &runs[1..] {
            if r.expected_canonical() != first_expected {
                failures.push(format!(
                    "{}: ground-truth relation differs from {} (substrate divergence)",
                    r.system, first.system
                ));
            }
            if r.delivered_canonical() != first_delivered {
                failures.push(format!(
                    "{}: delivered relation differs from {}",
                    r.system, first.system
                ));
            }
        }
    }
    Ok(RungOutcome {
        rung,
        runs,
        failures,
    })
}

/// Renders the unified `SHOOTOUT.json` document. Everything in it is
/// deterministic for a fixed seed except each run's `"timing"` object
/// (wall-clock throughput), which exists for context and is ignored by
/// [`digests_from_json`] comparisons.
pub fn shootout_json(seed: u64, tier: &str, outcomes: &[RungOutcome]) -> String {
    let runs = outcomes.iter().flat_map(|o| &o.runs).map(|r| {
        let load = r.load_dist();
        let dups: usize = r.event_stats.iter().map(|e| e.duplicates).sum();
        let count = |n: usize| Json::from(n as u64);
        let real = |v: f64| Json::fixed(v, 6);
        Json::object([
            ("system", Json::str(r.system)),
            ("nodes", count(r.nodes)),
            ("subs_per_node", count(r.subs_per_node)),
            ("events", count(r.events)),
            ("digest", Json::hex(r.report.digest)),
            ("equivalence", Json::Bool(r.equivalent())),
            ("expected_pairs", count(r.expected.len())),
            ("delivered_pairs", count(r.delivered.len())),
            ("duplicates", count(dups)),
            ("avg_max_hops", real(r.avg_max_hops())),
            ("max_hops", u64::from(r.max_hops()).into()),
            ("install_msgs", r.install_msgs.into()),
            ("install_bytes", r.install_bytes.into()),
            ("total_msgs", r.report.net.total_msgs.into()),
            ("total_bytes", r.report.net.total_bytes.into()),
            ("bytes_per_event", real(r.bytes_per_event())),
            (
                "load",
                Json::object([
                    ("p50", real(load.p50)),
                    ("p99", real(load.p99)),
                    ("max", real(load.max)),
                    ("gini", real(load.gini)),
                ]),
            ),
            (
                "timing",
                Json::object([
                    ("wall_secs", real(r.wall_secs)),
                    ("sim_events_per_sec", real(r.sim_events_per_sec())),
                ]),
            ),
        ])
    });
    Json::object([
        ("version", 1.into()),
        ("seed", seed.into()),
        ("tier", Json::str(tier)),
        (
            "equivalence_ok",
            Json::Bool(outcomes.iter().all(|o| o.ok())),
        ),
        ("runs", Json::Arr(runs.collect())),
    ])
    .write()
}

/// Extracts the deterministic `(system, nodes, digest)` triples from a
/// `SHOOTOUT.json` document, for digest-drift comparison against a
/// pinned reference.
///
/// # Errors
/// When `doc` is not JSON or a run lacks one of the three fields.
pub fn digests_from_json(doc: &str) -> std::result::Result<Vec<(String, u64, String)>, String> {
    Json::parse(doc)?
        .get("runs")?
        .as_arr()?
        .iter()
        .map(|r| {
            Ok((
                r.get("system")?.as_str()?.to_string(),
                r.get("nodes")?.as_num()?,
                r.get("digest")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// Compares the digests of the `SHOOTOUT.json` document `doc` against a
/// pinned `reference`; returns one description per drifted or missing
/// run.
///
/// # Errors
/// When either document does not parse, or `reference` lists no runs
/// (a reference that pins nothing would pass any run).
pub fn digest_drift(doc: &str, reference: &str) -> std::result::Result<Vec<String>, String> {
    let got = digests_from_json(doc).map_err(|e| format!("this run: {e}"))?;
    let want = digests_from_json(reference).map_err(|e| format!("reference: {e}"))?;
    if want.is_empty() {
        return Err("reference lists no runs".to_string());
    }
    let mut drift = Vec::new();
    for (sys, nodes, d) in &want {
        match got.iter().find(|(s, n, _)| s == sys && n == nodes) {
            Some((_, _, g)) if g == d => {}
            Some((_, _, g)) => drift.push(format!("{sys} @ {nodes} nodes: digest {g}, pinned {d}")),
            None => drift.push(format!("{sys} @ {nodes} nodes: missing from this run")),
        }
    }
    Ok(drift)
}

/// Renders one rung's side-by-side comparison table.
pub fn render_table(outcome: &RungOutcome) -> Table {
    let (nodes, subs_per_node, events) = outcome.rung;
    let mut t = Table::new(
        format!("Shoot-out: {nodes} nodes, {subs_per_node} subs/node, {events} events"),
        &[
            "system",
            "equiv",
            "avg max hops",
            "avg max latency (ms)",
            "install msgs",
            "KB/event",
            "load mean",
            "load p50",
            "load p99",
            "load max",
            "gini",
            "sim ev/s",
        ],
    );
    for r in &outcome.runs {
        let load = r.load_dist();
        t.row(&[
            r.system.to_string(),
            if r.equivalent() { "yes" } else { "NO" }.to_string(),
            format!("{:.1}", r.avg_max_hops()),
            format!("{:.0}", r.avg_max_latency_ms()),
            r.install_msgs.to_string(),
            format!("{:.1}", r.bytes_per_event() / 1024.0),
            format!("{:.1}", r.load_mean()),
            format!("{:.0}", load.p50),
            format!("{:.0}", load.p99),
            format!("{:.0}", load.max),
            format!("{:.3}", load.gini),
            format!("{:.0}", r.sim_events_per_sec()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ShootoutParams {
        let mut p = ShootoutParams::new((32, 2, 12), 11);
        p.spec.events = 12;
        p
    }

    #[test]
    fn five_systems_registered() {
        let names: Vec<&str> = all_systems().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["hypersub", "rendezvous", "attr_ring", "subgroup", "gossip"]
        );
        assert!(system_by_name("gossip").is_some());
        assert!(system_by_name("nope").is_none());
    }

    #[test]
    fn tiny_rung_is_equivalent_across_all_systems() {
        let out = run_rung(&all_systems(), (32, 2, 12), 11).unwrap();
        assert!(out.ok(), "equivalence failures: {:?}", out.failures);
        assert_eq!(out.runs.len(), 5);
        assert!(
            !out.runs[0].expected.is_empty(),
            "workload must match something"
        );
        // The §2 shapes: the rendezvous node, and no other system's
        // hottest node, stores all 64 subscriptions; HyperSub stores each
        // once; the attribute ring replicates, so it stores the most.
        let total = |r: &SystemRun| r.loads.iter().sum::<u64>();
        let named = |name| out.runs.iter().find(|r| r.system == name).unwrap();
        for r in &out.runs {
            let hottest = r.loads.iter().copied().max().unwrap_or(0);
            assert_eq!(hottest == 64, r.system == "rendezvous", "{}", r.system);
        }
        assert_eq!(total(named("hypersub")), 64);
        for r in out.runs.iter().filter(|r| r.system != "attr_ring") {
            assert!(total(named("attr_ring")) > total(r), "{}", r.system);
        }
    }

    #[test]
    fn runs_are_deterministic_for_fixed_seed() {
        let p = tiny_params();
        let a = GossipSystem.run(&p).unwrap();
        let b = GossipSystem.run(&p).unwrap();
        assert_eq!(a.report.digest, b.report.digest);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn json_roundtrips_digests() {
        let out = run_rung(&all_systems(), (24, 2, 6), 3).unwrap();
        let doc = shootout_json(3, "test", &[out]);
        let digests = digests_from_json(&doc).unwrap();
        assert_eq!(digests.len(), 5);
        assert_eq!(digests[0].0, "hypersub");
        assert_eq!(digests[0].1, 24);
        assert!(digests.iter().all(|(_, _, d)| d.starts_with("0x")));
    }

    const PINNED_QUICK: &str = include_str!("../../../results/SHOOTOUT_quick.json");

    #[test]
    fn pinned_quick_reference_matches_itself() {
        assert_eq!(digest_drift(PINNED_QUICK, PINNED_QUICK), Ok(vec![]));
        assert_eq!(digests_from_json(PINNED_QUICK).unwrap().len(), 5);
    }

    #[test]
    fn empty_or_unparsable_reference_is_an_error() {
        assert!(digest_drift(PINNED_QUICK, "").is_err());
        assert!(digest_drift(PINNED_QUICK, "{\"runs\": []}").is_err());
        assert!(digest_drift(PINNED_QUICK, "{\"runs\": [{\"system\": \"x\"}]}").is_err());
    }

    #[test]
    fn one_line_reference_with_a_wrong_digest_drifts() {
        let reference =
            r#"{"runs": [{"system": "hypersub", "nodes": 1000, "digest": "0x0000000000000001"}]}"#;
        let drift = digest_drift(PINNED_QUICK, reference).unwrap();
        assert_eq!(
            drift,
            ["hypersub @ 1000 nodes: digest 0x19d4f30c5ba5b114, pinned 0x0000000000000001"]
        );
    }
}
