//! Shared plumbing for the baseline systems: the delivery-splitting helper,
//! the common world type, and the [`BaselineNet`] driver that gives every
//! baseline the same builder / typed-error / [`Report`] surface as
//! HyperSub's `Network`.

use hypersub_chord::routing::{next_hop, NextHop};
use hypersub_chord::ChordState;
use hypersub_core::digest::run_digest;
use hypersub_core::error::{HyperSubError, Result};
use hypersub_core::metrics::{DeliveryRecord, EventStats, Metrics};
use hypersub_core::model::{Event, SubId, SubTarget, Subscription};
use hypersub_core::report::{CounterSummary, Report};
use hypersub_core::sim::{Substrate, TopologyKind};
use hypersub_core::world::Oracle;
use hypersub_lph::Point;
use hypersub_simnet::{NetStats, Node, NodeRuntime, Payload, Sim, SimTime};
use std::collections::BTreeMap;

/// Timer token base for scripted publishes — shared by every baseline
/// node type, so one driver can script any of them.
pub const TOKEN_PUBLISH_BASE: u64 = 1 << 32;

/// Shared world for baseline simulations.
#[derive(Debug, Default)]
pub struct BaselineWorld {
    /// Delivery metrics (same type as HyperSub's, for comparability).
    pub metrics: Metrics,
    /// Ground truth.
    pub oracle: Oracle,
    /// Scripted events (scheme is implicit — baselines run one scheme).
    pub script: Vec<Option<hypersub_core::model::Event>>,
}

/// The driver-facing contract every baseline system implements on top of
/// [`Node`]: install a subscription from this node, and report how many
/// entries this node stores (the §5 load metric). [`BaselineNet`] is
/// generic over this trait, which is what lets the shoot-out harness run
/// four rival systems through one code path.
pub trait BaselineNode: Node<Self::Msg, BaselineWorld> + 'static {
    /// The system's message type.
    type Msg: Payload + 'static;

    /// Installs a subscription originating at this node and returns its
    /// id. Implementations must register the subscription with the
    /// world's oracle.
    fn subscribe<R: NodeRuntime<Self::Msg, BaselineWorld>>(
        &mut self,
        ctx: &mut R,
        sub: Subscription,
    ) -> SubId;

    /// Entries stored on this node (subscriptions, replicas, or subgroup
    /// members — whatever the system's storage unit is).
    fn load(&self) -> u64;
}

/// Builder for a [`BaselineNet`]: the same size, seed and topology
/// knobs as `Network::builder()`, and the same substrate — both builders
/// derive it with [`Substrate::derive`], so a baseline run and a
/// HyperSub run with equal seeds get bit-identical topologies and rings.
#[derive(Debug, Clone)]
pub struct BaselineNetBuilder {
    nodes: usize,
    seed: u64,
    topology: TopologyKind,
}

impl BaselineNetBuilder {
    /// Starts building an `nodes`-node baseline network. Defaults match
    /// `Network::builder()`: uniform 10 ms links, seed 0. The node type
    /// is fixed by the closure given to [`Self::build_with`].
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            seed: 0,
            topology: TopologyKind::Uniform(SimTime::from_millis(10)),
        }
    }

    /// Sets the master seed (topology, ring ids, simulator RNG).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the latency model.
    pub fn topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Builds the network, constructing one node per ring position with
    /// `make` (which receives the node's stabilized Chord state).
    ///
    /// # Errors
    /// [`HyperSubError::InvalidConfig`] when the network would be empty
    /// or a custom topology's size differs from the node count.
    pub fn build_with<N, F>(self, make: F) -> Result<BaselineNet<N>>
    where
        N: BaselineNode,
        F: FnMut(ChordState) -> N,
    {
        let substrate = Substrate::derive(self.nodes, &self.topology, self.seed)?;
        Ok(BaselineNet {
            sim: substrate.into_sim(make, BaselineWorld::default()),
            next_event_id: 1,
        })
    }
}

/// A running baseline network: the counterpart of HyperSub's `Network`
/// for [`BaselineNode`] systems. Gives the baselines the builder API,
/// typed errors, and full [`Report`] emission they predated.
pub struct BaselineNet<N: BaselineNode> {
    sim: Sim<N, N::Msg, BaselineWorld>,
    next_event_id: u64,
}

impl<N: BaselineNode> BaselineNet<N> {
    /// Starts building an `nodes`-node baseline network; see
    /// [`BaselineNetBuilder::new`].
    pub fn builder(nodes: usize) -> BaselineNetBuilder {
        BaselineNetBuilder::new(nodes)
    }

    fn check_node(&self, node: usize) -> Result<()> {
        let nodes = self.sim.len();
        if node >= nodes {
            return Err(HyperSubError::NodeOutOfRange { node, nodes });
        }
        Ok(())
    }

    /// Installs a subscription from `node`. Run the network afterwards to
    /// let registration traffic settle.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index.
    pub fn subscribe(&mut self, node: usize, sub: Subscription) -> Result<SubId> {
        self.check_node(node)?;
        Ok(self.sim.with_node_ctx(node, |n, ctx| n.subscribe(ctx, sub)))
    }

    /// Schedules an event publication at absolute simulated time `at`,
    /// returning the allocated event id.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index.
    pub fn schedule_publish(&mut self, at: SimTime, node: usize, point: Point) -> Result<u64> {
        self.check_node(node)?;
        let id = self.next_event_id;
        self.next_event_id += 1;
        let idx = self.sim.world().script.len();
        self.sim.world_mut().script.push(Some(Event { id, point }));
        self.sim
            .schedule_timer(at, node, TOKEN_PUBLISH_BASE + idx as u64);
        Ok(id)
    }

    /// Runs until no messages or timers remain.
    pub fn run_to_quiescence(&mut self) {
        self.sim.run(u64::MAX / 2);
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.sim.time()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// True for an empty network (never constructible via the builder).
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Simulator events processed.
    pub fn steps(&self) -> u64 {
        self.sim.steps()
    }

    /// Network counters.
    pub fn net(&self) -> &NetStats {
        self.sim.net()
    }

    /// Node `i`'s protocol state.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index.
    pub fn node(&self, i: usize) -> Result<&N> {
        self.check_node(i)?;
        Ok(self.sim.node(i))
    }

    /// The shared world (oracle, metrics, script).
    pub fn world(&self) -> &BaselineWorld {
        self.sim.world()
    }

    /// Per-node stored-entry loads.
    pub fn node_loads(&self) -> Vec<u64> {
        self.sim.nodes().iter().map(|n| n.load()).collect()
    }

    /// Raw delivery records, in delivery order.
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        self.sim.world().metrics.deliveries()
    }

    /// Per-event aggregates (total subscription count from the oracle).
    pub fn event_stats(&self) -> Vec<EventStats> {
        let w = self.sim.world();
        w.metrics.event_stats(w.oracle.len(), self.sim.net())
    }

    /// The run digest: delivery trace plus network counters — the same
    /// FNV-1a fold `Network::run_digest` uses, so baseline runs are
    /// golden-pinnable with the same machinery.
    pub fn run_digest(&self) -> u64 {
        run_digest(self.deliveries(), self.sim.net())
    }

    /// Ground-truth match set for `point`.
    pub fn expected_matches(&self, point: &Point) -> Vec<SubId> {
        self.sim.world().oracle.expected_matches(0, point)
    }

    /// Snapshots this run into a full [`Report`] — the same document
    /// shape `Network::report()` emits, so `report diff` can compare a
    /// baseline run against a HyperSub run. Counters carry the shared
    /// `ProtoMetrics` registry plus one baseline-specific namespace,
    /// `load.stored_entries` (total and hottest-node stored entries).
    pub fn report(&self) -> Report {
        let w = self.sim.world();
        let loads = CounterSummary::over(self.node_loads());
        Report::of_run(
            &self.sim,
            &w.metrics,
            w.oracle.len(),
            [("load.stored_entries", loads)],
        )
    }
}

/// Splits a SubID list by next hop: targets this node is responsible for
/// are returned as `local`, the rest grouped per neighbor, deterministic
/// order. The same embedded-tree aggregation HyperSub's Algorithm 5 uses.
pub fn split_targets(
    chord: &ChordState,
    targets: Vec<SubTarget>,
) -> (Vec<SubTarget>, BTreeMap<usize, Vec<SubTarget>>) {
    let mut local = Vec::new();
    let mut by_hop: BTreeMap<usize, Vec<SubTarget>> = BTreeMap::new();
    for t in targets {
        if chord.responsible_for(t.nid) {
            local.push(t);
        } else {
            match next_hop(chord, t.nid) {
                NextHop::Forward(p) => by_hop.entry(p.idx).or_default().push(t),
                NextHop::Local => local.push(t),
            }
        }
    }
    (local, by_hop)
}

/// Converts a matched [`SubId`] list to targets.
pub fn to_targets(matched: Vec<SubId>) -> Vec<SubTarget> {
    matched.into_iter().map(SubTarget::sub).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous::RendezvousNode;
    use hypersub_chord::builder::{build_ring, RingConfig};
    use hypersub_lph::Rect;
    use hypersub_simnet::UniformTopology;

    #[test]
    fn split_routes_each_target_somewhere() {
        let topo = UniformTopology::new(16, SimTime::from_millis(5));
        let states = build_ring(&RingConfig::default(), &topo, 3);
        let targets: Vec<SubTarget> = states
            .iter()
            .map(|s| SubTarget::sub(SubId { nid: s.id, iid: 1 }))
            .collect();
        let (local, by_hop) = split_targets(&states[0], targets.clone());
        let total: usize = local.len() + by_hop.values().map(|v| v.len()).sum::<usize>();
        assert_eq!(total, targets.len());
        // Node 0 is responsible exactly for its own id among these.
        assert_eq!(local.len(), 1);
        assert_eq!(local[0].nid, states[0].id);
    }

    #[test]
    fn builder_rejects_empty_network() {
        let err = BaselineNetBuilder::new(0)
            .build_with(|st| RendezvousNode::new(st, "bench"))
            .err()
            .expect("empty network must be rejected");
        assert!(matches!(err, HyperSubError::InvalidConfig(_)));
    }

    #[test]
    fn driver_end_to_end_with_report() {
        let mut net = BaselineNetBuilder::new(12)
            .seed(5)
            .build_with(|st| RendezvousNode::new(st, "bench"))
            .unwrap();
        for i in 0..12 {
            let lo = i as f64 * 8.0;
            let sub = Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0]));
            net.subscribe(i, sub).unwrap();
        }
        assert!(net
            .subscribe(99, Subscription::new(Rect::new(vec![0.0], vec![1.0])))
            .is_err());
        net.run_to_quiescence();
        let point = Point(vec![50.0, 50.0]);
        let expected = net.expected_matches(&point).len();
        assert!(expected >= 1);
        let at = net.time() + SimTime::from_secs(1);
        let id = net.schedule_publish(at, 3, point).unwrap();
        assert_eq!(id, 1);
        net.run_to_quiescence();
        let report = net.report();
        assert_eq!(report.nodes, 12);
        assert_eq!(report.events.published, 1);
        assert_eq!(report.events.delivered, expected as u64);
        assert_eq!(report.events.duplicates, 0);
        assert_eq!(report.digest, net.run_digest());
        assert_eq!(
            report.counter_total("load.stored_entries"),
            net.node_loads().iter().sum::<u64>()
        );
        // The report round-trips through its JSON form.
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }
}
