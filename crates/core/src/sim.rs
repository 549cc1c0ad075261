//! High-level driver: build a HyperSub network, install subscriptions,
//! publish events, collect metrics.

use crate::config::SystemConfig;
use crate::error::{HyperSubError, Result};
use crate::metrics::{DeliveryRecord, EventStats, Metrics};
use crate::model::{Event, Registry, SchemeId, SubId, Subscription};
use crate::msg::HyperMsg;
use crate::node::{
    HyperSubNode, IidTarget, TOKEN_FIX_FINGERS, TOKEN_LB, TOKEN_LEASE, TOKEN_PUBLISH_BASE,
    TOKEN_STABILIZE,
};
use crate::world::HyperWorld;
use hypersub_chord::builder::{build_ring, RingConfig};
use hypersub_chord::ChordState;
use hypersub_lph::Point;
use hypersub_simnet::{
    FlightRecorder, KingLikeTopology, NetStats, Payload, Sim, SimSnapshot, SimTime, Topology,
    UniformTopology,
};
use hypersub_snapshot::{Decode, Encode, Reader, Writer};
use std::sync::Arc;

/// How to build the latency model.
#[derive(Clone)]
pub enum TopologyKind {
    /// Constant one-way latency (unit tests, microbenches).
    Uniform(SimTime),
    /// Synthetic King-dataset-like Internet latencies with the given mean
    /// RTT (the paper's 1740-node network averages ~180 ms).
    KingLike(SimTime),
    /// Caller-provided topology.
    Custom(Arc<dyn Topology>),
}

impl std::fmt::Debug for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyKind::Uniform(t) => write!(f, "Uniform({t})"),
            TopologyKind::KingLike(t) => write!(f, "KingLike(mean_rtt={t})"),
            TopologyKind::Custom(_) => write!(f, "Custom"),
        }
    }
}

/// What every simulated system in the workspace runs on: the latency
/// model, the stabilized Chord ring, and the simulator's RNG seed, all
/// derived from one master seed. [`NetworkBuilder::build`] and the
/// baselines' `BaselineNetBuilder::build_with` both start here, so with
/// equal seeds node `i` has the same Chord id and the same link
/// latencies in every system.
pub struct Substrate {
    /// The latency model.
    topology: Arc<dyn Topology>,
    /// Seed of a King-like topology; snapshots record it to regenerate
    /// the topology on restore.
    topology_seed: u64,
    /// One stabilized Chord state per node, in slot order.
    ring: Vec<ChordState>,
    /// Seed of the simulator's RNG.
    sim_seed: u64,
}

impl Substrate {
    /// Derives the substrate of an `nodes`-node network from the master
    /// `seed`: ring ids from `seed` itself, the King-like topology and
    /// the simulator's RNG each from `seed` xor its own salt.
    ///
    /// # Errors
    /// [`HyperSubError::InvalidConfig`] when the network would be empty
    /// or a custom topology's size differs from `nodes`.
    pub fn derive(nodes: usize, topology: &TopologyKind, seed: u64) -> Result<Self> {
        if nodes == 0 {
            return Err(HyperSubError::InvalidConfig(
                "network needs at least one node",
            ));
        }
        let topology_seed = seed ^ 0x7090;
        let topology: Arc<dyn Topology> = match topology {
            TopologyKind::Uniform(t) => Arc::new(UniformTopology::new(nodes, *t)),
            TopologyKind::KingLike(rtt) => {
                Arc::new(KingLikeTopology::generate(nodes, *rtt, topology_seed))
            }
            TopologyKind::Custom(t) if t.len() == nodes => Arc::clone(t),
            TopologyKind::Custom(_) => {
                return Err(HyperSubError::InvalidConfig(
                    "custom topology size does not match node count",
                ))
            }
        };
        let ring = build_ring(&RingConfig::default(), topology.as_ref(), seed);
        Ok(Self {
            topology,
            topology_seed,
            ring,
            sim_seed: seed ^ 0x51ed,
        })
    }

    /// Builds the simulator: one node per ring position, made by `make`
    /// from that position's Chord state.
    pub fn into_sim<N, M: Payload, W>(
        self,
        make: impl FnMut(ChordState) -> N,
        world: W,
    ) -> Sim<N, M, W> {
        let nodes = self.ring.into_iter().map(make).collect();
        Sim::new(self.topology, nodes, world, self.sim_seed)
    }
}

/// Opt-in checkpoint/restore support (see `DESIGN.md`,
/// "Checkpoint/restore"). Off by default: a network built without it
/// refuses [`Network::snapshot`], and nothing about the run changes
/// either way — enabling snapshots only stashes the topology descriptor
/// needed to rebuild the latency model at restore time.
#[derive(Debug, Clone, Default)]
pub struct SnapshotConfig {
    /// Master switch.
    pub enabled: bool,
}

impl SnapshotConfig {
    /// Snapshots on.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }
}

/// How to regenerate the topology at restore time. Uniform and King-like
/// topologies are pure functions of their parameters, so the snapshot
/// records the recipe instead of the full latency matrix; custom
/// topologies have no recipe and are rejected at build time when
/// snapshots are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopoDescriptor {
    /// `UniformTopology::new(nodes, latency)`.
    Uniform { nodes: usize, latency: SimTime },
    /// `KingLikeTopology::generate(nodes, mean_rtt, seed)`.
    KingLike {
        nodes: usize,
        mean_rtt: SimTime,
        seed: u64,
    },
}

impl TopoDescriptor {
    fn nodes(&self) -> usize {
        match self {
            TopoDescriptor::Uniform { nodes, .. } => *nodes,
            TopoDescriptor::KingLike { nodes, .. } => *nodes,
        }
    }

    fn build(&self) -> Arc<dyn Topology> {
        match self {
            TopoDescriptor::Uniform { nodes, latency } => {
                Arc::new(UniformTopology::new(*nodes, *latency))
            }
            TopoDescriptor::KingLike {
                nodes,
                mean_rtt,
                seed,
            } => Arc::new(KingLikeTopology::generate(*nodes, *mean_rtt, *seed)),
        }
    }
}

impl Encode for TopoDescriptor {
    fn encode(&self, w: &mut Writer) {
        match self {
            TopoDescriptor::Uniform { nodes, latency } => {
                w.put_u8(0);
                nodes.encode(w);
                latency.encode(w);
            }
            TopoDescriptor::KingLike {
                nodes,
                mean_rtt,
                seed,
            } => {
                w.put_u8(1);
                nodes.encode(w);
                mean_rtt.encode(w);
                w.put_u64(*seed);
            }
        }
    }
}

impl Decode for TopoDescriptor {
    fn decode(r: &mut Reader<'_>) -> Result<Self, hypersub_snapshot::Error> {
        Ok(match r.take_u8()? {
            0 => TopoDescriptor::Uniform {
                nodes: usize::decode(r)?,
                latency: SimTime::decode(r)?,
            },
            1 => TopoDescriptor::KingLike {
                nodes: usize::decode(r)?,
                mean_rtt: SimTime::decode(r)?,
                seed: r.take_u64()?,
            },
            _ => {
                return Err(hypersub_snapshot::Error::InvalidValue(
                    "topology descriptor tag",
                ))
            }
        })
    }
}

/// Fluent constructor for [`Network`], obtained from
/// [`Network::builder`], so
/// `Network::builder(n).build()?` is the minimal happy path:
///
/// ```
/// use hypersub_core::prelude::*;
///
/// let net = Network::builder(8)
///     .registry(Registry::new(Vec::new()))
///     .latency(SimTime::from_millis(5))
///     .seed(42)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(net.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    nodes: usize,
    registry: Registry,
    config: SystemConfig,
    topology: TopologyKind,
    seed: u64,
    recorder_capacity: Option<usize>,
    snapshot: SnapshotConfig,
}

impl NetworkBuilder {
    /// Scheme definitions the network serves.
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = registry;
        self
    }

    /// System configuration (zone parameters, load balancing, retries).
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Master seed (node ids, topology, simulator randomness).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uniform topology with the given constant one-way latency.
    pub fn latency(mut self, one_way: SimTime) -> Self {
        self.topology = TopologyKind::Uniform(one_way);
        self
    }

    /// Explicit topology model (covers the custom-matrix case).
    pub fn topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Installs a flight recorder capturing the most recent `capacity`
    /// trace events (see `hypersub_simnet::trace`). Off by default;
    /// recording never changes run behavior.
    pub fn flight_recorder(mut self, capacity: usize) -> Self {
        self.recorder_capacity = Some(capacity);
        self
    }

    /// Checkpoint/restore support (see [`SnapshotConfig`]). Off by
    /// default; enabling it never changes run behavior or digests.
    pub fn snapshots(mut self, snapshot: SnapshotConfig) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Builds the stabilized network: topology, Chord ring (with PNS
    /// fingers), one HyperSub node per slot. Load-balancing timers are
    /// armed (staggered) when the config enables LB.
    pub fn build(self) -> Result<Network> {
        let substrate = Substrate::derive(self.nodes, &self.topology, self.seed)?;
        if self.recorder_capacity == Some(0) {
            return Err(HyperSubError::InvalidConfig(
                "flight recorder capacity must be positive",
            ));
        }
        if self.config.lb.enabled && self.config.lb.period == SimTime::ZERO {
            return Err(HyperSubError::InvalidConfig(
                "load balancing requires a nonzero period",
            ));
        }
        if self.config.retry.enabled && self.config.retry.max_attempts == 0 {
            return Err(HyperSubError::InvalidConfig(
                "retries require max_attempts >= 1",
            ));
        }
        if self.config.heal.enabled && self.config.heal.lease_period == SimTime::ZERO {
            return Err(HyperSubError::InvalidConfig(
                "self-healing requires a nonzero lease period",
            ));
        }
        let topo_desc = if self.snapshot.enabled {
            Some(match &self.topology {
                TopologyKind::Uniform(t) => TopoDescriptor::Uniform {
                    nodes: self.nodes,
                    latency: *t,
                },
                TopologyKind::KingLike(rtt) => TopoDescriptor::KingLike {
                    nodes: self.nodes,
                    mean_rtt: *rtt,
                    seed: substrate.topology_seed,
                },
                TopologyKind::Custom(_) => {
                    return Err(HyperSubError::Snapshot(
                        hypersub_snapshot::Error::Unsupported(
                            "snapshots cannot capture a custom topology",
                        ),
                    ))
                }
            })
        } else {
            None
        };
        let registry = Arc::new(self.registry);
        let cfg = Arc::new(self.config);
        let mut sim = substrate.into_sim(
            |st| HyperSubNode::new(st, Arc::clone(&registry), Arc::clone(&cfg)),
            HyperWorld::default(),
        );
        if let Some(capacity) = self.recorder_capacity {
            sim.enable_recording(capacity);
        }
        if cfg.lb.enabled {
            // Stagger first ticks across the period so probe bursts do not
            // synchronize.
            let period_us = cfg.lb.period.as_micros().max(1);
            for i in 0..self.nodes {
                let offset = SimTime::from_micros((i as u64).wrapping_mul(7919) % period_us);
                sim.schedule_timer(cfg.lb.period + offset, i, TOKEN_LB);
            }
        }
        if cfg.heal.enabled {
            // Same stagger trick for lease ticks: a jittered start keeps
            // re-push/replication bursts from synchronizing across nodes.
            let period_us = cfg.heal.lease_period.as_micros().max(1);
            for i in 0..self.nodes {
                let offset = SimTime::from_micros((i as u64).wrapping_mul(7919) % period_us);
                sim.schedule_timer(cfg.heal.lease_period + offset, i, TOKEN_LEASE);
            }
        }
        Ok(Network {
            sim,
            next_event_id: 1,
            scheduled_events: 0,
            topo_desc,
        })
    }
}

/// A running HyperSub network.
pub struct Network {
    pub(crate) sim: Sim<HyperSubNode, HyperMsg, HyperWorld>,
    next_event_id: u64,
    scheduled_events: u64,
    /// Recipe for regenerating the topology at restore time; `Some` iff
    /// the network was built with [`SnapshotConfig`] enabled.
    topo_desc: Option<TopoDescriptor>,
}

impl Network {
    /// Starts building an `nodes`-node network; see [`NetworkBuilder`]
    /// for the knobs. Defaults: empty registry, default
    /// [`SystemConfig`], uniform 10 ms links, seed 0, no
    /// flight recorder.
    pub fn builder(nodes: usize) -> NetworkBuilder {
        NetworkBuilder {
            nodes,
            registry: Registry::new(Vec::new()),
            config: SystemConfig::default(),
            topology: TopologyKind::Uniform(SimTime::from_millis(10)),
            seed: 0,
            recorder_capacity: None,
            snapshot: SnapshotConfig::default(),
        }
    }

    /// Installs a subscription from `node` (Algorithm 2 starts here).
    /// Run the network afterwards to let registration traffic settle.
    pub fn subscribe(&mut self, node: usize, scheme: SchemeId, sub: Subscription) -> SubId {
        self.sim
            .with_node_ctx(node, |n, ctx| n.subscribe(ctx, scheme, sub))
    }

    /// Cancels a subscription previously returned by [`Network::subscribe`].
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index,
    /// [`HyperSubError::DeadNode`] when `node` is failed,
    /// [`HyperSubError::ForeignSubscription`] when `subid` belongs to a
    /// different node, and [`HyperSubError::UnknownSubscription`] when it
    /// is not (or no longer) a live local subscription.
    pub fn unsubscribe(&mut self, node: usize, subid: SubId) -> Result<()> {
        self.check_node(node)?;
        if !self.sim.is_alive(node) {
            return Err(HyperSubError::DeadNode { node });
        }
        if self.sim.node(node).chord().id != subid.nid {
            return Err(HyperSubError::ForeignSubscription { node, sub: subid });
        }
        let live = self
            .sim
            .with_node_ctx(node, |n, ctx| n.unsubscribe(ctx, subid.iid));
        if live {
            Ok(())
        } else {
            Err(HyperSubError::UnknownSubscription { sub: subid })
        }
    }

    /// Publishes an event from `node` right now. Returns the event id.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index.
    pub fn publish(&mut self, node: usize, scheme: SchemeId, point: Point) -> Result<u64> {
        self.check_node(node)?;
        let id = self.alloc_event_id();
        self.sim.with_node_ctx(node, |n, ctx| {
            n.publish_event(ctx, scheme, Event { id, point })
        });
        Ok(id)
    }

    /// Publishes through the deep-cloning reference path
    /// ([`HyperSubNode::publish_event_owned`]) instead of the shared-`Arc`
    /// fast path. Exists for differential tests proving the two paths are
    /// observationally identical.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index.
    pub fn publish_owned(&mut self, node: usize, scheme: SchemeId, point: Point) -> Result<u64> {
        self.check_node(node)?;
        let id = self.alloc_event_id();
        self.sim.with_node_ctx(node, |n, ctx| {
            n.publish_event_owned(ctx, scheme, Event { id, point })
        });
        Ok(id)
    }

    /// Schedules an event publication at absolute simulated time `at`.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index.
    pub fn schedule_publish(
        &mut self,
        at: SimTime,
        node: usize,
        scheme: SchemeId,
        point: Point,
    ) -> Result<u64> {
        self.check_node(node)?;
        let id = self.alloc_event_id();
        let idx = self.sim.world().script.len();
        self.sim
            .world_mut()
            .script
            .push(Some((scheme, Event { id, point })));
        self.sim
            .schedule_timer(at, node, TOKEN_PUBLISH_BASE + idx as u64);
        self.scheduled_events += 1;
        Ok(id)
    }

    fn check_node(&self, node: usize) -> Result<()> {
        let nodes = self.sim.len();
        if node >= nodes {
            return Err(HyperSubError::NodeOutOfRange { node, nodes });
        }
        Ok(())
    }

    fn alloc_event_id(&mut self) -> u64 {
        let id = self.next_event_id;
        self.next_event_id += 1;
        id
    }

    /// Enables Chord maintenance (stabilize/fix-fingers) on every node —
    /// needed for churn scenarios.
    pub fn enable_maintenance(&mut self) {
        for i in 0..self.sim.len() {
            self.sim.node_mut(i).maintenance = true;
            self.sim.schedule_timer(
                self.time() + hypersub_chord::proto::STABILIZE_PERIOD,
                i,
                TOKEN_STABILIZE,
            );
            self.sim.schedule_timer(
                self.time() + hypersub_chord::proto::FIX_FINGERS_PERIOD,
                i,
                TOKEN_FIX_FINGERS,
            );
        }
    }

    /// Fails a node (messages to it are dropped).
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index,
    /// [`HyperSubError::DeadNode`] when the node is already failed.
    pub fn fail(&mut self, node: usize) -> Result<()> {
        self.check_node(node)?;
        if !self.sim.is_alive(node) {
            return Err(HyperSubError::DeadNode { node });
        }
        self.sim.fail(node);
        Ok(())
    }

    /// Revives a failed node.
    ///
    /// The engine silently discards timer events addressed to dead nodes,
    /// so every enabled periodic timer (maintenance, load balancing,
    /// leases) is re-armed here. With self-healing enabled the node also
    /// *rejoins fresh*: its pre-failure rendezvous state (repositories,
    /// hosted entries, replicas, volatile LB and retry bookkeeping) is
    /// stale — successors promoted it while the node was down — and is
    /// dropped; leases and stabilization rebuild what the node should own.
    /// Local subscriptions and Chord identity survive (the application
    /// did not crash away its intent, and the ring id is the node). With
    /// self-healing disabled the legacy semantics hold: state unchanged.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index,
    /// [`HyperSubError::AliveNode`] when the node is not failed.
    pub fn revive(&mut self, node: usize) -> Result<()> {
        self.check_node(node)?;
        if self.sim.is_alive(node) {
            return Err(HyperSubError::AliveNode { node });
        }
        self.sim.revive(node);
        let n = self.sim.node(node);
        let heal = n.cfg.heal.enabled;
        let lb = n.cfg.lb.enabled;
        let lease_period = n.cfg.heal.lease_period;
        let lb_period = n.cfg.lb.period;
        let maintenance = n.maintenance;
        if heal {
            self.sim.with_node_ctx(node, |n, ctx| {
                // Liveness observations predate the downtime: stale
                // tombstones would make this node refuse the very gossip
                // that re-knits its neighborhood (see
                // `MaintState::rejoin_reset`).
                n.maint.rejoin_reset();
                n.repos.clear();
                n.hosted.clear();
                n.replicas.clear();
                n.iids.retain(|_, t| matches!(t, IidTarget::Local));
                n.lb.samples.clear();
                n.lb.pending.clear();
                n.lb.in_flight.clear();
                n.lb.migrated_index.clear();
                n.rel.pending.clear();
                let me = ctx.me as u64;
                ctx.trace(|| hypersub_simnet::ProtoEvent {
                    kind: "repair.rejoin",
                    flow: None,
                    a: me,
                    b: 0,
                });
            });
        }
        let now = self.time();
        if maintenance {
            self.sim.schedule_timer(
                now + hypersub_chord::proto::STABILIZE_PERIOD,
                node,
                TOKEN_STABILIZE,
            );
            self.sim.schedule_timer(
                now + hypersub_chord::proto::FIX_FINGERS_PERIOD,
                node,
                TOKEN_FIX_FINGERS,
            );
        }
        if lb {
            self.sim.schedule_timer(now + lb_period, node, TOKEN_LB);
        }
        if heal {
            self.sim
                .schedule_timer(now + lease_period, node, TOKEN_LEASE);
        }
        Ok(())
    }

    /// Installs a fault plane on the underlying simulator (loss,
    /// duplication, delay, partitions — see `hypersub_simnet::FaultPlane`).
    pub fn install_fault_plane(&mut self, plane: hypersub_simnet::FaultPlane) {
        self.sim.install_fault_plane(plane);
    }

    /// Mutable access to the installed fault plane, if any.
    pub fn fault_plane_mut(&mut self) -> Option<&mut hypersub_simnet::FaultPlane> {
        self.sim.fault_plane_mut()
    }

    /// Serializes the complete network state — every node's protocol
    /// state, the world (metrics, oracle, script), and the engine
    /// (event queue, per-node liveness, RNG streams, fault plane, flight
    /// recorder) — into a self-checking versioned byte envelope.
    ///
    /// The snapshot is taken at a *quiesce point*: call it between
    /// [`Network::run_until`] / [`Network::run_to_quiescence`] calls, not
    /// from inside a node callback. Restoring with [`Network::restore`]
    /// in a fresh process and running to the same end time produces
    /// bit-identical deliveries, network counters, digests and reports.
    ///
    /// # Errors
    /// [`HyperSubError::SnapshotsDisabled`] when the network was built
    /// without [`SnapshotConfig`] enabled.
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        let desc = self.topo_desc.ok_or(HyperSubError::SnapshotsDisabled)?;
        let mut w = Writer::new();
        desc.encode(&mut w);
        // The registry and config are shared by every node: encode them
        // once and re-share the `Arc`s on restore.
        self.sim.node(0).registry.encode(&mut w);
        self.sim.node(0).cfg.encode(&mut w);
        w.put_u64(self.sim.len() as u64);
        for node in self.sim.nodes() {
            node.snapshot_encode(&mut w);
        }
        self.sim.world().encode(&mut w);
        self.sim.export_state().encode(&mut w);
        w.put_u64(self.next_event_id);
        w.put_u64(self.scheduled_events);
        Ok(hypersub_snapshot::seal(w.into_vec()))
    }

    /// Reconstructs a network from bytes produced by
    /// [`Network::snapshot`], with snapshots still enabled on the result.
    ///
    /// # Errors
    /// [`HyperSubError::Snapshot`] when the bytes are corrupt, truncated,
    /// from a different format version, or internally inconsistent.
    pub fn restore(bytes: &[u8]) -> Result<Network> {
        let payload = hypersub_snapshot::unseal(bytes)?;
        let mut r = Reader::new(payload);
        let desc = TopoDescriptor::decode(&mut r)?;
        let registry = Arc::new(Registry::decode(&mut r)?);
        let cfg = Arc::new(SystemConfig::decode(&mut r)?);
        let n = r.take_u64()? as usize;
        if n != desc.nodes() || n == 0 {
            return Err(HyperSubError::Snapshot(
                hypersub_snapshot::Error::InvalidValue("snapshot node count"),
            ));
        }
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(HyperSubNode::snapshot_decode(
                &mut r,
                Arc::clone(&registry),
                Arc::clone(&cfg),
            )?);
        }
        let world = HyperWorld::decode(&mut r)?;
        let snap = SimSnapshot::<HyperMsg>::decode(&mut r)?;
        if snap.alive.len() != n {
            return Err(HyperSubError::Snapshot(
                hypersub_snapshot::Error::InvalidValue("snapshot liveness length"),
            ));
        }
        let next_event_id = r.take_u64()?;
        let scheduled_events = r.take_u64()?;
        r.finish().map_err(HyperSubError::Snapshot)?;
        let sim = Sim::from_snapshot(desc.build(), nodes, world, snap);
        Ok(Network {
            sim,
            next_event_id,
            scheduled_events,
            topo_desc: Some(desc),
        })
    }

    /// Runs until the event queue drains (messages and scripted timers
    /// all processed).
    ///
    /// # Panics
    /// Panics when load balancing, Chord maintenance, or self-healing is
    /// enabled — their periodic timers re-arm forever, so the queue never
    /// drains; drive such networks with [`Network::run_until`] instead.
    pub fn run_to_quiescence(&mut self) {
        let n0 = self.sim.node(0);
        assert!(
            !n0.cfg.lb.enabled && !n0.maintenance && !n0.cfg.heal.enabled,
            "run_to_quiescence would never return with periodic timers \
             (LB/maintenance/leases) armed; use run_until"
        );
        self.sim.run(u64::MAX / 2);
    }

    /// Runs until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.sim.time()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// True for an empty network (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Per-event statistics (Figure 2's dataset).
    pub fn event_stats(&self) -> Vec<EventStats> {
        let total = self.sim.world().oracle.len();
        self.sim.world().metrics.event_stats(total, self.sim.net())
    }

    /// Per-node load (stored subscriptions) — Figure 4's dataset.
    pub fn node_loads(&self) -> Vec<u64> {
        self.sim.nodes().iter().map(|n| n.load()).collect()
    }

    /// Network counters (Figure 3's dataset).
    pub fn net(&self) -> &NetStats {
        self.sim.net()
    }

    /// Ground-truth match set for a hypothetical event (testing).
    pub fn expected_matches(&self, scheme: SchemeId, point: &Point) -> Vec<SubId> {
        self.sim.world().oracle.expected_matches(scheme, point)
    }

    /// Immutable access to a node.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index.
    pub fn node(&self, i: usize) -> Result<&HyperSubNode> {
        self.check_node(i)?;
        Ok(self.sim.node(i))
    }

    /// All nodes, indexed by simulator slot.
    pub fn nodes(&self) -> &[HyperSubNode] {
        self.sim.nodes()
    }

    /// The metric sink (publishes, deliveries, protocol counters).
    pub fn metrics(&self) -> &Metrics {
        &self.sim.world().metrics
    }

    /// Raw per-subscriber delivery records, in delivery order — the trace
    /// the run digest is computed over.
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        self.sim.world().metrics.deliveries()
    }

    /// The run digest over the delivery trace and network counters (see
    /// [`crate::digest`]).
    pub fn run_digest(&self) -> u64 {
        crate::digest::run_digest(self.deliveries(), self.sim.net())
    }

    /// Simulator events processed so far.
    pub fn steps(&self) -> u64 {
        self.sim.steps()
    }

    /// The latency model.
    pub fn topology(&self) -> &Arc<dyn Topology> {
        self.sim.topology()
    }

    /// Installs a flight recorder mid-run (capturing the most recent
    /// `capacity` events from here on). Usually set up front via
    /// [`NetworkBuilder::flight_recorder`].
    pub fn enable_recording(&mut self, capacity: usize) {
        self.sim.enable_recording(capacity);
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.sim.recorder()
    }

    /// Removes the flight recorder, returning the captured trace.
    pub fn disable_recording(&mut self) -> Option<FlightRecorder> {
        self.sim.disable_recording()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SchemeDef;
    use hypersub_lph::Rect;

    fn registry() -> Registry {
        Registry::new(vec![SchemeDef::builder("t")
            .attribute("x", 0.0, 100.0)
            .attribute("y", 0.0, 100.0)
            .build(0)])
    }

    fn small_net(nodes: usize, seed: u64) -> Network {
        Network::builder(nodes)
            .registry(registry())
            .seed(seed)
            .build()
            .expect("valid test network")
    }

    #[test]
    fn subscribe_then_publish_delivers() {
        let mut net = small_net(8, 1);
        let sub = Subscription::new(Rect::new(vec![10.0, 10.0], vec![20.0, 20.0]));
        let subid = net.subscribe(3, 0, sub);
        net.run_to_quiescence();
        let ev = net.publish(5, 0, Point(vec![15.0, 15.0])).unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].event, ev);
        assert_eq!(stats[0].expected, 1);
        assert_eq!(stats[0].delivered, 1, "subscriber must receive the event");
        assert_eq!(stats[0].duplicates, 0);
        let _ = subid;
    }

    #[test]
    fn non_matching_event_delivers_nothing() {
        let mut net = small_net(8, 2);
        net.subscribe(
            3,
            0,
            Subscription::new(Rect::new(vec![10.0, 10.0], vec![20.0, 20.0])),
        );
        net.run_to_quiescence();
        net.publish(5, 0, Point(vec![90.0, 90.0])).unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        assert_eq!(stats[0].expected, 0);
        assert_eq!(stats[0].delivered, 0);
    }

    #[test]
    fn delivered_set_equals_bruteforce_many_subs() {
        let mut net = small_net(16, 3);
        // A spread of subscriptions, including boundary-straddling ones.
        let rects = [
            ([0.0, 0.0], [100.0, 100.0]), // matches everything
            ([40.0, 40.0], [60.0, 60.0]),
            ([50.0, 0.0], [50.0, 100.0]), // degenerate plane at x=50
            ([0.0, 45.0], [100.0, 55.0]),
            ([70.0, 70.0], [80.0, 80.0]),
            ([49.0, 49.0], [51.0, 51.0]),
        ];
        for (i, (lo, hi)) in rects.iter().enumerate() {
            net.subscribe(
                i % 16,
                0,
                Subscription::new(Rect::new(lo.to_vec(), hi.to_vec())),
            );
        }
        net.run_to_quiescence();
        for (j, point) in [
            Point(vec![50.0, 50.0]), // the hot corner: matches many
            Point(vec![75.0, 75.0]),
            Point(vec![1.0, 1.0]),
            Point(vec![50.0, 10.0]),
        ]
        .into_iter()
        .enumerate()
        {
            let expected = net.expected_matches(0, &point);
            let ev = net.publish((j * 3) % 16, 0, point).unwrap();
            net.run_to_quiescence();
            let stats = net.event_stats();
            let s = stats.iter().find(|s| s.event == ev).unwrap();
            assert_eq!(
                s.delivered,
                expected.len(),
                "event {ev}: delivered {} != expected {}",
                s.delivered,
                expected.len()
            );
            assert_eq!(s.duplicates, 0, "event {ev} had duplicate deliveries");
        }
    }

    #[test]
    fn scheduled_publish_fires() {
        let mut net = small_net(8, 4);
        net.subscribe(
            1,
            0,
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])),
        );
        net.run_to_quiescence();
        net.schedule_publish(SimTime::from_secs(5), 2, 0, Point(vec![5.0, 5.0]))
            .unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].delivered, 1);
        assert!(stats[0].publish_time >= SimTime::from_secs(5));
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut net = small_net(12, 21);
        let keep = net.subscribe(
            2,
            0,
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])),
        );
        let cancel = net.subscribe(
            5,
            0,
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])),
        );
        net.run_to_quiescence();
        let e1 = net.publish(7, 0, Point(vec![50.0, 50.0])).unwrap();
        net.run_to_quiescence();
        assert_eq!(net.unsubscribe(5, cancel), Ok(()));
        assert_eq!(
            net.unsubscribe(5, cancel),
            Err(HyperSubError::UnknownSubscription { sub: cancel }),
            "double unsubscribe reports the dead id"
        );
        net.run_to_quiescence();
        let e2 = net.publish(7, 0, Point(vec![51.0, 51.0])).unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        let s1 = stats.iter().find(|s| s.event == e1).unwrap();
        let s2 = stats.iter().find(|s| s.event == e2).unwrap();
        assert_eq!(s1.delivered, 2, "before unsubscribe both fire");
        assert_eq!(s2.delivered, 1, "after unsubscribe only one fires");
        assert_eq!(s2.expected, 1);
        let _ = keep;
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = small_net(12, seed);
            for i in 0..12 {
                let lo = i as f64 * 5.0;
                net.subscribe(
                    i,
                    0,
                    Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0])),
                );
            }
            net.run_to_quiescence();
            for i in 0..6 {
                net.publish(i, 0, Point(vec![i as f64 * 17.0 % 100.0, 50.0]))
                    .unwrap();
            }
            net.run_to_quiescence();
            net.event_stats()
                .iter()
                .map(|s| (s.event, s.delivered, s.max_hops, s.bandwidth_bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn builder_validates_configuration() {
        assert_eq!(
            Network::builder(0).build().err(),
            Some(HyperSubError::InvalidConfig(
                "network needs at least one node"
            ))
        );
        assert_eq!(
            Network::builder(4).flight_recorder(0).build().err(),
            Some(HyperSubError::InvalidConfig(
                "flight recorder capacity must be positive"
            ))
        );
        let topo: Arc<dyn Topology> = Arc::new(UniformTopology::new(3, SimTime::from_millis(1)));
        assert_eq!(
            Network::builder(4)
                .topology(TopologyKind::Custom(topo))
                .build()
                .err(),
            Some(HyperSubError::InvalidConfig(
                "custom topology size does not match node count"
            ))
        );
    }

    #[test]
    fn out_of_range_operations_are_errors_not_panics() {
        let mut net = small_net(4, 11);
        assert_eq!(
            net.node(4).err(),
            Some(HyperSubError::NodeOutOfRange { node: 4, nodes: 4 })
        );
        assert_eq!(
            net.publish(99, 0, Point(vec![1.0, 1.0])).err(),
            Some(HyperSubError::NodeOutOfRange { node: 99, nodes: 4 })
        );
        assert_eq!(
            net.schedule_publish(SimTime::from_secs(1), 4, 0, Point(vec![1.0, 1.0]))
                .err(),
            Some(HyperSubError::NodeOutOfRange { node: 4, nodes: 4 })
        );
        let sub = SubId { nid: 1, iid: 1 };
        assert_eq!(
            net.unsubscribe(7, sub).err(),
            Some(HyperSubError::NodeOutOfRange { node: 7, nodes: 4 })
        );
    }

    #[test]
    fn unsubscribe_distinguishes_dead_node_and_foreign_sub() {
        let mut net = small_net(6, 12);
        let sub = net.subscribe(
            2,
            0,
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![10.0, 10.0])),
        );
        net.run_to_quiescence();
        // Addressed to the wrong node: the id names node 2's ring id.
        assert_eq!(
            net.unsubscribe(3, sub),
            Err(HyperSubError::ForeignSubscription { node: 3, sub })
        );
        net.fail(2).unwrap();
        assert_eq!(
            net.unsubscribe(2, sub),
            Err(HyperSubError::DeadNode { node: 2 })
        );
        net.revive(2).unwrap();
        assert_eq!(net.unsubscribe(2, sub), Ok(()));
    }

    #[test]
    fn fail_and_revive_are_typed() {
        let mut net = small_net(4, 14);
        assert_eq!(
            net.fail(9).err(),
            Some(HyperSubError::NodeOutOfRange { node: 9, nodes: 4 })
        );
        assert_eq!(
            net.revive(9).err(),
            Some(HyperSubError::NodeOutOfRange { node: 9, nodes: 4 })
        );
        assert_eq!(
            net.revive(2).err(),
            Some(HyperSubError::AliveNode { node: 2 }),
            "reviving a live node is an error"
        );
        net.fail(1).unwrap();
        assert_eq!(
            net.fail(1).err(),
            Some(HyperSubError::DeadNode { node: 1 }),
            "double fail is an error"
        );
        net.revive(1).unwrap();
        net.fail(1).unwrap();
    }

    #[test]
    fn heal_requires_nonzero_lease_period() {
        let mut cfg = SystemConfig::default().with_self_healing();
        cfg.heal.lease_period = SimTime::ZERO;
        assert_eq!(
            Network::builder(4)
                .registry(registry())
                .config(cfg)
                .build()
                .err(),
            Some(HyperSubError::InvalidConfig(
                "self-healing requires a nonzero lease period"
            ))
        );
    }

    #[test]
    #[should_panic(expected = "use run_until")]
    fn quiescence_panics_with_self_healing_enabled() {
        let mut net = Network::builder(4)
            .registry(registry())
            .config(SystemConfig::default().with_self_healing())
            .build()
            .unwrap();
        net.run_to_quiescence();
    }

    #[test]
    fn snapshot_requires_opt_in() {
        let net = small_net(4, 15);
        assert_eq!(net.snapshot().err(), Some(HyperSubError::SnapshotsDisabled));
        let net = Network::builder(4)
            .registry(registry())
            .snapshots(SnapshotConfig::enabled())
            .build()
            .unwrap();
        assert!(net.snapshot().is_ok());
    }

    #[test]
    fn snapshot_rejects_custom_topology() {
        let topo: Arc<dyn Topology> = Arc::new(UniformTopology::new(4, SimTime::from_millis(1)));
        assert_eq!(
            Network::builder(4)
                .topology(TopologyKind::Custom(topo))
                .snapshots(SnapshotConfig::enabled())
                .build()
                .err(),
            Some(HyperSubError::Snapshot(
                hypersub_snapshot::Error::Unsupported("snapshots cannot capture a custom topology")
            ))
        );
    }

    #[test]
    fn snapshot_restore_round_trips_mid_run() {
        let build = || {
            Network::builder(12)
                .registry(registry())
                .seed(31)
                .snapshots(SnapshotConfig::enabled())
                .build()
                .unwrap()
        };
        let drive = |net: &mut Network, from: usize| {
            for i in from..6 {
                net.schedule_publish(
                    SimTime::from_secs(20 + i as u64),
                    i * 2,
                    0,
                    Point(vec![(i as f64 * 19.0) % 100.0, 50.0]),
                )
                .unwrap();
            }
        };
        // Straight-through reference run.
        let mut reference = build();
        for i in 0..12 {
            let lo = i as f64 * 7.0 % 90.0;
            reference.subscribe(
                i,
                0,
                Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0])),
            );
        }
        drive(&mut reference, 0);
        reference.run_to_quiescence();
        // Split run: identical setup, snapshot mid-way, restore, finish.
        let mut first = build();
        for i in 0..12 {
            let lo = i as f64 * 7.0 % 90.0;
            first.subscribe(
                i,
                0,
                Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0])),
            );
        }
        drive(&mut first, 0);
        first.run_until(SimTime::from_secs(22));
        let bytes = first.snapshot().unwrap();
        drop(first);
        let mut resumed = Network::restore(&bytes).unwrap();
        assert_eq!(resumed.time(), SimTime::from_secs(22));
        resumed.run_to_quiescence();
        assert_eq!(resumed.run_digest(), reference.run_digest());
        assert_eq!(resumed.deliveries(), reference.deliveries());
        assert_eq!(resumed.net(), reference.net());
    }

    #[test]
    fn restore_rejects_corrupt_bytes() {
        let net = Network::builder(4)
            .registry(registry())
            .snapshots(SnapshotConfig::enabled())
            .build()
            .unwrap();
        let mut bytes = net.snapshot().unwrap();
        let last = bytes.len() - 9; // flip a payload bit, not the checksum
        bytes[last] ^= 0x40;
        assert!(matches!(
            Network::restore(&bytes),
            Err(HyperSubError::Snapshot(
                hypersub_snapshot::Error::ChecksumMismatch { .. }
            ))
        ));
        assert!(Network::restore(&[]).is_err());
    }

    #[test]
    fn builder_recorder_is_off_by_default_and_installable() {
        let net = small_net(4, 13);
        assert!(net.recorder().is_none(), "recording must be opt-in");
        let mut net = Network::builder(4)
            .registry(registry())
            .flight_recorder(1 << 12)
            .build()
            .unwrap();
        assert!(net.recorder().is_some());
        net.run_to_quiescence();
        let rec = net.disable_recording().unwrap();
        assert_eq!(rec.capacity(), 1 << 12);
    }
}
