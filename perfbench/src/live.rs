//! The live workload: `live_loopback`, the only one that runs the TCP
//! driver, its framing and the wire codec.
//!
//! Four `HyperSubNode`s on a prebuilt Chord ring are spawned in-process
//! with `hypersub_net::driver::spawn` on 127.0.0.1. One generator thread
//! publishes open-loop at a fixed rate from random nodes through
//! `NetHandle::invoke`; the nodes' own threads are the system under test.
//! Latency runs from each publish's *due* time to its delivery, mapped
//! onto the benchmark's clock by a per-node offset (see `clock`).

use crate::calib::{self, Calib};
use crate::clock::{Offset, Probe};
use crate::layers::{self, IndexOp};
use crate::oracle::{self, Published, SubLife};
use crate::spans::Spans;
use crate::stats::{median, percentile_of, ratio, Summary, MIN_TAIL};
use crate::Outcome;
use hypersub_chord::builder::{build_ring, RingConfig};
use hypersub_core::config::SystemConfig;
use hypersub_core::model::{Event, Registry, SubId};
use hypersub_core::msg::HyperMsg;
use hypersub_core::node::HyperSubNode;
use hypersub_core::world::HyperWorld;
use hypersub_net::driver::{spawn, LiveConfig, NetHandle};
use hypersub_simnet::{Node, NodeRuntime, Payload, ProtoEvent, SimTime, UniformTopology};
use hypersub_workload::{WorkloadGen, WorkloadSpec};
use rand::rngs::SmallRng;
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 4;
const SUBS_PER_NODE: usize = 50;
/// Open-loop publish rate, publishes per second.
const RATE: f64 = 1000.0;
/// Publishing before each measured window, to warm connections and
/// caches.
const WARMUP_S: f64 = 0.5;
/// Time kept back from each round for draining and collection.
const RESERVE_S: f64 = 0.4;
/// Rounds per measured run: each spawns a fresh cluster, warms it up and
/// measures one window. Every end-to-end number is the median over
/// rounds, so one unlucky thread placement or a burst of interference
/// from outside the process moves one round, not the result.
const ROUNDS: usize = 5;
/// Longest wait for the cluster to go quiet.
const QUIET_TIMEOUT: Duration = Duration::from_secs(10);
/// Clock probes per node.
const CLOCK_PROBES: usize = 32;
/// Length of the window slices latency is summarized over. Stolen CPU
/// time on a shared host only ever adds latency, in bursts that can cover
/// most of a run; the calmest slices show what the system itself does, so
/// the reported median is the lower quartile over slices of the slice
/// median.
const SLICE_S: f64 = 0.25;
/// Calibration probes (see [`crate::calib`]) in the gap after each
/// measured round.
const GAP_PROBES: usize = 32;
/// Interval between no-op driver probes in the traced window.
const PROBE_EVERY: Duration = Duration::from_millis(5);

/// Message counts a node sent and received, kept by [`Metered`].
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    sent: u64,
    received: u64,
    flow_msgs: u64,
    flow_bytes: u64,
    send_failures: u64,
}

/// A `HyperSubNode` whose runtime calls are counted on the way out: sends
/// (with event-flow bytes by the paper's wire-size model) and receipts.
/// The counts let the benchmark tell when the cluster is quiet (every
/// message sent was received) and price each publish in bytes, as the
/// simulator's `NetStats` does.
struct Metered {
    node: HyperSubNode,
    counts: Counts,
}

struct MeteredCtx<'a, R> {
    inner: &'a mut R,
    counts: &'a mut Counts,
}

impl<R: NodeRuntime<HyperMsg, HyperWorld>> NodeRuntime<HyperMsg, HyperWorld> for MeteredCtx<'_, R> {
    fn me(&self) -> usize {
        self.inner.me()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn world(&mut self) -> &mut HyperWorld {
        self.inner.world()
    }

    fn rng(&mut self) -> &mut SmallRng {
        self.inner.rng()
    }

    fn send(&mut self, dst: usize, msg: HyperMsg) {
        self.counts.sent += 1;
        if msg.flow().is_some() {
            self.counts.flow_msgs += 1;
            self.counts.flow_bytes += msg.wire_size() as u64;
        }
        self.inner.send(dst, msg);
    }

    fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.inner.set_timer(delay, token);
    }

    fn tracing(&self) -> bool {
        self.inner.tracing()
    }

    fn trace(&mut self, f: impl FnOnce() -> ProtoEvent) {
        self.inner.trace(f);
    }
}

impl Metered {
    fn with<R: NodeRuntime<HyperMsg, HyperWorld>, T>(
        &mut self,
        ctx: &mut R,
        f: impl FnOnce(&mut HyperSubNode, &mut MeteredCtx<'_, R>) -> T,
    ) -> T {
        let mut c = MeteredCtx {
            inner: ctx,
            counts: &mut self.counts,
        };
        f(&mut self.node, &mut c)
    }
}

impl Node<HyperMsg, HyperWorld> for Metered {
    fn on_message<R: NodeRuntime<HyperMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        from: usize,
        msg: HyperMsg,
    ) {
        self.counts.received += 1;
        self.with(ctx, |n, c| n.on_message(c, from, msg));
    }

    fn on_timer<R: NodeRuntime<HyperMsg, HyperWorld>>(&mut self, ctx: &mut R, token: u64) {
        self.with(ctx, |n, c| n.on_timer(c, token));
    }

    fn on_send_failed<R: NodeRuntime<HyperMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        dst: usize,
        msg: HyperMsg,
    ) {
        // The failed send was counted as sent but will never be received.
        self.counts.send_failures += 1;
        self.counts.received += 1;
        self.with(ctx, |n, c| n.on_send_failed(c, dst, msg));
    }
}

type Handle = NetHandle<Metered, HyperMsg, HyperWorld>;

/// A running four-node loopback cluster and what was installed on it.
struct Cluster {
    handles: Vec<Handle>,
    subs: Vec<SubLife>,
    gen: WorkloadGen,
}

impl Cluster {
    fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for h in &self.handles {
            let c = h.query(|m, _| m.counts);
            total.sent += c.sent;
            total.received += c.received;
            total.flow_msgs += c.flow_msgs;
            total.flow_bytes += c.flow_bytes;
            total.send_failures += c.send_failures;
        }
        total
    }

    /// Waits until every message sent has been received, on two polls in
    /// a row with nothing new in between.
    fn wait_quiet(&self) -> bool {
        let deadline = Instant::now() + QUIET_TIMEOUT;
        let mut last = (u64::MAX, u64::MAX);
        while Instant::now() < deadline {
            let c = self.counts();
            let now = (c.sent, c.received);
            if c.sent == c.received && now == last {
                return true;
            }
            last = now;
            std::thread::sleep(Duration::from_micros(200));
        }
        false
    }

    fn shutdown(self) {
        for h in self.handles {
            h.shutdown();
        }
    }
}

/// Spawns the ring, installs the subscriptions and waits for quiet.
fn setup(seed: u64, spans: &mut Spans) -> Result<Cluster, String> {
    let spec = WorkloadSpec::paper_table1();
    let registry = Arc::new(Registry::new(vec![spec.scheme_def(0)]));
    let cfg = Arc::new(SystemConfig::default());
    let spawn_span = spans.enter("setup.spawn", None);
    let topo = UniformTopology::new(NODES, SimTime::from_millis(1));
    let states = build_ring(&RingConfig::default(), &topo, crate::NET_SEED);
    let listeners: Vec<TcpListener> = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}")))
        .collect::<Result<_, _>>()?;
    let peers: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().map_err(|e| format!("listener address: {e}")))
        .collect::<Result<_, _>>()?;
    let handles: Vec<Handle> = listeners
        .into_iter()
        .zip(states)
        .enumerate()
        .map(|(i, (listener, state))| {
            let node = Metered {
                node: HyperSubNode::new(state, Arc::clone(&registry), Arc::clone(&cfg)),
                counts: Counts::default(),
            };
            let cfg = LiveConfig {
                index: i,
                peers: peers.clone(),
                seed: crate::NET_SEED,
            };
            spawn(node, HyperWorld::default(), listener, cfg)
        })
        .collect();
    spans.exit(spawn_span);

    let mut gen = WorkloadGen::new(spec, seed);
    let mut subs = Vec::new();
    let sub_span = spans.enter("setup.subscribe_loop", None);
    for (node, h) in handles.iter().enumerate() {
        for _ in 0..SUBS_PER_NODE {
            let sub = gen.subscription();
            let rect = sub.rect.clone();
            let id: SubId = h.query(move |m, ctx| m.with(ctx, |n, c| n.subscribe(c, 0, sub)));
            subs.push(SubLife {
                id,
                node,
                rect,
                on: 0.0,
                off: None,
            });
        }
    }
    spans.exit(sub_span);
    let cluster = Cluster { handles, subs, gen };
    let quiet = spans.time("setup.settle", None, || cluster.wait_quiet());
    if !quiet {
        cluster.shutdown();
        return Err("subscription install never went quiet".to_string());
    }
    Ok(cluster)
}

/// Per-node clock offsets from minimum-RTT `now()` probes.
fn offsets(cluster: &Cluster, epoch: Instant) -> Vec<Offset> {
    cluster
        .handles
        .iter()
        .map(|h| {
            let probes: Vec<Probe> = (0..CLOCK_PROBES)
                .map(|_| {
                    let sent = epoch.elapsed().as_secs_f64();
                    let remote = h.query(|_, ctx| ctx.now().as_micros());
                    let received = epoch.elapsed().as_secs_f64();
                    Probe {
                        sent,
                        remote: remote as f64 / 1e6,
                        received,
                    }
                })
                .collect();
            Offset::from_probes(&probes).expect("probes taken")
        })
        .collect()
}

/// Publishes `count` events open-loop at [`RATE`], the first due at
/// `begin` (benchmark seconds). Returns the publishes and each one's
/// generator lateness in seconds.
fn publish_stream(
    handles: &[Handle],
    gen: &mut WorkloadGen,
    epoch: Instant,
    begin: f64,
    count: usize,
    next_id: &mut u64,
    spans: &mut Spans,
) -> (Vec<Published>, Vec<f64>) {
    let mut pubs = Vec::with_capacity(count);
    let mut lag = Vec::with_capacity(count);
    for i in 0..count {
        let node = gen.random_node(NODES);
        let point = gen.event_point();
        let id = *next_id;
        *next_id += 1;
        let due = begin + i as f64 / RATE;
        loop {
            let left = due - epoch.elapsed().as_secs_f64();
            if left <= 0.0 {
                break;
            }
            if left > 300e-6 {
                std::thread::sleep(Duration::from_secs_f64(left - 200e-6));
            } else {
                std::thread::yield_now();
            }
        }
        lag.push(epoch.elapsed().as_secs_f64() - due);
        let ev = Event {
            id,
            point: point.clone(),
        };
        spans.time("live.publish", Some(id), || {
            handles[node].invoke(move |m, ctx| m.with(ctx, |n, c| n.publish_event(c, 0, ev)));
        });
        pubs.push(Published {
            id,
            node,
            at: due,
            point,
        });
    }
    (pubs, lag)
}

/// Every delivery as `(event, subscription, benchmark time)`, and every
/// delivery's hop count.
fn deliveries(cluster: &Cluster, offsets: &[Offset]) -> (Vec<(u64, SubId, f64)>, Vec<f64>) {
    let mut out = Vec::new();
    let mut hops = Vec::new();
    for (h, off) in cluster.handles.iter().zip(offsets) {
        let recs = h.query(|_, ctx| ctx.world().metrics.deliveries().to_vec());
        out.extend(
            recs.iter()
                .map(|r| (r.event, r.subid, off.map(r.time.as_micros() as f64 / 1e6))),
        );
        hops.extend(recs.iter().map(|r| f64::from(r.hops)));
    }
    (out, hops)
}

/// Latencies (ms, due time to delivery) of deliveries whose event is in
/// `window`, and the time of the last such delivery.
fn window_latencies(window: &[Published], delivered: &[(u64, SubId, f64)]) -> (Vec<f64>, f64) {
    let due: HashMap<u64, f64> = window.iter().map(|p| (p.id, p.at)).collect();
    let mut last = 0.0f64;
    let lat = delivered
        .iter()
        .filter_map(|&(e, _, t)| {
            let d = due.get(&e)?;
            last = last.max(t);
            Some((t - d) * 1e3)
        })
        .collect();
    (lat, last)
}

/// Loads (stored real subscriptions) of every node.
fn loads(cluster: &Cluster) -> Vec<u64> {
    cluster
        .handles
        .iter()
        .map(|h| h.query(|m, _| m.node.load()))
        .collect()
}

/// What one round measured.
struct Round {
    setup_s: f64,
    /// Warm-up and window publishes.
    pubs: Vec<Published>,
    /// The measured window's publishes.
    window: Vec<Published>,
    /// Generator lateness of the window's publishes, seconds.
    lag: Vec<f64>,
    /// `(event, subscription, benchmark time)` of every delivery.
    delivered: Vec<(u64, SubId, f64)>,
    hops: Vec<f64>,
    counts: Counts,
    loads: Vec<u64>,
    /// Worst clock-offset error bound over the nodes, seconds.
    clock_error: f64,
}

impl Round {
    fn latencies(&self) -> Vec<f64> {
        window_latencies(&self.window, &self.delivered).0
    }

    /// Latencies (ms) of the window's deliveries, grouped by the
    /// [`SLICE_S`] slice of the window their publish was due in. Slices
    /// with too few samples for a p90 with [`MIN_TAIL`] beyond it are
    /// left out.
    fn slices(&self) -> Vec<Vec<f64>> {
        let Some(first) = self.window.first() else {
            return Vec::new();
        };
        let due: HashMap<u64, f64> = self.window.iter().map(|p| (p.id, p.at)).collect();
        let mut slices: Vec<Vec<f64>> = Vec::new();
        for &(e, _, t) in &self.delivered {
            let Some(&d) = due.get(&e) else { continue };
            let k = ((d - first.at) / SLICE_S) as usize;
            if slices.len() <= k {
                slices.resize(k + 1, Vec::new());
            }
            slices[k].push((t - d) * 1e3);
        }
        slices.retain(|s| s.len() >= 10 * MIN_TAIL);
        slices
    }

    /// Window publishes over the time from the first one's due time to
    /// the last delivery of any of them.
    fn ops_per_s(&self) -> f64 {
        let (_, last) = window_latencies(&self.window, &self.delivered);
        ratio(
            self.window.len() as f64,
            last - self.window.first().map_or(0.0, |p| p.at),
        )
    }

    fn pairs(&self) -> Vec<(u64, SubId)> {
        self.delivered.iter().map(|&(e, s, _)| (e, s)).collect()
    }
}

/// Runs one round on a fresh cluster: set-up, warm-up, a window of
/// `window_s` seconds, drain, collection. `during` runs the window's
/// publishes (so the traced run can wrap them); the cluster is returned
/// alive for any replays.
fn round(
    seed: u64,
    epoch: Instant,
    window_s: f64,
    spans: &mut Spans,
    out: &mut Outcome,
    during: impl FnOnce(&mut Cluster, f64, usize, &mut u64, &mut Spans) -> (Vec<Published>, Vec<f64>),
) -> Option<(Cluster, Round)> {
    let t = Instant::now();
    let s = spans.enter("setup", None);
    let mut cluster = match setup(seed, spans) {
        Ok(c) => c,
        Err(e) => {
            out.fail(e);
            return None;
        }
    };
    spans.exit(s);
    let setup_s = t.elapsed().as_secs_f64();
    let offs = offsets(&cluster, epoch);
    let mut next_id = 1u64;
    let begin = epoch.elapsed().as_secs_f64() + 0.005;
    let warm = (WARMUP_S * RATE) as usize;
    let (mut pubs, _) = publish_stream(
        &cluster.handles,
        &mut cluster.gen,
        epoch,
        begin,
        warm,
        &mut next_id,
        spans,
    );
    let count = (window_s * RATE) as usize;
    let (window, lag) = during(
        &mut cluster,
        begin + warm as f64 / RATE,
        count,
        &mut next_id,
        spans,
    );
    pubs.extend(window.iter().cloned());
    if !spans.time("drain", None, || cluster.wait_quiet()) {
        out.fail("deliveries never went quiet".to_string());
    }
    let (delivered, hops) = deliveries(&cluster, &offs);
    let counts = cluster.counts();
    let loads = loads(&cluster);
    let r = Round {
        setup_s,
        pubs,
        window,
        lag,
        delivered,
        hops,
        counts,
        loads,
        clock_error: offs.iter().map(|o| o.error).fold(0.0, f64::max),
    };
    Some((cluster, r))
}

/// Checks a round against the oracle and counts its operations.
fn judge(cluster: &Cluster, r: &Round, out: &mut Outcome) {
    let v = oracle::check(&cluster.subs, &r.pubs, &r.pairs(), 0.0);
    out.attempted += (r.pubs.len() + cluster.subs.len()) as u64;
    out.failed += v.bad_publishes;
    out.verdict(&v, 0.0);
    if r.counts.send_failures > 0 {
        out.fail(format!(
            "{} sends failed on loopback",
            r.counts.send_failures
        ));
    }
}

fn load_max_over_mean(r: &Round) -> f64 {
    let mean = ratio(r.loads.iter().sum::<u64>() as f64, r.loads.len() as f64);
    ratio(r.loads.iter().copied().max().unwrap_or(0) as f64, mean)
}

/// Runs `live_loopback` for about `seconds`: [`ROUNDS`] rounds, each
/// reporting into the medians.
///
/// Set-up time and latency are reported in reference units (see
/// [`crate::calib`]): after each round, with the cluster shut down, the
/// main thread times [`GAP_PROBES`] calibration probes, and each round's
/// figures are scaled by the reference probe time over the mean probe
/// time of the gaps on either side of it. The kernel is allocated after
/// the first round, once the peak RSS is read.
pub fn measure(seed: u64, seconds: f64, out: &mut Outcome) {
    let epoch = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut calib: Option<Calib> = None;
    // Mean probe time of the gap after each round.
    let mut gaps: Vec<f64> = Vec::new();
    let mut subs = 0;
    let mut rss_mb = 0.0;
    // Set-up and clock probes take a few tens of milliseconds.
    let window_s = (seconds / ROUNDS as f64 - WARMUP_S - RESERVE_S - 0.05).max(1.0);
    for i in 0..ROUNDS {
        let mut off = Spans::off();
        let draw = crate::sim::draw_seed(seed, i);
        let Some((cluster, r)) = round(
            draw,
            epoch,
            window_s,
            &mut off,
            out,
            |c, begin, count, next_id, spans| {
                publish_stream(&c.handles, &mut c.gen, epoch, begin, count, next_id, spans)
            },
        ) else {
            return;
        };
        judge(&cluster, &r, out);
        if i == 0 {
            // Later rounds redo the same work on fresh clusters; read the
            // high-water mark before their threads and buffers come and go.
            rss_mb = crate::peak_rss_mb();
        }
        subs += cluster.subs.len();
        cluster.shutdown();
        rounds.push(r);
        let calib = calib.get_or_insert_with(Calib::new);
        let probes: f64 = (0..GAP_PROBES).map(|_| calib.probe()).sum();
        gaps.push(probes / GAP_PROBES as f64);
    }
    // Round `i` lies between gaps `i - 1` and `i`.
    let scale: Vec<f64> = (0..rounds.len())
        .map(|i| {
            let around = &gaps[i.saturating_sub(1)..=i];
            calib::to_reference(1.0, around.iter().sum::<f64>() / around.len() as f64)
        })
        .collect();
    let per = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let p50s = per(&|r| median(&r.latencies()));
    let p90s = per(&|r| percentile_of(&r.latencies(), 90.0));
    let p99s = per(&|r| percentile_of(&r.latencies(), 99.0));
    let raw_slices: Vec<Vec<f64>> = rounds.iter().flat_map(Round::slices).collect();
    let slices: Vec<Vec<f64>> = rounds
        .iter()
        .zip(&scale)
        .flat_map(|(r, &f)| {
            r.slices()
                .into_iter()
                .map(move |s| s.iter().map(|l| l * f).collect())
        })
        .collect();
    let slice_p50s: Vec<f64> = slices.iter().map(|s| median(s)).collect();
    let slice_p90s: Vec<f64> = slices.iter().map(|s| percentile_of(s, 90.0)).collect();
    if slices.is_empty() {
        out.fail("no slice of any window held enough deliveries".to_string());
    }
    let all_lat: Vec<f64> = rounds.iter().flat_map(|r| r.latencies()).collect();
    let all_lag: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.lag.iter().map(|l| l * 1e3))
        .collect();
    let raw_setups = per(&|r| r.setup_s);
    let setups: Vec<f64> = raw_setups.iter().zip(&scale).map(|(s, f)| s * f).collect();
    let raw_slice_p50s: Vec<f64> = raw_slices.iter().map(|s| median(s)).collect();
    let clock_error = rounds.iter().map(|r| r.clock_error).fold(0.0, f64::max);
    out.note(format!(
        "{} rounds, each on its own workload draw, of {} window publishes at {RATE}/s after {} warm-up \
         publishes; clock offset error ≤ {:.1} us",
        rounds.len(),
        rounds[0].window.len(),
        (WARMUP_S * RATE) as usize,
        clock_error * 1e6
    ));
    out.note(format!(
        "round p50s (ms): {p50s:.4?}; p90s: {p90s:.4?}; p99s: {p99s:.4?}"
    ));
    out.note(format!(
        "host speed: mean calibration probe {:.4?} ms in the gaps after each round; rounds scaled by {:.4?} \
         to reference units",
        gaps.iter().map(|g| g * 1e3).collect::<Vec<_>>(),
        scale
    ));
    out.note(format!(
        "latency_ms_p50 = lower quartile over {} slices of {SLICE_S} s of the slice median, in reference ms \
         ({:.4} ms unscaled); slice medians (reference ms) p25 / p50 / p75 {:.4} / {:.4} / {:.4}; slice p90s \
         {:.4} / {:.4} / {:.4}",
        slices.len(),
        percentile_of(&raw_slice_p50s, 25.0),
        percentile_of(&slice_p50s, 25.0),
        percentile_of(&slice_p50s, 50.0),
        percentile_of(&slice_p50s, 75.0),
        percentile_of(&slice_p90s, 25.0),
        percentile_of(&slice_p90s, 50.0),
        percentile_of(&slice_p90s, 75.0)
    ));
    if let Some(s) = Summary::of(&all_lat) {
        out.note(format!(
            "wall_latency_ms, all rounds pooled: {}",
            s.describe("ms")
        ));
    }
    if let Some(s) = Summary::of(&all_lag) {
        out.note(format!("generator lag: {}", s.describe("ms")));
    }
    if let (Some(s), Some(raw)) = (Summary::of(&setups), Summary::of(&raw_setups)) {
        out.note(format!(
            "setup_s: {} in reference seconds; {} wall",
            s.describe("s"),
            raw.describe("s")
        ));
    }
    let sum = |f: &dyn Fn(&Round) -> u64| -> u64 { rounds.iter().map(f).sum() };
    let (flow_bytes, pubs) = (sum(&|r| r.counts.flow_bytes), sum(&|r| r.pubs.len() as u64));
    let ctrl = sum(&|r| r.counts.sent - r.counts.flow_msgs);
    out.note(format!(
        "bytes_per_pub = {flow_bytes} B / {pubs} publishes; ctrl_msgs_per_sub = {ctrl} msgs / {subs} subscribes; \
         load_max_over_mean = mean over rounds of max / mean node load"
    ));
    out.metric("setup_s", median(&setups), "s");
    out.metric("ops_per_s", median(&per(&|r| r.ops_per_s())), "ops/s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("latency_ms_p50", percentile_of(&slice_p50s, 25.0), "ms");
    out.metric("bytes_per_pub", ratio(flow_bytes as f64, pubs as f64), "B");
    out.metric("ctrl_msgs_per_sub", ratio(ctrl as f64, subs as f64), "msgs");
    let loads = per(&load_max_over_mean);
    out.metric(
        "load_max_over_mean",
        loads.iter().sum::<f64>() / loads.len() as f64,
        "ratio",
    );
}

/// The traced run: one round whose window is split into an untraced half
/// and a half under no-op driver probes and per-publish spans, then the
/// per-layer replays on the live cluster's state.
pub fn traced(seed: u64, seconds: f64, out: &mut Outcome, spans_path: &std::path::Path) {
    let epoch = Instant::now();
    let mut spans = Spans::on();
    let window_s = (seconds - WARMUP_S - RESERVE_S - 0.5).max(2.0);
    let mut plain: Vec<Published> = Vec::new();
    let mut rtts: Vec<f64> = Vec::new();
    let during =
        |c: &mut Cluster, begin: f64, count: usize, next_id: &mut u64, spans: &mut Spans| {
            let half = count / 2;
            let (a, mut lag) = publish_stream(
                &c.handles,
                &mut c.gen,
                epoch,
                begin,
                half,
                next_id,
                &mut Spans::off(),
            );
            let begin_b = begin + half as f64 / RATE;
            let stop = AtomicBool::new(false);
            let (b, lag_b) = std::thread::scope(|s| {
                let handles = &c.handles;
                let stop = &stop;
                let prober = s.spawn(move || {
                    let mut rtt = Vec::new();
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        handles[i % NODES].query(|_, _| ());
                        rtt.push(t.elapsed().as_secs_f64() * 1e6);
                        i += 1;
                        std::thread::sleep(PROBE_EVERY);
                    }
                    rtt
                });
                let r = publish_stream(
                    handles,
                    &mut c.gen,
                    epoch,
                    begin_b,
                    count - half,
                    next_id,
                    spans,
                );
                stop.store(true, Ordering::Relaxed);
                rtts = prober.join().expect("probe thread");
                r
            });
            lag.extend(lag_b);
            plain = a.clone();
            // The window as a whole: untraced half first.
            let mut all = a;
            all.extend(b);
            (all, lag)
        };
    let draw = crate::sim::draw_seed(seed, 0);
    let Some((cluster, r)) = round(draw, epoch, window_s, &mut spans, out, during) else {
        return;
    };
    judge(&cluster, &r, out);
    let plain_ids: std::collections::HashSet<u64> = plain.iter().map(|p| p.id).collect();
    let traced_half: Vec<Published> = r
        .window
        .iter()
        .filter(|p| !plain_ids.contains(&p.id))
        .cloned()
        .collect();
    let (plain_lat, _) = window_latencies(&plain, &r.delivered);
    let (traced_lat, _) = window_latencies(&traced_half, &r.delivered);

    let registry = Registry::new(vec![WorkloadSpec::paper_table1().scheme_def(0)]);
    let cfg = SystemConfig::default();
    let subs = &cluster.subs;
    let pubs = &r.pubs;
    let pairs = r.pairs();
    let history: Vec<IndexOp> = (0..subs.len()).map(IndexOp::Insert).collect();
    let lph_ns = layers::lph_hash(&mut spans, &registry, &cfg, pubs, subs);
    let chords: Vec<_> = cluster
        .handles
        .iter()
        .map(|h| h.query(|m, _| m.node.chord().clone()))
        .collect();
    let route = layers::route(&mut spans, &registry, &cfg, &chords, pubs);
    let mut repos = Vec::new();
    let mut index_bytes = 0u64;
    for h in &cluster.handles {
        let (rs, b) = h.query(|m, _| {
            let rs: Vec<_> = m.node.repos.iter().map(|(k, r)| (*k, r.clone())).collect();
            (rs, m.node.index_diag().bytes)
        });
        repos.extend(rs);
        index_bytes += b;
    }
    let m = layers::matching(&mut spans, &registry, &cfg, repos, pubs);
    let (ins_ns, rem_ns) = layers::index_writes(&mut spans, subs, &history);
    let codec = layers::codec(&mut spans, pubs, &pairs);
    // Protocol counters from each node's world: splits, fan-out sum and
    // count, registers, chain pushes, then the healing and load-balancing
    // counters (both planes are off here, so those read 0).
    let mut proto = [0u64; 9];
    for h in &cluster.handles {
        let p = h.query(|_, ctx| {
            let p = &ctx.world().metrics.proto;
            [
                p.delivery_splits.total(),
                p.delivery_fanout.sum(),
                p.delivery_fanout.count(),
                p.sub_registers.total(),
                p.chain_pushes.total(),
                p.lease_refreshes.total(),
                p.replica_entries.total(),
                p.migration_rounds.total(),
                p.migrated_subs.total(),
            ]
        });
        for (a, b) in proto.iter_mut().zip(p) {
            *a += b;
        }
    }
    let nsubs = subs.len() as f64;
    cluster.shutdown();
    let npubs = pubs.len() as f64;
    let lag_ms: Vec<f64> = r.lag.iter().map(|l| l * 1e3).collect();
    // The simulator's queue, engine and flight recorder take no part in
    // a live run.
    out.metric("simnet.queue.pops_per_op", 0.0, "pops/op");
    out.metric("simnet.queue.peak_depth", 0.0, "events");
    out.metric("simnet.queue.ns_per_op", 0.0, "ns");
    out.metric("simnet.engine.residual_share", 0.0, "ratio");
    out.metric("lph.hash.ns_per_call", lph_ns, "ns");
    out.metric(
        "chord.route.hops_mean",
        ratio(r.hops.iter().sum(), r.hops.len() as f64),
        "hops",
    );
    out.metric(
        "chord.route.hops_max",
        r.hops.iter().copied().fold(0.0, f64::max),
        "hops",
    );
    out.metric("chord.route.ns_per_hop", route.ns_per_hop, "ns");
    crate::sim::match_metrics(out, &m, npubs, index_bytes as f64);
    out.metric("core.index.ns_per_insert", ins_ns, "ns");
    out.metric("core.index.ns_per_remove", rem_ns, "ns");
    out.metric(
        "core.split.splits_per_pub",
        ratio(proto[0] as f64, npubs),
        "splits",
    );
    out.metric(
        "core.split.fanout_mean",
        ratio(proto[1] as f64, proto[2] as f64),
        "links",
    );
    out.metric(
        "core.split.msgs_per_pub",
        ratio(r.counts.flow_msgs as f64, npubs),
        "msgs",
    );
    out.metric(
        "core.install.registers_per_sub",
        ratio(proto[3] as f64, nsubs),
        "msgs",
    );
    out.metric(
        "core.install.chain_pushes_per_sub",
        ratio(proto[4] as f64, nsubs),
        "msgs",
    );
    out.metric("core.heal.lease_refreshes", proto[5] as f64, "count");
    out.metric("core.heal.replica_entries", proto[6] as f64, "count");
    out.metric("core.loadbal.rounds", proto[7] as f64, "count");
    out.metric("core.loadbal.migrated_subs", proto[8] as f64, "count");
    out.metric("core.msg.bytes_per_msg", codec.bytes_per_msg, "B");
    out.metric("core.msg.encode_ns", codec.encode_ns, "ns");
    out.metric("core.msg.decode_ns", codec.decode_ns, "ns");
    out.metric("net.driver.query_rtt_us_p50", median(&rtts), "us");
    out.metric(
        "net.driver.query_rtt_us_p99",
        percentile_of(&rtts, 99.0),
        "us",
    );
    out.metric("net.gen.lag_ms_p99", percentile_of(&lag_ms, 99.0), "ms");
    out.metric(
        "simnet.trace.overhead_ratio",
        ratio(median(&traced_lat), median(&plain_lat)),
        "ratio",
    );
    out.metric("simnet.trace.records_per_op", 0.0, "records");
    out.metric("simnet.trace.evicted_share", 0.0, "ratio");
    if let Some(s) = Summary::of(&rtts) {
        out.note(format!("driver query rtt: {}", s.describe("us")));
    }
    if let Some(s) = Summary::of(&lag_ms) {
        out.note(format!("generator lag: {}", s.describe("ms")));
    }
    out.note(format!(
        "trace overhead: latency median {:.4} ms under probes vs {:.4} ms without; route replay {} hops",
        median(&traced_lat),
        median(&plain_lat),
        route.hops
    ));
    crate::write_spans(&spans, spans_path, out);
}
