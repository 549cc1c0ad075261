//! The simulated workloads: `publish_steady` (data plane) and `sub_churn`
//! (control plane).
//!
//! One *repeat* builds a fresh network, installs the initial
//! subscriptions (set-up), then runs the timed phase. The repeats of a run
//! must agree bit for bit on every sim-domain number and on the run
//! digest; host timings are the medians over repeats.

use crate::calib::Calib;
use crate::cpu::{Laps, Stopwatch, Timing};
use crate::layers::{self, IndexOp};
use crate::oracle::{self, Published, SubLife, Verdict};
use crate::spans::Spans;
use crate::stats::{median, percentile_of, ratio, Summary};
use crate::Outcome;
use hypersub_core::advanced::SimAccess;
use hypersub_core::config::SystemConfig;
use hypersub_core::model::{Registry, SubId};
use hypersub_core::sim::{Network, TopologyKind};
use hypersub_simnet::SimTime;
use hypersub_workload::{WorkloadGen, WorkloadSpec};
use std::time::Instant;

/// Which simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// ~1k nodes, subscriptions installed once, one long publish stream.
    Steady,
    /// 512 nodes with LB and self-healing, alternating subscribe and
    /// unsubscribe with a light publish stream in between.
    Churn,
}

const STEADY_NODES: usize = 1024;
const STEADY_SUBS_PER_NODE: usize = 5;
const STEADY_EVENTS: usize = 3000;

/// `run_until` slices per lap of the timed phase.
const STEADY_LAP_SLICES: u64 = 4;

const CHURN_NODES: usize = 512;
const CHURN_SUBS_PER_NODE: usize = 4;
/// Simulated settle time after the initial install.
const CHURN_SETTLE: SimTime = SimTime::from_secs(5);
/// Each slot subscribes (even slots) or unsubscribes (odd slots), then
/// publishes one event.
const CHURN_SLOT: SimTime = SimTime::from_millis(50);
const CHURN_SLOTS: u64 = 1200;
/// Slots per lap of the timed phase (one simulated second).
const CHURN_LAP_SLOTS: u64 = 20;
/// Simulated time after the last operation for deliveries to finish.
const CHURN_DRAIN: SimTime = SimTime::from_secs(10);
/// The oracle's settle window: a pair whose subscribe or unsubscribe lies
/// within this many seconds of the publish, either side, is in flux.
const SETTLE_WINDOW_S: f64 = 3.0;

/// Nodes whose initial subscriptions make one lap of the set-up.
const SETUP_LAP_NODES: usize = 128;
/// Slice length of `run_until` in the timed phase; in the drain of
/// `sub_churn` each slice is also one lap.
const SLICE: SimTime = SimTime::from_secs(1);
/// Flight-recorder capacity of traced runs.
const TRACE_CAPACITY: usize = 1 << 20;

/// What the benchmark fed the system and when: the oracle's ledger.
#[derive(Default)]
struct Inputs {
    subs: Vec<SubLife>,
    pubs: Vec<Published>,
    history: Vec<IndexOp>,
    subscribes: u64,
    unsubscribes: u64,
    unsubscribe_errors: u64,
}

/// Sim-domain results: exact, and required to repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Exact {
    digest: u64,
    steps: u64,
    /// Publish-to-delivery latency of every delivered pair, ms.
    latency_ms: Vec<f64>,
    publishes: u64,
    subscribes: u64,
    flow_bytes: u64,
    flow_msgs: u64,
    total_msgs: u64,
    load_max: u64,
    load_mean: f64,
}

impl Exact {
    fn ctrl_msgs(&self) -> u64 {
        self.total_msgs - self.flow_msgs
    }

    fn load_max_over_mean(&self) -> f64 {
        ratio(self.load_max as f64, self.load_mean)
    }
}

struct Repeat {
    /// Every operation the repeat made, initial subscriptions included.
    attempted: u64,
    setup: Timing,
    timed: Timing,
    ops: u64,
    steps_timed: u64,
    peak_depth: usize,
    net: Network,
    inputs: Inputs,
    exact: Exact,
}

fn secs(t: SimTime) -> f64 {
    t.as_micros() as f64 / 1e6
}

fn run_once(
    shape: Shape,
    seed: u64,
    spans: &mut Spans,
    recorder: Option<usize>,
    mut calib: Option<&mut Calib>,
) -> Repeat {
    let spec = WorkloadSpec::paper_table1();
    let registry = Registry::new(vec![spec.scheme_def(0)]);
    let (nodes, per_node, cfg) = match shape {
        Shape::Steady => (STEADY_NODES, STEADY_SUBS_PER_NODE, SystemConfig::default()),
        Shape::Churn => (
            CHURN_NODES,
            CHURN_SUBS_PER_NODE,
            SystemConfig::default().with_lb().with_self_healing(),
        ),
    };
    let mut inputs = Inputs::default();

    let setup_span = spans.enter("setup", None);
    let mut setup_laps = Laps::start(calib.as_deref_mut());
    let mut builder = Network::builder(nodes)
        .registry(registry)
        .config(cfg)
        .topology(TopologyKind::KingLike(SimTime::from_millis(180)))
        .seed(crate::NET_SEED);
    if let Some(cap) = recorder {
        builder = builder.flight_recorder(cap);
    }
    let mut net = spans.time("setup.build", None, || {
        builder.build().expect("valid workload configuration")
    });
    setup_laps.lap();
    let mut gen = WorkloadGen::new(spec, seed);
    let sub_span = spans.enter("setup.subscribe_loop", None);
    for node in 0..nodes {
        for _ in 0..per_node {
            subscribe(&mut net, &mut gen, &mut inputs, node);
        }
        if (node + 1) % SETUP_LAP_NODES == 0 {
            setup_laps.lap();
        }
    }
    spans.exit(sub_span);
    let settle = spans.enter("setup.settle", None);
    match shape {
        Shape::Steady => net.run_to_quiescence(),
        Shape::Churn => net.run_until(net.time() + CHURN_SETTLE),
    }
    spans.exit(settle);
    setup_laps.lap();
    let setup = setup_laps.timing();
    spans.exit(setup_span);
    let initial = inputs.subscribes;

    let timed_span = spans.enter("timed", None);
    let steps_before = net.steps();
    let mut laps = Laps::start(calib);
    let mut peak_depth = 0usize;
    let ops = match shape {
        Shape::Steady => {
            let mut t = net.time() + SimTime::from_secs(1);
            for _ in 0..STEADY_EVENTS {
                let node = gen.random_node(nodes);
                let point = gen.event_point();
                let id = net
                    .schedule_publish(t, node, 0, point.clone())
                    .expect("publisher index in range");
                inputs.pubs.push(Published {
                    id,
                    node,
                    at: secs(t),
                    point,
                });
                t += gen.interarrival();
            }
            laps.lap();
            for slice in 1.. {
                let until = net.time() + SLICE;
                spans.time("sim.run_until", None, || net.run_until(until));
                let depth = net.sim().pending();
                peak_depth = peak_depth.max(depth);
                if depth == 0 || slice % STEADY_LAP_SLICES == 0 {
                    laps.lap();
                }
                if depth == 0 {
                    break;
                }
            }
            STEADY_EVENTS as u64
        }
        Shape::Churn => {
            let start = net.time();
            let mut live: Vec<usize> = (0..inputs.subs.len()).collect();
            let mut ops = 0;
            for k in 0..CHURN_SLOTS {
                let at = SimTime::from_micros(start.as_micros() + k * CHURN_SLOT.as_micros());
                spans.time("sim.run_until", None, || net.run_until(at));
                peak_depth = peak_depth.max(net.sim().pending());
                if k % 2 == 0 {
                    let node = gen.random_node(nodes);
                    live.push(inputs.subs.len());
                    subscribe(&mut net, &mut gen, &mut inputs, node);
                } else {
                    let i = live.swap_remove(gen.random_node(live.len()));
                    let s = &mut inputs.subs[i];
                    if net.unsubscribe(s.node, s.id).is_err() {
                        inputs.unsubscribe_errors += 1;
                    }
                    s.off = Some(secs(at));
                    inputs.history.push(IndexOp::Remove(i));
                    inputs.unsubscribes += 1;
                }
                let node = gen.random_node(nodes);
                let point = gen.event_point();
                let id = net
                    .publish(node, 0, point.clone())
                    .expect("publisher index in range");
                inputs.pubs.push(Published {
                    id,
                    node,
                    at: secs(at),
                    point,
                });
                ops += 2;
                if (k + 1) % CHURN_LAP_SLOTS == 0 {
                    laps.lap();
                }
            }
            let end = net.time() + CHURN_DRAIN;
            while net.time() < end {
                let until = net.time() + SLICE;
                spans.time("sim.run_until", None, || net.run_until(until));
                peak_depth = peak_depth.max(net.sim().pending());
                laps.lap();
            }
            ops
        }
    };
    let timed = laps.timing();
    spans.exit(timed_span);
    let steps_timed = net.steps() - steps_before;
    let exact = exact_of(&net, &inputs);
    Repeat {
        attempted: initial + ops,
        setup,
        timed,
        ops,
        steps_timed,
        peak_depth,
        net,
        inputs,
        exact,
    }
}

fn subscribe(net: &mut Network, gen: &mut WorkloadGen, inputs: &mut Inputs, node: usize) {
    let sub = gen.subscription();
    let rect = sub.rect.clone();
    let id = net.subscribe(node, 0, sub);
    inputs.history.push(IndexOp::Insert(inputs.subs.len()));
    inputs.subs.push(SubLife {
        id,
        node,
        rect,
        on: secs(net.time()),
        off: None,
    });
    inputs.subscribes += 1;
}

fn exact_of(net: &Network, inputs: &Inputs) -> Exact {
    let publishes = net.metrics().publishes();
    let latency_ms = net
        .deliveries()
        .iter()
        .map(|d| {
            let sent = publishes.get(&d.event).map_or(d.time, |p| p.time);
            d.time.saturating_sub(sent).as_micros() as f64 / 1e3
        })
        .collect();
    let (flow_bytes, flow_msgs) = net
        .net()
        .flows()
        .values()
        .fold((0, 0), |(b, m), f| (b + f.bytes, m + f.msgs));
    let loads = net.node_loads();
    Exact {
        digest: net.run_digest(),
        steps: net.steps(),
        latency_ms,
        publishes: inputs.pubs.len() as u64,
        subscribes: inputs.subscribes,
        flow_bytes,
        flow_msgs,
        total_msgs: net.net().total_msgs(),
        load_max: loads.iter().copied().max().unwrap_or(0),
        load_mean: ratio(loads.iter().sum::<u64>() as f64, loads.len() as f64),
    }
}

/// The oracle's settle window: none without churn.
fn settle_window(shape: Shape) -> f64 {
    match shape {
        Shape::Steady => 0.0,
        Shape::Churn => SETTLE_WINDOW_S,
    }
}

fn verdict(rep: &Repeat, shape: Shape) -> Verdict {
    let delivered: Vec<(u64, SubId)> = rep
        .net
        .deliveries()
        .iter()
        .map(|d| (d.event, d.subid))
        .collect();
    oracle::check(
        &rep.inputs.subs,
        &rep.inputs.pubs,
        &delivered,
        settle_window(shape),
    )
}

/// Independent workloads a measured run pools, each drawn from its own
/// seed derived from `--seed`. Pooling several draws keeps one draw's
/// quirks (a few very wide subscriptions, a hot publisher) from moving a
/// run's numbers far from another seed's.
fn workloads(shape: Shape) -> usize {
    match shape {
        Shape::Steady => 4,
        Shape::Churn => 3,
    }
}

/// The workload seed of draw `k` of a run with seed `seed`.
pub fn draw_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k as u64 + 1)
}

/// One draw's results over its repeats.
struct Draw {
    exact: Exact,
    verdict: Verdict,
    unsubscribe_errors: u64,
    ops: u64,
    steps_timed: u64,
    /// Timings of each repeat's timed phase.
    timed: Vec<Timing>,
}

impl Draw {
    /// Median over the repeats of one timing of the timed phase.
    fn median_of(&self, f: fn(&Timing) -> f64) -> f64 {
        median(&self.timed.iter().map(f).collect::<Vec<_>>())
    }
}

/// Fewest timed repeats of each draw in a measured run; the draw's timed
/// phase costs the median over them.
const REPEATS_PER_DRAW: usize = 3;

/// Runs a measured (untraced) sim workload for about `seconds`: the draws
/// round-robin, each at least [`REPEATS_PER_DRAW`] times, and every repeat
/// of a draw must match its first bit for bit. The run's first repeat is
/// a warm-up: it gives the oracle check and the peak RSS, runs before the
/// calibration kernel exists (so its memory is not counted) and is not
/// timed. Host timings are reported in reference seconds (see
/// [`crate::calib`]), with the simulator thread's on-CPU and wall seconds
/// alongside.
pub fn measure(shape: Shape, seed: u64, seconds: f64, out: &mut Outcome) {
    let start = Instant::now();
    let mut off = Spans::off();
    let k_count = workloads(shape);
    let mut setups = Vec::new();
    let mut draws: Vec<Draw> = Vec::new();
    // Read once the first repeat and its oracle check are done: later
    // repeats redo the same work, and what they add to the high-water mark
    // is allocator reuse that depends on how many repeats fit the budget.
    let mut rss_mb = 0.0;
    let mut i = 0usize;
    let clock = Stopwatch::start().clock();
    let mut calib: Option<Calib> = None;
    loop {
        let k = i % k_count;
        let rep = run_once(shape, draw_seed(seed, k), &mut off, None, calib.as_mut());
        let timed = calib.is_some();
        if timed {
            setups.push(rep.setup);
        }
        out.attempted += rep.attempted;
        if let Some(d) = draws.get_mut(k) {
            if d.exact != rep.exact {
                out.fail(format!(
                    "draw {k} repeat {} diverged from its first: digest {:#018x} vs {:#018x}",
                    d.timed.len() + 1,
                    rep.exact.digest,
                    d.exact.digest
                ));
                out.failed += rep.attempted;
            } else {
                out.failed += d.verdict.bad_publishes + d.unsubscribe_errors;
            }
            if timed {
                d.timed.push(rep.timed);
            }
        } else {
            let v = verdict(&rep, shape);
            if !timed {
                rss_mb = crate::peak_rss_mb();
                calib = Some(Calib::new());
            }
            out.failed += v.bad_publishes + rep.inputs.unsubscribe_errors;
            draws.push(Draw {
                exact: rep.exact.clone(),
                verdict: v,
                unsubscribe_errors: rep.inputs.unsubscribe_errors,
                ops: rep.ops,
                steps_timed: rep.steps_timed,
                timed: if timed { vec![rep.timed] } else { Vec::new() },
            });
        }
        drop(rep);
        i += 1;
        let per = start.elapsed().as_secs_f64() / i as f64;
        if i > REPEATS_PER_DRAW * k_count && start.elapsed().as_secs_f64() + per > seconds {
            break;
        }
    }
    let mut v = Verdict::default();
    let mut errors = 0;
    for d in &draws {
        v.expected += d.verdict.expected;
        v.missed += d.verdict.missed;
        v.spurious += d.verdict.spurious;
        v.duplicates += d.verdict.duplicates;
        v.in_flux += d.verdict.in_flux;
        v.bad_publishes += d.verdict.bad_publishes;
        errors += d.unsubscribe_errors;
    }
    judge(shape, &v, errors, out);
    let sum = |f: &dyn Fn(&Draw) -> f64| -> f64 { draws.iter().map(f).sum() };
    let lat: Vec<f64> = draws
        .iter()
        .flat_map(|d| d.exact.latency_ms.iter().copied())
        .collect();
    let lat_summary = Summary::of(&lat);
    let pct = |p: f64| percentile_of(&lat, p);
    for (k, d) in draws.iter().enumerate() {
        out.note(format!(
            "draw {k} (seed {}): {} timed repeats, digest {:#018x} identical across them, {} sim events in the \
             timed phase; median timed phase {:.4} reference s, {:.4} s {clock}, {:.4} s wall",
            draw_seed(seed, k),
            d.timed.len(),
            d.exact.digest,
            d.steps_timed,
            d.median_of(|t| t.reference_s),
            d.median_of(|t| t.host_s),
            d.median_of(|t| t.wall_s)
        ));
    }
    let ops = sum(&|d| d.ops as f64);
    let timed = sum(&|d| d.median_of(|t| t.reference_s));
    let timed_host = sum(&|d| d.median_of(|t| t.host_s));
    let setup_of = |f: fn(&Timing) -> f64| setups.iter().map(f).collect::<Vec<_>>();
    let (flow_bytes, pubs) = (
        sum(&|d| d.exact.flow_bytes as f64),
        sum(&|d| d.exact.publishes as f64),
    );
    let (ctrl, subs) = (
        sum(&|d| d.exact.ctrl_msgs() as f64),
        sum(&|d| d.exact.subscribes as f64),
    );
    let load = sum(&|d| d.exact.load_max_over_mean()) / draws.len() as f64;
    out.note(format!(
        "setup_s: {} in reference seconds; {} {clock}",
        Summary::of(&setup_of(|t| t.reference_s))
            .expect("repeats ran")
            .describe("s"),
        Summary::of(&setup_of(|t| t.host_s))
            .expect("repeats ran")
            .describe("s")
    ));
    out.note(format!(
        "ops_per_s = {ops} ops / {timed:.4} reference s (sum over draws of the median timed phase); \
         {:.1} ops/s in {clock}",
        ratio(ops, timed_host)
    ));
    if let Some(s) = &lat_summary {
        out.note(format!(
            "sim_latency_ms: {}; p90 {} ms, p99 {} ms",
            s.describe("ms"),
            pct(90.0),
            pct(99.0)
        ));
    }
    out.note(format!(
        "bytes_per_pub = {flow_bytes} B event-flow bytes / {pubs} publishes; ctrl_msgs_per_sub = {ctrl} msgs / \
         {subs} subscribes; load_max_over_mean = mean over draws of max / mean node load"
    ));
    out.metric("setup_s", median(&setup_of(|t| t.reference_s)), "s");
    out.metric("ops_per_s", ratio(ops, timed), "ops/s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("latency_ms_p50", pct(50.0), "ms");
    out.metric("bytes_per_pub", ratio(flow_bytes, pubs), "B");
    out.metric("ctrl_msgs_per_sub", ratio(ctrl, subs), "msgs");
    out.metric("load_max_over_mean", load, "ratio");
}

/// Applies the oracle verdict and fails the run on refused unsubscribes.
fn judge(shape: Shape, v: &Verdict, unsubscribe_errors: u64, out: &mut Outcome) {
    out.verdict(v, settle_window(shape));
    if unsubscribe_errors > 0 {
        out.fail(format!(
            "{unsubscribe_errors} unsubscribe calls were refused"
        ));
    }
}

/// The traced run: one untraced repeat for reference, one traced repeat
/// with the flight recorder on, then the per-layer replays.
pub fn traced(shape: Shape, seed: u64, out: &mut Outcome, spans_path: &std::path::Path) {
    let mut off = Spans::off();
    let seed = draw_seed(seed, 0);
    let mut calib = Calib::new();
    let plain = run_once(shape, seed, &mut off, None, Some(&mut calib));
    let plain_timed = plain.timed.reference_s;
    let plain_host = plain.timed.host_s;
    let plain_exact = plain.exact.clone();
    drop(plain);

    let mut spans = Spans::on();
    let rep = run_once(
        shape,
        seed,
        &mut spans,
        Some(TRACE_CAPACITY),
        Some(&mut calib),
    );
    let v = verdict(&rep, shape);
    out.attempted += rep.attempted;
    out.failed += v.bad_publishes + rep.inputs.unsubscribe_errors;
    judge(shape, &v, rep.inputs.unsubscribe_errors, out);
    if rep.exact != plain_exact {
        out.fail("recording changed the run: traced and untraced digests differ".to_string());
    }
    let net = &rep.net;
    let inputs = &rep.inputs;
    let ops = rep.ops as f64;
    let pubs = inputs.pubs.len() as f64;
    let report = net.report();
    let registry = &*net.nodes()[0].registry;
    let cfg = &*net.nodes()[0].cfg;

    // simnet: queue replay over the recorded schedule.
    let recorder = net.recorder().expect("traced run records");
    let records: Vec<_> = recorder.iter().copied().collect();
    let (queue_ns, queue_ops) = layers::queue_replay(&mut spans, &records, net.topology().as_ref());
    // lph, chord, core replays.
    let lph_ns = layers::lph_hash(&mut spans, registry, cfg, &inputs.pubs, &inputs.subs);
    let chords: Vec<_> = net.nodes().iter().map(|n| n.chord().clone()).collect();
    let route = layers::route(&mut spans, registry, cfg, &chords, &inputs.pubs);
    let repos = net
        .nodes()
        .iter()
        .flat_map(|n| n.repos.iter().map(|(k, r)| (*k, r.clone())))
        .collect();
    let m = layers::matching(&mut spans, registry, cfg, repos, &inputs.pubs);
    let (ins_ns, rem_ns) = layers::index_writes(&mut spans, &inputs.subs, &inputs.history);
    let delivered: Vec<(u64, SubId)> = net
        .deliveries()
        .iter()
        .map(|d| (d.event, d.subid))
        .collect();
    let codec = layers::codec(&mut spans, &inputs.pubs, &delivered);

    let hops: Vec<f64> = net.deliveries().iter().map(|d| f64::from(d.hops)).collect();
    let mut index_bytes = 0u64;
    for n in net.nodes() {
        index_bytes += n.index_diag().bytes;
    }
    let fanout = report
        .histograms
        .iter()
        .find(|(n, _)| n == "delivery.fanout")
        .map_or(0.0, |(_, h)| ratio(h.sum as f64, h.count as f64));
    let subs = rep.exact.subscribes as f64;
    let traced_timed = rep.timed.reference_s;
    let residual = {
        let est_ns = queue_ns * 2.0 * rep.steps_timed as f64
            + lph_ns * (inputs.pubs.len() + inputs.subs.len()) as f64
            + route.ns_per_hop * rep.exact.total_msgs as f64
            + m.ns
            + ins_ns * inputs.subscribes as f64
            + rem_ns * inputs.unsubscribes as f64;
        1.0 - est_ns / (plain_host * 1e9)
    };

    out.metric(
        "simnet.queue.pops_per_op",
        ratio(rep.steps_timed as f64, ops),
        "pops/op",
    );
    out.metric("simnet.queue.peak_depth", rep.peak_depth as f64, "events");
    out.metric("simnet.queue.ns_per_op", queue_ns, "ns");
    out.metric("simnet.engine.residual_share", residual, "ratio");
    out.metric("lph.hash.ns_per_call", lph_ns, "ns");
    out.metric(
        "chord.route.hops_mean",
        ratio(hops.iter().sum(), hops.len() as f64),
        "hops",
    );
    out.metric(
        "chord.route.hops_max",
        hops.iter().copied().fold(0.0, f64::max),
        "hops",
    );
    out.metric("chord.route.ns_per_hop", route.ns_per_hop, "ns");
    match_metrics(out, &m, pubs, index_bytes as f64);
    out.metric("core.index.ns_per_insert", ins_ns, "ns");
    out.metric("core.index.ns_per_remove", rem_ns, "ns");
    out.metric(
        "core.split.splits_per_pub",
        ratio(report.counter_total("delivery.splits") as f64, pubs),
        "splits",
    );
    out.metric("core.split.fanout_mean", fanout, "links");
    out.metric(
        "core.split.msgs_per_pub",
        ratio(rep.exact.flow_msgs as f64, pubs),
        "msgs",
    );
    out.metric(
        "core.install.registers_per_sub",
        ratio(report.counter_total("install.sub_registers") as f64, subs),
        "msgs",
    );
    out.metric(
        "core.install.chain_pushes_per_sub",
        ratio(report.counter_total("install.chain_pushes") as f64, subs),
        "msgs",
    );
    out.metric(
        "core.heal.lease_refreshes",
        report.counter_total("repair.lease_refreshes") as f64,
        "count",
    );
    out.metric(
        "core.heal.replica_entries",
        report.counter_total("repair.replicas") as f64,
        "count",
    );
    out.metric(
        "core.loadbal.rounds",
        report.counter_total("lb.migration_rounds") as f64,
        "count",
    );
    out.metric(
        "core.loadbal.migrated_subs",
        report.counter_total("lb.migrated_subs") as f64,
        "count",
    );
    out.metric("core.msg.bytes_per_msg", codec.bytes_per_msg, "B");
    out.metric("core.msg.encode_ns", codec.encode_ns, "ns");
    out.metric("core.msg.decode_ns", codec.decode_ns, "ns");
    // The live driver is not part of a simulated run.
    out.metric("net.driver.query_rtt_us_p50", 0.0, "us");
    out.metric("net.driver.query_rtt_us_p99", 0.0, "us");
    out.metric("net.gen.lag_ms_p99", 0.0, "ms");
    out.metric(
        "simnet.trace.overhead_ratio",
        traced_timed / plain_timed,
        "ratio",
    );
    out.metric(
        "simnet.trace.records_per_op",
        ratio(recorder.recorded() as f64, ops),
        "records",
    );
    out.metric(
        "simnet.trace.evicted_share",
        ratio(recorder.evicted() as f64, recorder.recorded() as f64),
        "ratio",
    );

    out.note(format!(
        "queue replay: {queue_ops} schedule/pop ops over {} retained records; route replay: {} hops; \
         match replay: {} probes, {} candidates, {} matched",
        records.len(),
        route.hops,
        m.probes,
        m.candidates,
        m.matched
    ));
    out.note(format!(
        "timed phase: untraced {plain_timed:.4} reference s ({plain_host:.4} s on CPU), traced {traced_timed:.4} \
         reference s; recorder kept {} of {} records",
        recorder.len(),
        recorder.recorded()
    ));
    crate::write_spans(&spans, spans_path, out);
}

/// Emits the `core.match.*` and `core.index.bytes` metrics.
pub fn match_metrics(out: &mut Outcome, m: &layers::MatchReplay, pubs: f64, index_bytes: f64) {
    out.metric(
        "core.match.probes_per_pub",
        ratio(m.probes as f64, pubs),
        "probes",
    );
    out.metric(
        "core.match.candidates_per_probe",
        ratio(m.candidates as f64, m.probes as f64),
        "candidates",
    );
    out.metric(
        "core.match.useful_ratio",
        ratio(m.matched as f64, m.candidates as f64),
        "ratio",
    );
    out.metric(
        "core.match.ns_per_probe",
        ratio(m.ns, m.probes as f64),
        "ns",
    );
    out.metric("core.index.bytes", index_bytes, "B");
}
