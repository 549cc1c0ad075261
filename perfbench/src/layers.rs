//! Outside-in per-layer measurements.
//!
//! Each function here times calls into one layer's public functions on
//! the inputs and end state of a finished run, from the benchmark's own
//! files: no instrumentation inside the program. Every call batch is a
//! span, and per-event replays carry the event id as the span's flow.

use crate::oracle::{Published, SubLife};
use crate::spans::Spans;
use crate::stats::ratio;
use hypersub_chord::routing::route_path;
use hypersub_chord::ChordState;
use hypersub_core::config::SystemConfig;
use hypersub_core::index::HybridIndex;
use hypersub_core::model::{Event, Registry, SubId, SubTarget, Subscription};
use hypersub_core::msg::{DeliveryMsg, HyperMsg};
use hypersub_core::repo::{RepoKey, ZoneRepo};
use hypersub_lph::rotation::rotate_key;
use hypersub_lph::{lph_point, lph_rect, Point, Rect};
use hypersub_simnet::queue::EventQueue;
use hypersub_simnet::{SimEvent, SimTime, Topology, TraceEvent, TraceRecord, WireMsg};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One write the run made to the subscription set, as an index into the
/// ledger: the history the index-write replay feeds through the index.
#[derive(Debug, Clone, Copy)]
pub enum IndexOp {
    /// The ledger entry was subscribed.
    Insert(usize),
    /// The ledger entry was unsubscribed.
    Remove(usize),
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Each published point projected onto every subscheme, paired with the
/// subscheme index — the inputs every per-event replay starts from.
fn projections<'a>(registry: &'a Registry, pubs: &'a [Published]) -> Vec<(u64, usize, u8, Point)> {
    let scheme = registry.scheme(0);
    let mut out = Vec::new();
    for p in pubs {
        for ss in 0..scheme.subschemes.len() as u8 {
            out.push((p.id, p.node, ss, scheme.project_point(ss, &p.point)));
        }
    }
    out
}

/// The rendezvous key of a projected point (Algorithm 4's first step).
fn rendezvous_key(registry: &Registry, cfg: &SystemConfig, ss: u8, proj: &Point) -> u64 {
    let ssdef = &registry.scheme(0).subschemes[ss as usize];
    let leaf = lph_point(&cfg.zone, &ssdef.space, proj);
    rotate_key(leaf.key(&cfg.zone), ssdef.rotation)
}

/// `lph`: nanoseconds per hash call — `lph_point` + `rotate_key` on every
/// published point and `lph_rect` on every subscribed rectangle.
pub fn lph_hash(
    spans: &mut Spans,
    registry: &Registry,
    cfg: &SystemConfig,
    pubs: &[Published],
    subs: &[SubLife],
) -> f64 {
    let scheme = registry.scheme(0);
    let points = projections(registry, pubs);
    let rects: Vec<(u8, Rect)> = subs
        .iter()
        .map(|s| {
            let ss = scheme.choose_subscheme(&Subscription::new(s.rect.clone()));
            (ss, scheme.project_rect(ss, &s.rect))
        })
        .collect();
    let span = spans.enter("lph.hash", None);
    let t = Instant::now();
    for (_, _, ss, proj) in &points {
        black_box(rendezvous_key(registry, cfg, *ss, black_box(proj)));
    }
    for (ss, r) in &rects {
        let space = &scheme.subschemes[*ss as usize].space;
        black_box(lph_rect(&cfg.zone, space, black_box(r)));
    }
    let ns = elapsed_ns(t);
    spans.exit(span);
    ratio(ns, (points.len() + rects.len()) as f64)
}

/// `chord::routing` replay result.
pub struct RouteReplay {
    /// Hops walked over all replayed routes.
    pub hops: u64,
    /// Nanoseconds per hop (`next_hop` along `route_path`).
    pub ns_per_hop: f64,
}

/// `chord::routing`: walks `route_path` from each publisher to each
/// rendezvous key over the nodes' final Chord state.
pub fn route(
    spans: &mut Spans,
    registry: &Registry,
    cfg: &SystemConfig,
    chords: &[ChordState],
    pubs: &[Published],
) -> RouteReplay {
    let keys: Vec<(u64, usize, u64)> = projections(registry, pubs)
        .into_iter()
        .map(|(id, node, ss, proj)| (id, node, rendezvous_key(registry, cfg, ss, &proj)))
        .collect();
    let outer = spans.enter("chord.route", None);
    let mut hops = 0u64;
    let mut ns = 0.0;
    for &(id, from, key) in &keys {
        let s = spans.enter("chord.route.event", Some(id));
        let t = Instant::now();
        let path = route_path(black_box(chords), from, key);
        ns += elapsed_ns(t);
        spans.exit(s);
        hops += path.len() as u64 - 1;
    }
    spans.exit(outer);
    RouteReplay {
        hops,
        ns_per_hop: ratio(ns, hops as f64),
    }
}

/// `core::repo` + `core::index` read-side replay result.
#[derive(Debug, Default)]
pub struct MatchReplay {
    /// Repository probes (zones on the leaf-to-root walk that exist).
    pub probes: u64,
    /// Candidates examined over all probes.
    pub candidates: u64,
    /// Entries that matched.
    pub matched: u64,
    /// Nanoseconds spent in `match_point`.
    pub ns: f64,
}

/// `core::repo` + `core::index` (reads): for each published point, walks
/// its zone path from the leaf to the root and calls
/// `ZoneRepo::match_point` on a clone of every repository on the path.
/// One untimed pass first lets lazily built indexes come into being.
pub fn matching(
    spans: &mut Spans,
    registry: &Registry,
    cfg: &SystemConfig,
    repos: Vec<(RepoKey, ZoneRepo)>,
    pubs: &[Published],
) -> MatchReplay {
    let mut by_key: HashMap<RepoKey, ZoneRepo> = HashMap::new();
    for (k, r) in repos {
        by_key.entry(k).or_insert(r);
    }
    let points = projections(registry, pubs);
    let full: HashMap<u64, &Point> = pubs.iter().map(|p| (p.id, &p.point)).collect();
    let mut out = MatchReplay::default();
    let outer = spans.enter("core.match", None);
    for timed in [false, true] {
        for (id, _, ss, proj) in &points {
            let ssdef = &registry.scheme(0).subschemes[*ss as usize];
            let mut z = lph_point(&cfg.zone, &ssdef.space, proj);
            let name = if timed {
                "core.match.event"
            } else {
                "core.match.warm"
            };
            let s = spans.enter(name, Some(*id));
            loop {
                if let Some(repo) = by_key.get_mut(&(0, *ss, z)) {
                    let before = repo.index_diag().candidates_scanned;
                    let t = Instant::now();
                    let ids = repo.match_point(full[id], proj, cfg.index_mode);
                    let ns = elapsed_ns(t);
                    if timed {
                        let diag = repo.index_diag();
                        out.probes += 1;
                        out.ns += ns;
                        out.matched += ids.len() as u64;
                        // Small repositories are scanned linearly and
                        // count every entry as a candidate.
                        out.candidates += if diag.entries > 0 {
                            diag.candidates_scanned - before
                        } else {
                            repo.entries.len() as u64
                        };
                    }
                }
                match z.parent(&cfg.zone) {
                    Some(p) => z = p,
                    None => break,
                }
            }
            spans.exit(s);
        }
    }
    spans.exit(outer);
    out
}

/// `core::index` (writes): replays the run's subscription history through
/// `HybridIndex::insert` / `remove`. Returns nanoseconds per insert and
/// per remove. When the history holds no removals (no churn), every
/// entry is removed again in insertion order so both sides are measured.
pub fn index_writes(spans: &mut Spans, subs: &[SubLife], history: &[IndexOp]) -> (f64, f64) {
    let mut tail: Vec<IndexOp> = Vec::new();
    if !history.iter().any(|op| matches!(op, IndexOp::Remove(_))) {
        tail = history
            .iter()
            .filter_map(|op| match op {
                IndexOp::Insert(i) => Some(IndexOp::Remove(*i)),
                IndexOp::Remove(_) => None,
            })
            .collect();
    }
    let outer = spans.enter("core.index.write", None);
    let mut index = HybridIndex::build(std::iter::empty::<(&SubId, &Rect)>());
    let (mut ins, mut ins_ns, mut rem, mut rem_ns) = (0u64, 0.0, 0u64, 0.0);
    for op in history.iter().chain(&tail) {
        match *op {
            IndexOp::Insert(i) => {
                let t = Instant::now();
                black_box(index.insert(subs[i].id, &subs[i].rect));
                ins_ns += elapsed_ns(t);
                ins += 1;
            }
            IndexOp::Remove(i) => {
                let t = Instant::now();
                black_box(index.remove(&subs[i].id));
                rem_ns += elapsed_ns(t);
                rem += 1;
            }
        }
    }
    spans.exit(outer);
    (ratio(ins_ns, ins as f64), ratio(rem_ns, rem as f64))
}

/// `core::msg` encode/decode replay result.
pub struct CodecReplay {
    /// Mean encoded size of one delivery message, bytes.
    pub bytes_per_msg: f64,
    /// Nanoseconds per `to_wire_bytes`.
    pub encode_ns: f64,
    /// Nanoseconds per `from_wire_bytes`.
    pub decode_ns: f64,
}

/// `core::msg`: encodes and decodes one `DeliveryMsg` per published event,
/// carrying the event's real target list (the subscriptions it reached).
pub fn codec(spans: &mut Spans, pubs: &[Published], delivered: &[(u64, SubId)]) -> CodecReplay {
    let mut targets: HashMap<u64, Vec<SubTarget>> = HashMap::new();
    for &(event, sub) in delivered {
        targets.entry(event).or_default().push(SubTarget::sub(sub));
    }
    let msgs: Vec<HyperMsg> = pubs
        .iter()
        .map(|p| {
            HyperMsg::Delivery(DeliveryMsg {
                scheme: 0,
                ss: 0,
                event: Arc::new(Event {
                    id: p.id,
                    point: p.point.clone(),
                }),
                hops: 0,
                sender: None,
                targets: targets.remove(&p.id).unwrap_or_default(),
            })
        })
        .collect();
    let outer = spans.enter("core.msg", None);
    let t = Instant::now();
    let wires: Vec<Vec<u8>> = msgs.iter().map(|m| black_box(m).to_wire_bytes()).collect();
    let encode_ns = elapsed_ns(t);
    let t = Instant::now();
    for w in &wires {
        black_box(HyperMsg::from_wire_bytes(black_box(w)).expect("own encoding decodes"));
    }
    let decode_ns = elapsed_ns(t);
    spans.exit(outer);
    let n = msgs.len() as f64;
    CodecReplay {
        bytes_per_msg: ratio(wires.iter().map(|w| w.len() as f64).sum(), n),
        encode_ns: ratio(encode_ns, n),
        decode_ns: ratio(decode_ns, n),
    }
}

/// `simnet::queue`: replays the recorded message schedule through an
/// `EventQueue` — each recorded send schedules its delivery at send time
/// plus the topology's latency, each recorded delivery pops. Returns
/// nanoseconds per queue operation (schedule or pop) and the number of
/// operations.
pub fn queue_replay(spans: &mut Spans, records: &[TraceRecord], topo: &dyn Topology) -> (f64, u64) {
    let plan: Vec<Option<(SimTime, usize, usize)>> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::MsgSend { dst, .. } => {
                Some(Some((r.time + topo.latency(r.node, dst), r.node, dst)))
            }
            TraceEvent::MsgDeliver { .. } => Some(None),
            _ => None,
        })
        .collect();
    let outer = spans.enter("simnet.queue", None);
    let mut q: EventQueue<()> = EventQueue::new();
    let mut ops = 0u64;
    let t = Instant::now();
    for step in &plan {
        match *step {
            Some((at, src, dst)) => {
                q.schedule(at, SimEvent::Deliver { src, dst, msg: () });
                ops += 1;
            }
            None => {
                if black_box(q.pop()).is_some() {
                    ops += 1;
                }
            }
        }
    }
    let ns = elapsed_ns(t);
    spans.exit(outer);
    (ratio(ns, ops as f64), ops)
}
