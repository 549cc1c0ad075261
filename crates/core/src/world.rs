//! The shared simulation world: metric sinks, the ground-truth oracle and
//! the publish script.

use crate::index::Drift;
use crate::metrics::Metrics;
use crate::model::{Event, SchemeId, SubId, Subscription};
use hypersub_lph::{Point, Rect};
use hypersub_simnet::FxHashMap;
use hypersub_snapshot::{Decode, Encode, Error, Reader, Writer};

/// Ground truth: every subscription in the system, for computing expected
/// match sets (tests) and the matched-percentage metric (Figure 2a/5a).
///
/// Subscription ids are unique among live subscriptions: adding an id
/// that is already live replaces its registration.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Subscriptions in registration order; `None` marks a removed one
    /// until the next compaction.
    slots: Vec<Option<(SchemeId, SubId, Subscription)>>,
    /// The slot of every live subscription.
    slot_of: FxHashMap<SubId, u32>,
    /// Bucketing of the live slots by their leading attribute intervals,
    /// built on the first query after a compaction and then maintained in
    /// place by `add`/`remove`. The oracle is consulted once per
    /// published event; without this the linear scan over every
    /// subscription dominated the publish hot path.
    grid: Option<OracleGrid>,
    /// Mutations since the last compaction; past the shared drift rule
    /// the slots are compacted and the grid rebuilt with fresh geometry.
    drift: Drift,
}

/// Buckets subscription slots by their intervals on the first one or
/// two attributes (two when every registered rect has ≥ 2 dimensions). A
/// point query reads exactly one cell, so a subscription registered into
/// several cells can never produce a duplicate candidate.
///
/// The geometry is fixed at build time; rects and points outside it clamp
/// to the edge cells. Clamping is monotone, so a rect containing a point
/// always spans the point's cell, and later registrations stay exact.
#[derive(Debug)]
struct OracleGrid {
    /// Active axes; the rest are single-cell.
    dims: usize,
    lo: [f64; 2],
    width: [f64; 2],
    /// Cells per axis.
    n: [usize; 2],
    cells: Vec<Vec<u32>>,
}

impl OracleGrid {
    /// Cells per active axis (32² = 1024 cells in the 2-D case).
    const AXIS_CELLS: usize = 32;

    fn axis<'a>(rects: impl Iterator<Item = &'a Rect> + Clone, d: usize) -> (f64, f64) {
        let lo = rects.clone().map(|r| r.lo[d]).fold(f64::INFINITY, f64::min);
        let hi = rects.map(|r| r.hi[d]).fold(f64::NEG_INFINITY, f64::max);
        let span = hi - lo;
        // Degenerate spans (no subs, one value) collapse to one bucket.
        let width = if span.is_finite() && span > 0.0 {
            span / Self::AXIS_CELLS as f64
        } else {
            1.0
        };
        (if lo.is_finite() { lo } else { 0.0 }, width)
    }

    fn build(slots: &[Option<(SchemeId, SubId, Subscription)>]) -> Self {
        let rects = slots.iter().flatten().map(|(_, _, s)| &s.rect);
        let dims = rects.clone().map(|r| r.lo.len()).min().unwrap_or(0).min(2);
        let mut grid = Self {
            dims,
            lo: [0.0; 2],
            width: [1.0; 2],
            n: [1; 2],
            cells: Vec::new(),
        };
        for d in 0..dims {
            (grid.lo[d], grid.width[d]) = Self::axis(rects.clone(), d);
            grid.n[d] = Self::AXIS_CELLS;
        }
        grid.cells = vec![Vec::new(); grid.n[0] * grid.n[1]];
        for (i, slot) in slots.iter().enumerate() {
            if let Some((_, _, s)) = slot {
                grid.register(i as u32, &s.rect);
            }
        }
        grid
    }

    /// The cell index of `coords[d]` on axis `d` (0 on inactive axes).
    fn at(&self, coords: &[f64], d: usize) -> usize {
        if d >= self.dims {
            return 0;
        }
        // Negative-to-usize casts saturate to 0, clamping
        // out-of-range coordinates to the edge cells.
        (((coords[d] - self.lo[d]) / self.width[d]) as usize).min(self.n[d] - 1)
    }

    /// The indices of every cell `rect` spans (it must have at least
    /// `dims` dimensions).
    fn span(&self, rect: &Rect) -> impl Iterator<Item = usize> {
        let (x0, x1) = (self.at(&rect.lo, 0), self.at(&rect.hi, 0));
        let (y0, y1) = (self.at(&rect.lo, 1), self.at(&rect.hi, 1));
        let ny = self.n[1];
        (x0..=x1).flat_map(move |x| (y0..=y1).map(move |y| x * ny + y))
    }

    fn register(&mut self, slot: u32, rect: &Rect) {
        for c in self.span(rect) {
            self.cells[c].push(slot);
        }
    }

    fn unregister(&mut self, slot: u32, rect: &Rect) {
        for c in self.span(rect) {
            let cell = &mut self.cells[c];
            if let Some(k) = cell.iter().position(|&i| i == slot) {
                cell.swap_remove(k);
            }
        }
    }

    /// The candidate cell for `point`, or `None` when the point has fewer
    /// dimensions than the grid axes (caller falls back to the scan).
    fn cell(&self, point: &Point) -> Option<&[u32]> {
        if point.0.len() < self.dims {
            return None;
        }
        Some(&self.cells[self.at(&point.0, 0) * self.n[1] + self.at(&point.0, 1)])
    }
}

impl Oracle {
    /// Registers a subscription.
    pub fn add(&mut self, scheme: SchemeId, subid: SubId, sub: Subscription) {
        self.remove(subid);
        let slot = u32::try_from(self.slots.len()).expect("oracle slot exceeds u32");
        match &mut self.grid {
            Some(grid) if sub.rect.lo.len() >= grid.dims => grid.register(slot, &sub.rect),
            // A rect with fewer dimensions than the grid axes cannot be
            // bucketed; the next query rebuilds over fewer axes.
            _ => self.grid = None,
        }
        self.slots.push(Some((scheme, subid, sub)));
        self.slot_of.insert(subid, slot);
        self.note_mutation();
    }

    /// Removes a subscription (unsubscribe). Returns whether it existed.
    pub fn remove(&mut self, subid: SubId) -> bool {
        let Some(slot) = self.slot_of.remove(&subid) else {
            return false;
        };
        let (_, _, sub) = self.slots[slot as usize].take().expect("live oracle slot");
        if let Some(grid) = &mut self.grid {
            grid.unregister(slot, &sub.rect);
        }
        self.note_mutation();
        true
    }

    fn note_mutation(&mut self) {
        if self.drift.bump() {
            self.compact();
        }
    }

    /// Drops removed slots (renumbering the live ones), discards the grid
    /// and restarts the drift count.
    fn compact(&mut self) {
        if self.slots.len() != self.slot_of.len() {
            self.slots.retain(Option::is_some);
            for (i, (_, id, _)) in self.slots.iter().flatten().enumerate() {
                self.slot_of.insert(*id, i as u32);
            }
        }
        self.grid = None;
        self.drift.reset(self.slots.len());
    }

    /// The live subscriptions in registration order.
    fn live(&self) -> impl Iterator<Item = &(SchemeId, SubId, Subscription)> {
        self.slots.iter().flatten()
    }

    /// Total subscriptions across all schemes.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// True when no subscriptions exist.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// The exact set of subscriptions matching `point` in `scheme`.
    pub fn expected_matches(&self, scheme: SchemeId, point: &Point) -> Vec<SubId> {
        let ev = Event {
            id: 0,
            point: point.clone(),
        };
        let mut out: Vec<SubId> = self
            .live()
            .filter(|(s, _, sub)| *s == scheme && sub.matches(&ev))
            .map(|(_, id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    /// `expected_matches(..).len()` without materializing the id list:
    /// candidates come from the grid cell covering `point`
    /// and each is verified with the exact containment test, so the count
    /// is identical to the linear scan's. `&mut self` only because the
    /// grid builds lazily on first use.
    pub fn expected_count(&mut self, scheme: SchemeId, point: &Point) -> usize {
        if self.grid.is_none() {
            self.compact();
            self.grid = Some(OracleGrid::build(&self.slots));
        }
        let grid = self.grid.as_ref().expect("just built");
        match grid.cell(point) {
            Some(cell) => cell
                .iter()
                .filter(|&&i| {
                    let (s, _, sub) = self.slots[i as usize].as_ref().expect("live oracle slot");
                    *s == scheme && sub.rect.contains_point(point)
                })
                .count(),
            None => self.expected_matches(scheme, point).len(),
        }
    }
}

/// The shared world threaded through the simulator.
#[derive(Debug, Default)]
pub struct HyperWorld {
    /// Metric sink.
    pub metrics: Metrics,
    /// Ground-truth subscription registry.
    pub oracle: Oracle,
    /// Scripted events, consumed by publish timers (indexed by the timer
    /// token's low bits).
    pub script: Vec<Option<(SchemeId, Event)>>,
}

impl HyperWorld {
    /// Takes scripted event `idx` (panics if fired twice — each scripted
    /// publish must run exactly once).
    pub fn take_scripted(&mut self, idx: usize) -> (SchemeId, Event) {
        self.script[idx]
            .take()
            .expect("scripted event fired twice or never scheduled")
    }
}

impl Encode for Oracle {
    fn encode(&self, w: &mut Writer) {
        // The live subscriptions in registration order; removed slots and
        // the grid are derived state and rebuild on demand.
        w.put_u64(self.len() as u64);
        for (scheme, subid, sub) in self.live() {
            w.put_u32(*scheme);
            subid.encode(w);
            sub.encode(w);
        }
    }
}

impl Decode for Oracle {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let n = r.take_u64()? as usize;
        let mut oracle = Oracle::default();
        for _ in 0..n {
            let scheme = r.take_u32()?;
            let subid = SubId::decode(r)?;
            let sub = Subscription::decode(r)?;
            oracle.add(scheme, subid, sub);
        }
        Ok(oracle)
    }
}

impl Encode for HyperWorld {
    fn encode(&self, w: &mut Writer) {
        self.metrics.encode(w);
        self.oracle.encode(w);
        w.put_u64(self.script.len() as u64);
        for slot in &self.script {
            match slot {
                Some((scheme, event)) => {
                    w.put_u8(1);
                    w.put_u32(*scheme);
                    event.encode(w);
                }
                None => w.put_u8(0),
            }
        }
    }
}

impl Decode for HyperWorld {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let metrics = Metrics::decode(r)?;
        let oracle = Oracle::decode(r)?;
        let n = r.take_u64()? as usize;
        let mut script = Vec::with_capacity(n);
        for _ in 0..n {
            script.push(match r.take_u8()? {
                0 => None,
                1 => Some((r.take_u32()?, Event::decode(r)?)),
                _ => return Err(Error::InvalidValue("script slot tag")),
            });
        }
        Ok(HyperWorld {
            metrics,
            oracle,
            script,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_lph::ContentSpace;
    use proptest::prelude::*;

    #[test]
    fn oracle_matches_brute_force() {
        let space = ContentSpace::uniform(2, 0.0, 10.0);
        let mut o = Oracle::default();
        let sub_a = Subscription::new(Rect::new(vec![0.0, 0.0], vec![5.0, 5.0]));
        let sub_b = Subscription::new(Rect::new(vec![4.0, 4.0], vec![9.0, 9.0]));
        let _ = space;
        o.add(0, SubId { nid: 1, iid: 1 }, sub_a);
        o.add(0, SubId { nid: 2, iid: 1 }, sub_b.clone());
        o.add(1, SubId { nid: 3, iid: 1 }, sub_b);
        let m = o.expected_matches(0, &Point(vec![4.5, 4.5]));
        assert_eq!(m.len(), 2);
        let m = o.expected_matches(0, &Point(vec![8.0, 8.0]));
        assert_eq!(m, vec![SubId { nid: 2, iid: 1 }]);
        // Scheme 1 is separate.
        let m = o.expected_matches(1, &Point(vec![8.0, 8.0]));
        assert_eq!(m, vec![SubId { nid: 3, iid: 1 }]);
    }

    #[test]
    fn expected_count_equals_linear_scan() {
        let mut o = Oracle::default();
        // Empty oracle (degenerate grid span).
        assert_eq!(o.expected_count(0, &Point(vec![3.0, 3.0])), 0);
        for i in 0..50u64 {
            let x = (i * 7 % 100) as f64;
            let y = (i * 13 % 100) as f64;
            o.add(
                (i % 2) as SchemeId,
                SubId { nid: i, iid: 1 },
                Subscription::new(Rect::new(
                    vec![x * 0.9, y * 0.9],
                    vec![(x + 5.0).min(100.0), (y + 9.0).min(100.0)],
                )),
            );
        }
        let probe = |o: &mut Oracle| {
            for px in [0.0, 13.0, 49.5, 77.0, 100.0, 120.0, -5.0] {
                for py in [0.0, 42.0, 88.8] {
                    let p = Point(vec![px, py]);
                    for scheme in 0..2 {
                        assert_eq!(
                            o.expected_count(scheme, &p),
                            o.expected_matches(scheme, &p).len(),
                            "scheme {scheme} point {px},{py}"
                        );
                    }
                }
            }
        };
        probe(&mut o);
        // Mutations update the grid in place; counts must stay exact.
        assert!(o.remove(SubId { nid: 7, iid: 1 }));
        o.add(
            0,
            SubId { nid: 99, iid: 1 },
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])),
        );
        probe(&mut o);
    }

    fn sub(lo: &[f64], hi: &[f64]) -> Subscription {
        Subscription::new(Rect::new(lo.to_vec(), hi.to_vec()))
    }

    fn encoded(o: &Oracle) -> Vec<u8> {
        let mut w = Writer::new();
        o.encode(&mut w);
        w.into_vec()
    }

    #[test]
    fn mutation_below_drift_threshold_keeps_the_grid() {
        let mut o = Oracle::default();
        for i in 0..40u64 {
            let x = i as f64;
            o.add(
                0,
                SubId { nid: i, iid: 1 },
                sub(&[x, 0.0], &[x + 5.0, 10.0]),
            );
        }
        let p = Point(vec![12.0, 5.0]);
        assert_eq!(o.expected_count(0, &p), 6);
        // Outside the built geometry: clamps to an edge cell, no rebuild.
        o.add(
            0,
            SubId { nid: 99, iid: 1 },
            sub(&[-50.0, -50.0], &[200.0, 200.0]),
        );
        assert!(o.remove(SubId { nid: 10, iid: 1 }));
        assert!(
            o.grid.is_some(),
            "two mutations over 40 subscriptions kept the grid"
        );
        assert_eq!(o.expected_count(0, &p), 6);
        assert_eq!(o.expected_count(0, &Point(vec![150.0, -9.0])), 1);
        // A removed slot stays a tombstone until the next compaction.
        assert_eq!((o.slots.len(), o.len()), (41, 40));
        // Past a quarter of the build-time size the oracle compacts and
        // the next query rebuilds the grid.
        for i in 0..9u64 {
            o.remove(SubId { nid: i, iid: 1 });
        }
        assert!(
            o.grid.is_none(),
            "11 mutations over 40 subscriptions dropped the grid"
        );
        assert_eq!(o.slots.len(), o.len());
        assert_eq!(o.expected_count(0, &p), 4);
        assert!(o.grid.is_some());
    }

    #[test]
    fn fewer_dimensioned_rect_invalidates_the_grid() {
        let mut o = Oracle::default();
        for i in 0..8u64 {
            let x = i as f64;
            o.add(
                0,
                SubId { nid: i, iid: 1 },
                sub(&[x, x], &[x + 1.0, x + 1.0]),
            );
        }
        assert_eq!(o.expected_count(0, &Point(vec![3.5, 3.5])), 1);
        assert_eq!(o.grid.as_ref().map(|g| g.dims), Some(2));
        o.add(1, SubId { nid: 50, iid: 1 }, sub(&[2.0], &[4.0]));
        assert!(o.grid.is_none());
        assert_eq!(o.expected_count(1, &Point(vec![3.0])), 1);
        assert_eq!(o.grid.as_ref().map(|g| g.dims), Some(1));
    }

    /// One step of an oracle history: add (or re-add) an id, or remove
    /// one whether or not it is live; then maybe probe a point. Bounds
    /// carry three coordinates, cut to the scheme's dimensionality.
    #[derive(Clone, Debug)]
    enum Step {
        Add(SchemeId, u64, Vec<(f64, f64)>),
        Remove(u64),
    }

    fn arb_step() -> impl Strategy<Value = (Step, Option<(SchemeId, Vec<f64>)>)> {
        let side = (0.0f64..100.0, 0.0f64..40.0);
        (
            (
                0u32..3,
                0u64..40,
                0u32..2,
                prop::collection::vec(side, 3..4),
            ),
            (
                0u32..4,
                0u32..2,
                prop::collection::vec(-20.0f64..140.0, 3..4),
            ),
        )
            .prop_map(|((kind, id, scheme, sides), (probe, pscheme, point))| {
                let step = match kind {
                    0 => Step::Remove(id),
                    _ => Step::Add(scheme, id, sides),
                };
                (step, (probe > 0).then_some((pscheme, point)))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_incremental_oracle_matches_linear_model(
            schemes in 1u32..3,
            dims in (1usize..4, 1usize..4),
            steps in prop::collection::vec(arb_step(), 1..300),
        ) {
            // Each scheme has a fixed dimensionality, as in the system.
            let dim = |s: SchemeId| if s == 0 { dims.0 } else { dims.1 };
            let id = |n: u64| SubId { nid: n, iid: 1 };
            let mut o = Oracle::default();
            let mut model: Vec<(SchemeId, SubId, Subscription)> = Vec::new();
            for (step, probe) in steps {
                match step {
                    Step::Add(s, n, sides) => {
                        let s = s % schemes;
                        let sides = &sides[..dim(s)];
                        let lo: Vec<f64> = sides.iter().map(|&(l, _)| l).collect();
                        let hi: Vec<f64> = sides.iter().map(|&(l, w)| l + w).collect();
                        let sub = sub(&lo, &hi);
                        model.retain(|e| e.1 != id(n));
                        model.push((s, id(n), sub.clone()));
                        o.add(s, id(n), sub);
                    }
                    Step::Remove(n) => {
                        let live = model.iter().any(|e| e.1 == id(n));
                        model.retain(|e| e.1 != id(n));
                        prop_assert_eq!(o.remove(id(n)), live);
                    }
                }
                prop_assert_eq!(o.len(), model.len());
                let mut fresh = Oracle::default();
                for (s, n, sub) in &model {
                    fresh.add(*s, *n, sub.clone());
                }
                prop_assert_eq!(encoded(&o), encoded(&fresh));
                if let Some((s, mut xs)) = probe {
                    let s = s % schemes;
                    xs.truncate(dim(s));
                    let p = Point(xs);
                    let brute = model
                        .iter()
                        .filter(|(ms, _, sub)| *ms == s && sub.rect.contains_point(&p))
                        .count();
                    prop_assert_eq!(o.expected_matches(s, &p).len(), brute);
                    prop_assert_eq!(o.expected_count(s, &p), brute);
                }
            }
        }
    }

    #[test]
    fn script_take_once() {
        let mut w = HyperWorld::default();
        w.script.push(Some((
            0,
            Event {
                id: 7,
                point: Point(vec![1.0]),
            },
        )));
        let (s, e) = w.take_scripted(0);
        assert_eq!(s, 0);
        assert_eq!(e.id, 7);
    }

    #[test]
    #[should_panic(expected = "fired twice")]
    fn script_double_take_panics() {
        let mut w = HyperWorld::default();
        w.script.push(None);
        w.take_scripted(0);
    }
}
