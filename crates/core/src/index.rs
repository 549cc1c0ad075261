//! Local event-matching index for surrogate repositories.
//!
//! §3.3: "There may be indexing structures maintained on the surrogate
//! node to facilitate local event matching; however, this is not the
//! focus of this paper." This module supplies one — two, in fact:
//!
//! * [`HybridIndex`] — the production structure: a **subscription
//!   covering layer** (entries whose hypercuboid is contained in another
//!   entry's hypercuboid collapse under their coverer, Shi et al.,
//!   arXiv 1811.07088) over a **centered interval tree** on one
//!   adaptively chosen leading axis. Every entry is registered exactly
//!   once, so the registration count equals the entry count — no cell
//!   fan-out, no duplication tax.
//! * [`GridIndex`] — the previous uniform grid, retained as a
//!   differential-testing reference and as the `IndexMode::Grid` arm of
//!   the bench's index-shape axis. Each entry is registered in every
//!   cell its leading interval(s) overlap (duplication factor 16–24× on
//!   the pinned workloads).
//!
//! Both structures only ever *prune*: a point query yields a candidate
//! superset, and the caller verifies every candidate exactly against the
//! authoritative entry table, so index choice (and index bugs short of
//! dropping a true match) cannot change delivery results.
//!
//! Repositories build an index lazily once they exceed
//! [`INDEX_THRESHOLD`] entries (hot zones under skewed workloads collect
//! thousands); below that a linear scan is faster than any structure.

use crate::model::SubId;
use hypersub_lph::{Point, Rect};
use hypersub_simnet::FxHashMap;

/// Entry count at which a repository builds an index (any mode).
pub const INDEX_THRESHOLD: usize = 64;

/// Rebuild-on-drift accounting for an incrementally maintained structure:
/// it goes stale once the mutations absorbed since its build exceed 25%
/// of the build-time size. Shared by the repositories' matching index
/// and the ground-truth oracle's grid, so both rebuild on the same rule.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Drift {
    built_at: usize,
    mutations: usize,
}

impl Drift {
    /// Starts counting against a structure just built over `size` items.
    pub(crate) fn reset(&mut self, size: usize) {
        *self = Drift {
            built_at: size,
            mutations: 0,
        };
    }

    /// Counts one absorbed mutation; `true` once the structure is stale.
    pub(crate) fn bump(&mut self) -> bool {
        self.mutations += 1;
        self.mutations * 4 > self.built_at.max(1)
    }
}

/// Which matching-index structure repositories build past the threshold.
/// Purely a performance choice: all modes produce identical match sets
/// (enforced by the differential oracle proptest), so run digests are
/// mode-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Never build an index; always scan linearly.
    Linear,
    /// The legacy uniform grid (cell fan-out per entry).
    Grid,
    /// Covering layer + interval tree (one registration per entry).
    #[default]
    Hybrid,
}

impl IndexMode {
    /// Parses a CLI name (`linear` / `grid` / `hybrid`).
    pub fn parse(s: &str) -> Option<IndexMode> {
        match s {
            "linear" => Some(IndexMode::Linear),
            "grid" => Some(IndexMode::Grid),
            "hybrid" => Some(IndexMode::Hybrid),
            _ => None,
        }
    }

    /// The CLI/report name of this mode.
    pub fn name(self) -> &'static str {
        match self {
            IndexMode::Linear => "linear",
            IndexMode::Grid => "grid",
            IndexMode::Hybrid => "hybrid",
        }
    }
}

/// Index occupancy and cost diagnostics, summable across repositories.
/// `registrations / entries` is the duplication factor the hotpath bench
/// prints (how many times the average entry is physically registered:
/// once per overlapped cell for the grid, exactly once for the hybrid).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexDiag {
    /// Entries stored in repositories that currently hold a built index.
    pub entries: u64,
    /// Physical registrations those indexes hold (cells × occupants for
    /// the grid; live slots for the hybrid).
    pub registrations: u64,
    /// Approximate heap bytes consumed by index structures.
    pub bytes: u64,
    /// Entries collapsed under a covering entry (hybrid only).
    pub covering_collapsed: u64,
    /// Candidates examined by point queries over the run (index paths
    /// only; linear scans examine every entry by definition).
    pub candidates_scanned: u64,
}

impl IndexDiag {
    /// Accumulates another repository's diagnostics into this one.
    pub fn merge(&mut self, o: &IndexDiag) {
        self.entries += o.entries;
        self.registrations += o.registrations;
        self.bytes += o.bytes;
        self.covering_collapsed += o.covering_collapsed;
        self.candidates_scanned += o.candidates_scanned;
    }
}

// ---------------------------------------------------------------------------
// HybridIndex: covering layer + centered interval tree
// ---------------------------------------------------------------------------

/// One registered entry: its id, a copy of its projected rect (for the
/// inline containment pre-filter — a necessary condition of the exact
/// match, see `slot_may_match`), and the slots collapsed under it.
#[derive(Debug, Clone)]
struct Slot {
    id: SubId,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Slots whose rect this slot's rect fully contains, attached by the
    /// build-time covering pass. Flat: covered slots never have covered
    /// slots of their own (containment is transitive, so everything a
    /// covered slot would cover attaches directly to the same maximal).
    covered: Vec<u32>,
}

impl Slot {
    /// Inline pre-filter: may this slot's entry match the projected
    /// point? Compares on the common dimension prefix without asserting
    /// arity, and is `false` under any NaN — exactly the failure
    /// behavior of the exact check, so pruning on it is sound:
    /// * surrogate entries match exactly when `proj ∈ proj_rect` — this
    ///   *is* that check;
    /// * real entries match when `full ∈ full_rect`, and the stored proj
    ///   rect is the coordinate projection of the full rect, so
    ///   `full ∈ full_rect ⇒ proj ∈ proj_rect`.
    #[inline]
    fn may_match(&self, p: &Point) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(&p.0)
            .all(|((&lo, &hi), &v)| lo <= v && v <= hi)
    }

    fn contains_rect(&self, lo: &[f64], hi: &[f64]) -> bool {
        self.lo.len() == lo.len()
            && self
                .lo
                .iter()
                .zip(&self.hi)
                .zip(lo.iter().zip(hi))
                .all(|((&slo, &shi), (&olo, &ohi))| slo <= olo && ohi <= shi)
    }

    fn heap_bytes(&self) -> u64 {
        ((self.lo.capacity() + self.hi.capacity()) * std::mem::size_of::<f64>()
            + self.covered.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

const NONE: u32 = u32::MAX;

/// One node of the flattened centered interval tree: intervals containing
/// `center` live here (sorted two ways for early-exit stabbing), strictly
/// smaller intervals go to the subtrees.
#[derive(Debug, Clone)]
struct TreeNode {
    center: f64,
    left: u32,
    right: u32,
    /// `(interval lo, slot index)` sorted by lo, ascending. The key is
    /// stored inline so the stab loop's early-exit check reads this
    /// list sequentially instead of chasing into the slot table.
    by_lo: Vec<(f64, u32)>,
    /// `(interval hi, slot index)` sorted by hi, descending.
    by_hi: Vec<(f64, u32)>,
}

/// The adaptive two-level matching index: a covering layer over a
/// centered interval tree on one leading axis.
///
/// * **Covering layer**: at build time entries are processed widest
///   first; an entry whose rect is fully contained in an already-placed
///   *maximal* entry's rect attaches under that coverer instead of
///   entering the tree. A stabbed maximal expands to its covered ids
///   (each still inline-checked and exactly verified), so the candidate
///   set is only ever pruned, never changed.
/// * **Interval tree**: maximal entries are registered exactly once,
///   keyed by their interval on the adaptively chosen axis (the axis
///   with the smallest average normalized interval width — the one that
///   discriminates best). A stab visits `O(log n + k)` slots.
/// * **Incremental**: inserts append to an overflow list (scanned
///   linearly with the same inline pre-filter); removals unregister the
///   id; the repository's rebuild-on-drift policy folds overflow back
///   into the tree. Entries whose chosen-axis interval is not finite
///   also live in the overflow list.
#[derive(Debug, Clone, Default)]
pub struct HybridIndex {
    /// Leading axis the tree is keyed on.
    axis: usize,
    slots: Vec<Slot>,
    tree: Vec<TreeNode>,
    root: u32,
    /// Maximal slots outside the tree: post-build inserts and slots with
    /// a non-finite interval on `axis`.
    overflow: Vec<u32>,
    /// Live id → slot. An id re-inserted with a different rect points at
    /// its newest slot; superseded slots stay behind as stale candidates
    /// (filtered by exact verification) until the next rebuild.
    by_id: FxHashMap<SubId, u32>,
    /// Cached live-registration count — `registrations()` must be O(1)
    /// (it is read on every diagnostics export).
    live: usize,
    /// Entries collapsed under a coverer at build time.
    collapsed: u64,
}

impl HybridIndex {
    /// Builds the index from `(id, rect)` pairs. Always succeeds (unlike
    /// the grid there is no degenerate geometry: point intervals stab
    /// fine), but an empty input yields an empty index.
    pub fn build<'a, I>(entries: I) -> HybridIndex
    where
        I: Iterator<Item = (&'a SubId, &'a Rect)>,
    {
        // Deterministic processing order regardless of the hash-map
        // iteration order of the caller: sort by id first, then by the
        // covering key. Index *shape* (not just results) is therefore a
        // pure function of the entry set.
        let mut items: Vec<(SubId, &Rect)> = entries.map(|(&id, r)| (id, r)).collect();
        items.sort_unstable_by_key(|&(id, _)| id);

        let axis = Self::pick_axis(items.iter().map(|&(_, r)| r));

        let mut idx = HybridIndex {
            axis,
            ..HybridIndex::default()
        };
        idx.slots.reserve_exact(items.len());
        for &(id, r) in &items {
            idx.slots.push(Slot {
                id,
                lo: r.lo.clone(),
                hi: r.hi.clone(),
                covered: Vec::new(),
            });
        }

        // Covering pass: widest-on-axis first (a coverer is at least as
        // wide as anything it covers on every axis), ties broken by
        // volume then slot order, all deterministic.
        let width = |s: &Slot| -> f64 {
            match (s.lo.get(axis), s.hi.get(axis)) {
                (Some(&lo), Some(&hi)) => hi - lo,
                _ => f64::NEG_INFINITY,
            }
        };
        let volume = |s: &Slot| -> f64 {
            s.lo.iter()
                .zip(&s.hi)
                .map(|(&lo, &hi)| hi - lo)
                .product::<f64>()
        };
        let mut order: Vec<u32> = (0..idx.slots.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&idx.slots[a as usize], &idx.slots[b as usize]);
            width(sb)
                .total_cmp(&width(sa))
                .then(volume(sb).total_cmp(&volume(sa)))
                .then(a.cmp(&b))
        });
        let mut maximals: Vec<u32> = Vec::new();
        for &si in &order {
            let (lo, hi) = {
                let s = &idx.slots[si as usize];
                (s.lo.clone(), s.hi.clone())
            };
            let coverer = maximals
                .iter()
                .find(|&&m| idx.slots[m as usize].contains_rect(&lo, &hi))
                .copied();
            match coverer {
                Some(m) => {
                    idx.slots[m as usize].covered.push(si);
                    idx.collapsed += 1;
                }
                None => maximals.push(si),
            }
        }

        // Tree pass over the maximal slots with a finite axis interval;
        // the rest (non-finite, e.g. hand-built test rects) overflow.
        let mut treeable: Vec<u32> = Vec::new();
        for &m in &maximals {
            let s = &idx.slots[m as usize];
            match (s.lo.get(axis), s.hi.get(axis)) {
                (Some(&lo), Some(&hi)) if lo.is_finite() && hi.is_finite() => treeable.push(m),
                _ => idx.overflow.push(m),
            }
        }
        idx.root = idx.build_tree(treeable);

        idx.live = idx.slots.len();
        for (i, s) in idx.slots.iter().enumerate() {
            idx.by_id.insert(s.id, i as u32);
        }
        idx
    }

    /// The axis with the smallest mean interval width relative to the
    /// entry span — the best expected pruning per stab. Falls back to
    /// axis 0 when nothing is finite (the index then degrades to an
    /// inline-checked linear scan, still correct).
    fn pick_axis<'a, I>(rects: I) -> usize
    where
        I: Iterator<Item = &'a Rect>,
    {
        const MAX_AXES: usize = 8;
        let mut width_sum = [0.0f64; MAX_AXES];
        let mut lo = [f64::INFINITY; MAX_AXES];
        let mut hi = [f64::NEG_INFINITY; MAX_AXES];
        let mut n = [0u64; MAX_AXES];
        for r in rects {
            for d in 0..r.lo.len().min(MAX_AXES) {
                let (l, h) = (r.lo[d], r.hi[d]);
                if l.is_finite() && h.is_finite() {
                    width_sum[d] += h - l;
                    lo[d] = lo[d].min(l);
                    hi[d] = hi[d].max(h);
                    n[d] += 1;
                }
            }
        }
        let mut best = 0;
        let mut best_score = f64::INFINITY;
        for d in 0..MAX_AXES {
            if n[d] == 0 || hi[d] <= lo[d] {
                continue; // unpopulated or degenerate span: nothing to prune on
            }
            let score = width_sum[d] / n[d] as f64 / (hi[d] - lo[d]);
            if score < best_score {
                best_score = score;
                best = d;
            }
        }
        best
    }

    /// Recursively builds a centered subtree from `slots` (indices with
    /// finite axis intervals); returns the subtree root or `NONE`.
    fn build_tree(&mut self, slot_ids: Vec<u32>) -> u32 {
        if slot_ids.is_empty() {
            return NONE;
        }
        // Median endpoint as center: balances the tree under any
        // distribution of intervals.
        let mut endpoints: Vec<f64> = Vec::with_capacity(slot_ids.len() * 2);
        for &s in &slot_ids {
            endpoints.push(self.slots[s as usize].lo[self.axis]);
            endpoints.push(self.slots[s as usize].hi[self.axis]);
        }
        endpoints.sort_unstable_by(f64::total_cmp);
        let center = endpoints[endpoints.len() / 2];

        let mut here: Vec<u32> = Vec::new();
        let mut left: Vec<u32> = Vec::new();
        let mut right: Vec<u32> = Vec::new();
        for s in slot_ids {
            let sl = &self.slots[s as usize];
            let (lo, hi) = (sl.lo[self.axis], sl.hi[self.axis]);
            if hi < center {
                left.push(s);
            } else if lo > center {
                right.push(s);
            } else {
                here.push(s);
            }
        }
        // Degenerate split guard: if partitioning made no progress (all
        // intervals straddle every candidate center), `here` absorbs
        // them and recursion terminates because both subtrees shrink.
        let mut by_lo: Vec<(f64, u32)> = here
            .iter()
            .map(|&s| (self.slots[s as usize].lo[self.axis], s))
            .collect();
        by_lo.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut by_hi: Vec<(f64, u32)> = here
            .into_iter()
            .map(|s| (self.slots[s as usize].hi[self.axis], s))
            .collect();
        by_hi.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        let node = TreeNode {
            center,
            left: NONE,
            right: NONE,
            by_lo,
            by_hi,
        };
        let me = self.tree.len() as u32;
        self.tree.push(node);
        let l = self.build_tree(left);
        let r = self.build_tree(right);
        self.tree[me as usize].left = l;
        self.tree[me as usize].right = r;
        me
    }

    /// Registers an entry incrementally. Re-registering an id with the
    /// same rect is a no-op (the re-insert dedup); with a changed rect,
    /// a fresh slot is appended so the *new* geometry is findable (the
    /// superseded slot decays into a stale candidate, harmless because
    /// every candidate is exactly verified). Returns `true` when the
    /// index actually mutated (the repository's drift accounting).
    pub fn insert(&mut self, id: SubId, r: &Rect) -> bool {
        if let Some(&si) = self.by_id.get(&id) {
            let s = &self.slots[si as usize];
            if s.lo == r.lo && s.hi == r.hi {
                return false;
            }
        } else {
            self.live += 1;
        }
        let si = self.slots.len() as u32;
        self.slots.push(Slot {
            id,
            lo: r.lo.clone(),
            hi: r.hi.clone(),
            covered: Vec::new(),
        });
        self.overflow.push(si);
        self.by_id.insert(id, si);
        true
    }

    /// Unregisters an id. The slot stays behind as a stale candidate
    /// (exact verification filters it); only the live count and the id
    /// table shrink. Returns `true` when the id was registered.
    pub fn remove(&mut self, id: &SubId) -> bool {
        if self.by_id.remove(id).is_some() {
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// Visits every candidate whose entry may match the projected point:
    /// stabs the tree on the chosen axis, scans the overflow list, and
    /// expands stabbed coverers into their covered slots — each gated by
    /// the inline rect pre-filter. Returns the number of slots examined
    /// (the candidate-scan count the bench reports). The visited set is
    /// a superset of all truly matching entries; exact verification is
    /// the caller's job.
    pub fn for_candidates(&self, p: &Point, mut visit: impl FnMut(SubId)) -> u64 {
        let mut scanned = 0u64;
        // Point has fewer dims than the chosen axis (defensive): no
        // pruning possible on the tree, scan everything.
        let Some(&x) = p.0.get(self.axis) else {
            for s in &self.slots {
                scanned += 1;
                if s.may_match(p) {
                    visit(s.id);
                }
            }
            return scanned;
        };
        let mut n = self.root;
        while n != NONE {
            let node = &self.tree[n as usize];
            if x < node.center {
                for &(lo, s) in &node.by_lo {
                    if lo > x {
                        break;
                    }
                    scanned += self.emit(s, p, &mut visit);
                }
                n = node.left;
            } else if x > node.center {
                for &(hi, s) in &node.by_hi {
                    if hi < x {
                        break;
                    }
                    scanned += self.emit(s, p, &mut visit);
                }
                n = node.right;
            } else {
                // x == center: every interval here contains x; subtree
                // intervals are strictly off-center and cannot. (NaN x
                // also lands here and visits one node's list — a NaN
                // point matches nothing exactly, so the superset
                // property holds.)
                for &(_, s) in &node.by_lo {
                    scanned += self.emit(s, p, &mut visit);
                }
                break;
            }
        }
        for &o in &self.overflow {
            scanned += self.emit(o, p, &mut visit);
        }
        scanned
    }

    /// Inline-checks one slot and, when it matches, its covered list.
    /// A non-matching coverer prunes its whole covered list: covered ⊆
    /// coverer, so `p ∉ coverer ⇒ p ∉ covered`. Returns slots examined.
    #[inline]
    fn emit(&self, s: u32, p: &Point, visit: &mut impl FnMut(SubId)) -> u64 {
        let sl = &self.slots[s as usize];
        let mut scanned = 1;
        if sl.may_match(p) {
            visit(sl.id);
            for &c in &sl.covered {
                scanned += 1;
                let cs = &self.slots[c as usize];
                if cs.may_match(p) {
                    visit(cs.id);
                }
            }
        }
        scanned
    }

    /// Live registrations — O(1), cached on insert/remove. Equals the
    /// number of currently registered ids (each registered exactly once),
    /// so `registrations() / entries == 1` absent stale re-inserts.
    pub fn registrations(&self) -> usize {
        self.live
    }

    /// Entries collapsed under a coverer at build time.
    pub fn covering_collapsed(&self) -> u64 {
        self.collapsed
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> u64 {
        let slots: u64 = self.slots.iter().map(Slot::heap_bytes).sum::<u64>()
            + (self.slots.capacity() * std::mem::size_of::<Slot>()) as u64;
        let tree: u64 = self
            .tree
            .iter()
            .map(|n| {
                ((n.by_lo.capacity() + n.by_hi.capacity()) * std::mem::size_of::<(f64, u32)>())
                    as u64
            })
            .sum::<u64>()
            + (self.tree.capacity() * std::mem::size_of::<TreeNode>()) as u64;
        let map = (self.by_id.capacity()
            * (std::mem::size_of::<SubId>() + std::mem::size_of::<u32>() + 1))
            as u64;
        slots + tree + map + (self.overflow.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

// ---------------------------------------------------------------------------
// GridIndex: the legacy uniform grid (differential reference + bench axis)
// ---------------------------------------------------------------------------

/// A uniform grid over entry intervals on the leading dimension(s): two
/// axes when the stored rects have ≥ 2 dimensions, one otherwise. An
/// axis whose entries all coincide collapses to a single cell. Each
/// entry is registered in every cell its interval(s) overlap — the
/// duplication tax [`HybridIndex`] exists to kill — and a point query
/// scans exactly one cell.
#[derive(Debug, Clone)]
pub struct GridIndex {
    lo: [f64; 2],
    width: [f64; 2],
    /// Cells per axis (1 for collapsed/inactive axes).
    n: [usize; 2],
    /// How many leading point dimensions index lookups consume.
    dims: usize,
    cells: Vec<Vec<SubId>>,
    /// Cached registration total — kept on `register` so diagnostics
    /// never re-sum every cell.
    regs: usize,
}

impl GridIndex {
    /// Number of cells on an active axis in the 1-D case.
    pub const CELLS: usize = 64;
    /// Number of cells per active axis in the 2-D case (16² = 256 cells,
    /// comparable total registration cost to the 1-D layout but with
    /// candidate lists pruned on both axes).
    pub const AXIS_CELLS_2D: usize = 16;

    /// Builds a grid from `(id, rect)` pairs. Returns `None` when every
    /// indexable axis spans a degenerate range (the grid would not prune
    /// anything).
    pub fn build<'a, I>(entries: I) -> Option<GridIndex>
    where
        I: Iterator<Item = (&'a SubId, &'a Rect)> + Clone,
    {
        let mut dims = usize::MAX;
        let mut lo = [f64::INFINITY; 2];
        let mut hi = [f64::NEG_INFINITY; 2];
        for (_, r) in entries.clone() {
            dims = dims.min(r.lo.len()).min(2);
            for d in 0..dims {
                lo[d] = lo[d].min(r.lo[d]);
                hi[d] = hi[d].max(r.hi[d]);
            }
        }
        if dims == usize::MAX || dims == 0 {
            return None;
        }
        let per_axis = if dims == 2 {
            Self::AXIS_CELLS_2D
        } else {
            Self::CELLS
        };
        let mut width = [1.0; 2];
        let mut n = [1usize; 2];
        let mut active = false;
        for d in 0..dims {
            if lo[d].is_finite() && hi[d].is_finite() && hi[d] > lo[d] {
                width[d] = (hi[d] - lo[d]) / per_axis as f64;
                n[d] = per_axis;
                active = true;
            } else {
                lo[d] = if lo[d].is_finite() { lo[d] } else { 0.0 };
            }
        }
        if !active {
            return None;
        }
        let mut grid = GridIndex {
            lo,
            width,
            n,
            dims,
            cells: vec![Vec::new(); n[0] * n[1]],
            regs: 0,
        };
        for (&id, r) in entries {
            grid.register(id, r);
        }
        Some(grid)
    }

    /// The clamped cell range an interval covers on axis `d`. Negative
    /// offsets saturate to 0 under `as usize`, clamping below; `min`
    /// clamps above — exactly where queries clamp, so the candidate set
    /// stays a superset of the true matches.
    fn span(&self, d: usize, lo: f64, hi: f64) -> (usize, usize) {
        let first = (((lo - self.lo[d]) / self.width[d]) as usize).min(self.n[d] - 1);
        let last = (((hi - self.lo[d]) / self.width[d]) as usize).min(self.n[d] - 1);
        (first, last)
    }

    /// Registers one more entry into the cells its leading interval(s)
    /// cover, keeping the bounds fixed at build time. This is what makes
    /// the index incremental: inserts extend it in place instead of
    /// discarding it.
    pub fn register(&mut self, id: SubId, r: &Rect) {
        let (x0, x1) = self.span(0, r.lo[0], r.hi[0]);
        let (y0, y1) = if self.dims == 2 {
            self.span(1, r.lo[1], r.hi[1])
        } else {
            (0, 0)
        };
        for x in x0..=x1 {
            for cell in self
                .cells
                .iter_mut()
                .skip(x * self.n[1] + y0)
                .take(y1 - y0 + 1)
            {
                cell.push(id);
                self.regs += 1;
            }
        }
    }

    /// Candidate entries whose leading interval(s) may contain `p`. Exact
    /// verification is the caller's job. A point query reads exactly one
    /// cell, so an entry spanning several cells never repeats here.
    pub fn candidates(&self, p: &Point) -> &[SubId] {
        let c = |x: f64, d: usize| (((x - self.lo[d]) / self.width[d]) as usize).min(self.n[d] - 1);
        let x = c(p.0[0], 0);
        let y = if self.dims == 2 { c(p.0[1], 1) } else { 0 };
        &self.cells[x * self.n[1] + y]
    }

    /// Total candidate registrations (diagnostics: duplication factor).
    /// O(1) — cached on `register`, never re-summed.
    pub fn registrations(&self) -> usize {
        self.regs
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| (c.capacity() * std::mem::size_of::<SubId>()) as u64)
            .sum::<u64>()
            + (self.cells.capacity() * std::mem::size_of::<Vec<SubId>>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u64) -> SubId {
        SubId { nid: n, iid: 1 }
    }

    fn rect1(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![lo, 0.0], vec![hi, 100.0])
    }

    fn probe(x: f64) -> Point {
        Point(vec![x, 50.0])
    }

    /// Brute-force truth: ids whose rect contains the point.
    fn exact(entries: &[(SubId, Rect)], p: &Point) -> Vec<SubId> {
        let mut v: Vec<SubId> = entries
            .iter()
            .filter(|(_, r)| {
                r.lo.iter()
                    .zip(&r.hi)
                    .zip(&p.0)
                    .all(|((&l, &h), &x)| l <= x && x <= h)
            })
            .map(|&(id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    fn hybrid_candidates(ix: &HybridIndex, p: &Point) -> Vec<SubId> {
        let mut v = Vec::new();
        ix.for_candidates(p, |id| v.push(id));
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn grid_candidates_superset_of_matches() {
        let entries: Vec<(SubId, Rect)> = (0..200)
            .map(|i| {
                let lo = (i as f64 * 7.3) % 90.0;
                (sid(i), rect1(lo, lo + 5.0))
            })
            .collect();
        let grid = GridIndex::build(entries.iter().map(|(a, b)| (a, b))).expect("non-degenerate");
        for x in [0.0, 13.37, 50.0, 89.9, 95.0] {
            let cands = grid.candidates(&probe(x));
            for (id, r) in &entries {
                if r.lo[0] <= x && x <= r.hi[0] {
                    assert!(
                        cands.contains(id),
                        "entry {id:?} matching x={x} missing from candidates"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_register_extends_grid_without_rebuild() {
        let entries: Vec<(SubId, Rect)> = (0..100)
            .map(|i| {
                let lo = (i as f64 * 3.1) % 80.0;
                (sid(i), rect1(lo, lo + 4.0))
            })
            .collect();
        let mut grid =
            GridIndex::build(entries.iter().map(|(a, b)| (a, b))).expect("non-degenerate");
        // Inside, straddling-below, and fully-above the built range.
        let extra = [
            (sid(500), rect1(40.0, 45.0)),
            (sid(501), rect1(-10.0, 2.0)),
            (sid(502), rect1(200.0, 300.0)),
        ];
        for (id, r) in &extra {
            grid.register(*id, r);
        }
        for x in [-5.0, 0.5, 41.0, 83.9, 250.0] {
            let cands = grid.candidates(&probe(x));
            for (id, r) in entries.iter().chain(&extra) {
                if r.lo[0] <= x && x <= r.hi[0] {
                    assert!(cands.contains(id), "entry {id:?} matching x={x} missing");
                }
            }
        }
    }

    #[test]
    fn grid_degenerate_range_yields_no_grid() {
        // Every axis collapses to a single value: nothing to prune on.
        let point_rect = Rect::new(vec![5.0, 7.0], vec![5.0, 7.0]);
        let entries = [(sid(1), point_rect.clone()), (sid(2), point_rect)];
        assert!(GridIndex::build(entries.iter().map(|(a, b)| (a, b))).is_none());
    }

    #[test]
    fn grid_registrations_cached_and_exact() {
        let entries: Vec<(SubId, Rect)> = (0..50)
            .map(|i| (sid(i), rect1(i as f64, i as f64 + 20.0)))
            .collect();
        let mut grid = GridIndex::build(entries.iter().map(|(a, b)| (a, b))).unwrap();
        let summed: usize = grid.cells.iter().map(Vec::len).sum();
        assert_eq!(grid.registrations(), summed, "cache equals cell sum");
        grid.register(sid(999), &rect1(0.0, 100.0));
        let summed: usize = grid.cells.iter().map(Vec::len).sum();
        assert_eq!(grid.registrations(), summed, "cache tracks register()");
    }

    #[test]
    fn hybrid_matches_exact_scan_on_random_entries() {
        let entries: Vec<(SubId, Rect)> = (0..300)
            .map(|i| {
                let lo = (i as f64 * 7.3) % 90.0;
                let w = (i as f64 * 1.7) % 9.0;
                (sid(i), rect1(lo, (lo + w).min(100.0)))
            })
            .collect();
        let ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));
        assert_eq!(ix.registrations(), 300);
        for x in [-3.0, 0.0, 13.37, 50.0, 89.9, 95.0, 200.0] {
            let cands = hybrid_candidates(&ix, &probe(x));
            for want in exact(&entries, &probe(x)) {
                assert!(
                    cands.contains(&want),
                    "missing true match {want:?} at x={x}"
                );
            }
        }
    }

    #[test]
    fn hybrid_covering_collapses_contained_entries() {
        // One big rect covers 99 small ones: the tree holds 1 maximal,
        // everything else collapses under it.
        let mut entries = vec![(sid(0), rect1(0.0, 100.0))];
        for i in 1..100 {
            let lo = (i as f64) % 80.0;
            entries.push((sid(i), rect1(lo, lo + 1.0)));
        }
        let ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));
        assert_eq!(ix.covering_collapsed(), 99);
        assert_eq!(ix.registrations(), 100, "covered entries stay registered");
        // All entries still findable.
        for x in [0.5, 40.5, 79.5] {
            let cands = hybrid_candidates(&ix, &probe(x));
            for want in exact(&entries, &probe(x)) {
                assert!(cands.contains(&want), "missing {want:?} at x={x}");
            }
        }
        // A point outside every small rect but inside the big one still
        // only emits verified-rejectable candidates — superset, pruned by
        // the inline filter to the big rect plus nothing false-negative.
        let cands = hybrid_candidates(&ix, &probe(99.5));
        assert!(cands.contains(&sid(0)));
    }

    #[test]
    fn hybrid_single_entry_build() {
        let entries = [(sid(7), rect1(10.0, 20.0))];
        let ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));
        assert_eq!(ix.registrations(), 1);
        assert_eq!(hybrid_candidates(&ix, &probe(15.0)), vec![sid(7)]);
        assert!(hybrid_candidates(&ix, &probe(25.0)).is_empty());
    }

    #[test]
    fn hybrid_empty_build() {
        let entries: [(SubId, Rect); 0] = [];
        let ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));
        assert_eq!(ix.registrations(), 0);
        assert!(hybrid_candidates(&ix, &probe(0.0)).is_empty());
    }

    #[test]
    fn hybrid_incremental_insert_and_remove() {
        let entries: Vec<(SubId, Rect)> = (0..80)
            .map(|i| {
                (
                    sid(i),
                    rect1((i as f64 * 1.1) % 50.0, (i as f64 * 1.1) % 50.0 + 3.0),
                )
            })
            .collect();
        let mut ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));

        // Insert outside the built range: still findable (overflow path).
        assert!(ix.insert(sid(500), &rect1(200.0, 300.0)));
        assert_eq!(ix.registrations(), 81);
        assert!(hybrid_candidates(&ix, &probe(250.0)).contains(&sid(500)));

        // Remove: live count drops; stale candidacy is allowed (callers
        // verify), but unregistering twice reports false.
        assert!(ix.remove(&sid(500)));
        assert!(!ix.remove(&sid(500)));
        assert_eq!(ix.registrations(), 80);

        // Remove-then-reinsert: registered again exactly once.
        assert!(ix.remove(&sid(3)));
        assert!(ix.insert(sid(3), &rect1(60.0, 70.0)));
        assert_eq!(ix.registrations(), 80);
        assert!(hybrid_candidates(&ix, &probe(65.0)).contains(&sid(3)));
    }

    #[test]
    fn hybrid_reinsert_same_rect_is_a_noop() {
        let entries: Vec<(SubId, Rect)> = (0..70)
            .map(|i| (sid(i), rect1(i as f64, i as f64 + 5.0)))
            .collect();
        let mut ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));
        let bytes_before = ix.bytes();
        assert!(
            !ix.insert(sid(10), &rect1(10.0, 15.0)),
            "dedup: no mutation"
        );
        assert_eq!(ix.registrations(), 70);
        assert_eq!(ix.bytes(), bytes_before, "no slot appended");
    }

    #[test]
    fn hybrid_reinsert_changed_rect_finds_new_geometry() {
        let entries: Vec<(SubId, Rect)> = (0..70)
            .map(|i| (sid(i), rect1(i as f64, i as f64 + 2.0)))
            .collect();
        let mut ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));
        // id 5 moves from [5,7] to [200,210]: the new interval must be a
        // candidate even though the old slot persists.
        assert!(ix.insert(sid(5), &rect1(200.0, 210.0)));
        assert_eq!(ix.registrations(), 70, "live count unchanged on update");
        assert!(hybrid_candidates(&ix, &probe(205.0)).contains(&sid(5)));
    }

    #[test]
    fn hybrid_tolerates_nonfinite_rects() {
        // Rect::new rejects non-finite bounds, but the index must stay
        // panic-free and superset-correct if handed them (defensive:
        // hand-constructed rects in tests, future codec relaxations).
        let inf = Rect {
            lo: vec![f64::NEG_INFINITY, 0.0],
            hi: vec![f64::INFINITY, 100.0],
        };
        let nan = Rect {
            lo: vec![f64::NAN, 0.0],
            hi: vec![f64::NAN, 100.0],
        };
        let entries = [
            (sid(1), rect1(10.0, 20.0)),
            (sid(2), inf.clone()),
            (sid(3), nan),
            (sid(4), rect1(15.0, 30.0)),
        ];
        let ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));
        let cands = hybrid_candidates(&ix, &probe(17.0));
        assert!(cands.contains(&sid(1)));
        assert!(cands.contains(&sid(4)));
        assert!(cands.contains(&sid(2)), "infinite rect matches everywhere");
        assert!(!cands.contains(&sid(3)), "NaN rect matches nowhere");
        // NaN query point: matches nothing, must not panic.
        assert!(hybrid_candidates(&ix, &Point(vec![f64::NAN, 50.0])).is_empty());
        // Infinite query point: fine too.
        let _ = hybrid_candidates(&ix, &Point(vec![f64::INFINITY, 50.0]));
    }

    #[test]
    fn hybrid_identical_rects_collapse_without_loss() {
        let r = rect1(10.0, 20.0);
        let entries: Vec<(SubId, Rect)> = (0..10).map(|i| (sid(i), r.clone())).collect();
        let ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));
        assert_eq!(ix.covering_collapsed(), 9, "9 duplicates collapse under 1");
        let cands = hybrid_candidates(&ix, &probe(15.0));
        assert_eq!(cands.len(), 10, "all ids still emitted");
    }

    #[test]
    fn hybrid_picks_discriminating_axis() {
        // Axis 0 intervals are all full-span; axis 1 intervals are
        // narrow: axis 1 discriminates, axis 0 does not.
        let entries: Vec<(SubId, Rect)> = (0..100)
            .map(|i| {
                let lo = (i as f64) % 90.0;
                (sid(i), Rect::new(vec![0.0, lo], vec![100.0, lo + 2.0]))
            })
            .collect();
        let ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));
        // A stab at y=50 must scan far fewer than all 100 slots.
        let scanned = ix.for_candidates(&Point(vec![50.0, 50.0]), |_| {});
        assert!(
            scanned < 30,
            "adaptive axis should prune most slots, scanned {scanned}"
        );
    }

    #[test]
    fn hybrid_bytes_accounting_is_positive_and_grows() {
        let entries: Vec<(SubId, Rect)> = (0..100)
            .map(|i| (sid(i), rect1(i as f64, i as f64 + 1.0)))
            .collect();
        let mut ix = HybridIndex::build(entries.iter().map(|(a, b)| (a, b)));
        let b0 = ix.bytes();
        assert!(b0 > 0);
        for i in 200..260 {
            ix.insert(sid(i), &rect1(i as f64, i as f64 + 1.0));
        }
        assert!(ix.bytes() > b0, "inserting grows the footprint");
    }
}
