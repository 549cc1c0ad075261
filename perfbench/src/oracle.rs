//! The outside-in delivery oracle.
//!
//! The benchmark keeps its own ledger of every subscription it made
//! (rectangle, subscribe time, unsubscribe time) and of every event it
//! published, and decides by brute force which `(event, subscription)`
//! pairs the system owed. It never asks the system under test what the
//! right answer is.
//!
//! Under churn the answer is ambiguous for a while around each change: a
//! subscription made just *after* a publish may still catch the event in
//! flight, and one cancelled just *after* may miss it. A pair is therefore
//! *in flux* when its subscribe or unsubscribe time lies within a fixed
//! window on either side of the publish; in-flux pairs count neither as
//! missed nor as spurious. Duplicates count always.

use hypersub_core::model::SubId;
use hypersub_lph::{Point, Rect};
use std::collections::HashMap;

/// One subscription's life in the benchmark's ledger. Times are seconds
/// on the clock of the workload that made it.
#[derive(Debug, Clone)]
pub struct SubLife {
    /// The id the system returned.
    pub id: SubId,
    /// The subscribing node.
    pub node: usize,
    /// The subscribed rectangle.
    pub rect: Rect,
    /// When the subscribe call was made.
    pub on: f64,
    /// When the unsubscribe call was made, if it was.
    pub off: Option<f64>,
}

/// One published event.
#[derive(Debug, Clone)]
pub struct Published {
    /// Event id.
    pub id: u64,
    /// Publishing node.
    pub node: usize,
    /// Publish time (seconds, same clock as [`SubLife`]).
    pub at: f64,
    /// The event's point.
    pub point: Point,
}

/// The oracle's verdict over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Pairs owed (matching, live, not in flux).
    pub expected: u64,
    /// Owed pairs never delivered.
    pub missed: u64,
    /// Delivered pairs that were not owed and not in flux.
    pub spurious: u64,
    /// Deliveries beyond the first of the same pair.
    pub duplicates: u64,
    /// Matching pairs excluded as in flux.
    pub in_flux: u64,
    /// Publishes with at least one missed, spurious or duplicate pair.
    pub bad_publishes: u64,
}

impl Verdict {
    /// Missed pairs over owed pairs.
    pub fn miss_ratio(&self) -> f64 {
        crate::stats::ratio(self.missed as f64, self.expected as f64)
    }

    /// Duplicate plus spurious deliveries over owed pairs.
    pub fn extra_ratio(&self) -> f64 {
        crate::stats::ratio(
            (self.duplicates + self.spurious) as f64,
            self.expected as f64,
        )
    }

    /// True when nothing was missed, spurious or duplicated.
    pub fn exact(&self) -> bool {
        self.bad_publishes == 0
    }
}

/// Judges `delivered` `(event, subscription)` records against the ledger.
/// `window` is the settle window in seconds; 0 disables flux exclusion.
pub fn check(
    subs: &[SubLife],
    pubs: &[Published],
    delivered: &[(u64, SubId)],
    window: f64,
) -> Verdict {
    let slot: HashMap<SubId, usize> = subs.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut by_event: HashMap<u64, Vec<SubId>> = HashMap::new();
    for &(event, sub) in delivered {
        by_event.entry(event).or_default().push(sub);
    }
    let near = |t: f64, at: f64| (t - at).abs() < window;
    let mut v = Verdict::default();
    let mut count = vec![0u32; subs.len()];
    for p in pubs {
        let got = by_event.remove(&p.id).unwrap_or_default();
        let mut bad = false;
        for sid in &got {
            match slot.get(sid) {
                Some(&i) => count[i] += 1,
                None => {
                    // Not a subscription the benchmark ever made.
                    v.spurious += 1;
                    bad = true;
                }
            }
        }
        for (i, s) in subs.iter().enumerate() {
            let c = std::mem::take(&mut count[i]);
            if c > 1 {
                v.duplicates += u64::from(c - 1);
                bad = true;
            }
            let flux = near(s.on, p.at) || s.off.is_some_and(|off| near(off, p.at));
            let live = s.on <= p.at && s.off.is_none_or(|off| p.at < off);
            let owed = live && s.rect.contains_point(&p.point);
            if flux {
                if owed || c > 0 {
                    v.in_flux += 1;
                }
                continue;
            }
            match (owed, c > 0) {
                (true, true) => v.expected += 1,
                (true, false) => {
                    v.expected += 1;
                    v.missed += 1;
                    bad = true;
                }
                (false, true) => {
                    v.spurious += 1;
                    bad = true;
                }
                (false, false) => {}
            }
        }
        v.bad_publishes += u64::from(bad);
    }
    // Deliveries for events the benchmark never published.
    let strays: u64 = by_event.values().map(|v| v.len() as u64).sum();
    v.spurious += strays;
    v.bad_publishes += by_event.len() as u64;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(iid: u32, lo: f64, hi: f64, on: f64, off: Option<f64>) -> SubLife {
        SubLife {
            id: SubId { nid: 1, iid },
            node: 0,
            rect: Rect::new(vec![lo], vec![hi]),
            on,
            off,
        }
    }

    fn publish(id: u64, at: f64, x: f64) -> Published {
        Published {
            id,
            node: 0,
            at,
            point: Point(vec![x]),
        }
    }

    fn sid(iid: u32) -> SubId {
        SubId { nid: 1, iid }
    }

    #[test]
    fn exact_run_has_no_violations() {
        let subs = [sub(1, 0.0, 10.0, 0.0, None), sub(2, 20.0, 30.0, 0.0, None)];
        let pubs = [publish(7, 100.0, 5.0), publish(8, 100.0, 25.0)];
        let v = check(&subs, &pubs, &[(7, sid(1)), (8, sid(2))], 3.0);
        assert_eq!(v.expected, 2);
        assert!(v.exact());
        assert_eq!(v.miss_ratio(), 0.0);
        assert_eq!(v.extra_ratio(), 0.0);
    }

    #[test]
    fn misses_spurious_and_duplicates_are_counted() {
        let subs = [sub(1, 0.0, 10.0, 0.0, None), sub(2, 20.0, 30.0, 0.0, None)];
        let pubs = [publish(7, 100.0, 5.0)];
        // Sub 1 delivered twice, sub 2 delivered though it does not match.
        let v = check(&subs, &pubs, &[(7, sid(1)), (7, sid(1)), (7, sid(2))], 3.0);
        assert_eq!(
            (v.expected, v.missed, v.spurious, v.duplicates),
            (1, 0, 1, 1)
        );
        assert_eq!(v.bad_publishes, 1);
        assert_eq!(v.extra_ratio(), 2.0);
        let v = check(&subs, &pubs, &[], 3.0);
        assert_eq!((v.missed, v.miss_ratio()), (1, 1.0));
    }

    #[test]
    fn settle_window_is_symmetric() {
        // Subscribed 1 s *after* the publish and still caught the event
        // in flight: in flux, not spurious.
        let late = [sub(1, 0.0, 10.0, 101.0, None)];
        let v = check(&late, &[publish(7, 100.0, 5.0)], &[(7, sid(1))], 3.0);
        assert!(v.exact());
        assert_eq!(v.in_flux, 1);
        // Cancelled 1 s after the publish and missed it: in flux, not
        // missed.
        let gone = [sub(1, 0.0, 10.0, 0.0, Some(101.0))];
        let v = check(&gone, &[publish(7, 100.0, 5.0)], &[], 3.0);
        assert!(v.exact());
        assert_eq!(v.in_flux, 1);
        // The same two cases outside the window are violations.
        let v = check(&late, &[publish(7, 90.0, 5.0)], &[(7, sid(1))], 3.0);
        assert_eq!(v.spurious, 1);
        let v = check(&gone, &[publish(7, 110.0, 5.0)], &[(7, sid(1))], 3.0);
        assert_eq!(v.spurious, 1);
        let v = check(&gone, &[publish(7, 90.0, 5.0)], &[], 3.0);
        assert_eq!(v.missed, 1);
    }

    #[test]
    fn deliveries_of_unknown_events_or_subscriptions_are_spurious() {
        let subs = [sub(1, 0.0, 10.0, 0.0, None)];
        let pubs = [publish(7, 100.0, 50.0)];
        let v = check(&subs, &pubs, &[(9, sid(1)), (7, sid(5))], 3.0);
        assert_eq!(v.spurious, 2);
        assert_eq!(v.bad_publishes, 2);
    }
}
