//! Future free-capacity profiles.
//!
//! Both the EASY shadow-time computation and conservative backfilling need
//! to answer: *given the walltime-based end estimates of everything already
//! running (and already-reserved), when is the earliest time a job of
//! `procs` units can start?* [`CapacityProfile`] answers that with a
//! breakpoint list of `(time, free_units)` that stays sorted by time.
//!
//! # Incremental maintenance
//!
//! A profile can be rebuilt from the running set
//! ([`CapacityProfile::from_sorted_running`], O(running jobs)), or — the
//! hot path — maintained *incrementally* across scheduling passes:
//!
//! * a job start carves its planned interval out with
//!   [`CapacityProfile::reserve`],
//! * a completion hands the unused tail of the plan back with
//!   [`CapacityProfile::unreserve`],
//! * [`CapacityProfile::prune_to`] drops breakpoints the advancing clock
//!   has made unreachable, keeping the list proportional to the number of
//!   *future* end estimates.
//!
//! Maintained this way the profile is a **skyline**: every running job
//! contributes a busy interval `[now, end_estimate)` whose left edge is
//! the query time, so free capacity restricted to the future is
//! *non-decreasing in time* — which is what lets
//! [`CapacityProfile::earliest_forever`] answer the EASY shadow-time query
//! with one O(log n) binary search over the sorted breakpoints. See
//! `docs/PERFORMANCE.md` for the complexity argument and the differential
//! test pinning incremental == rebuilt-from-scratch.
//!
//! ```
//! use lumos_sim::profile::CapacityProfile;
//!
//! // 100 free units; a job takes 40 of them on [10, 50).
//! let mut p = CapacityProfile::new(0, 100);
//! p.reserve(10, 50, 40);
//! assert_eq!(p.free_at(20), 60);
//! // The job finishes early at t=30: the tail of its plan comes back.
//! p.unreserve(30, 50, 40);
//! assert_eq!(p.free_at(30), 100);
//! // The clock reaches 30; history is dropped, queries are unaffected.
//! p.prune_to(30);
//! assert_eq!(p.free_at(30), 100);
//! assert_eq!(p.earliest_forever(30, 100), Some(30));
//! ```

use lumos_core::Timestamp;

/// Piecewise-constant free-capacity timeline. `points[i] = (t_i, free_i)`
/// means `free_i` units are free on `[t_i, t_{i+1})`; the last segment
/// extends to infinity.
#[derive(Debug, PartialEq, Eq)]
pub struct CapacityProfile {
    points: Vec<(Timestamp, u64)>,
}

// Hand-written instead of derived so `clone_from` reuses the target's
// breakpoint allocation: every conservative-backfill plan rebuild
// copy-assigns the live skyline into the partition's long-lived plan
// profile, and the derived impl would discard and reallocate that vector
// each time.
impl Clone for CapacityProfile {
    fn clone(&self) -> Self {
        Self {
            points: self.points.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.points.clone_from(&source.points);
    }
}

impl CapacityProfile {
    /// A profile with `free` units free from `start` onwards.
    #[must_use]
    pub fn new(start: Timestamp, free: u64) -> Self {
        Self {
            points: vec![(start, free)],
        }
    }

    /// Builds the profile at time `now` from running-job end estimates:
    /// `running` is a slice of `(end_estimate, procs)`.
    #[must_use]
    pub fn from_running(now: Timestamp, capacity: u64, running: &[(Timestamp, u64)]) -> Self {
        let mut ends: Vec<(Timestamp, u64)> = running.to_vec();
        ends.sort_unstable();
        Self::from_sorted_running(now, capacity, ends.iter().copied())
    }

    /// [`Self::from_running`] for end estimates already in ascending order
    /// (the scheduler maintains its running set sorted, making this O(n)
    /// instead of O(n log n) — it runs on every scheduling pass).
    ///
    /// # Panics
    /// Debug-asserts the ascending order.
    #[must_use]
    pub fn from_sorted_running(
        now: Timestamp,
        capacity: u64,
        running: impl Iterator<Item = (Timestamp, u64)> + Clone,
    ) -> Self {
        let in_use: u64 = running.clone().map(|(_, p)| p).sum();
        let mut profile = Self::new(now, capacity.saturating_sub(in_use));
        let mut prev = Timestamp::MIN;
        for (end, procs) in running {
            debug_assert!(end >= prev, "running set must be end-sorted");
            prev = end;
            profile.release(end.max(now), procs);
        }
        profile
    }

    /// Number of breakpoints (for tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no breakpoints exist (never: construction seeds one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Free units at time `t` (clamped to the first segment before it).
    #[must_use]
    pub fn free_at(&self, t: Timestamp) -> u64 {
        match self.points.binary_search_by_key(&t, |&(ti, _)| ti) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Adds `procs` free units from time `at` onwards (a running job's
    /// estimated completion).
    pub fn release(&mut self, at: Timestamp, procs: u64) {
        if procs == 0 {
            return;
        }
        let idx = self.ensure_breakpoint(at);
        for p in &mut self.points[idx..] {
            p.1 += procs;
        }
    }

    /// Removes `procs` free units over `[from, to)` (a reservation).
    ///
    /// # Panics
    /// Panics (debug) if the interval lacks capacity — callers must have
    /// checked with [`Self::earliest_fit`] / [`Self::fits`].
    pub fn reserve(&mut self, from: Timestamp, to: Timestamp, procs: u64) {
        if from >= to || procs == 0 {
            return;
        }
        let start_idx = self.ensure_breakpoint(from);
        let end_idx = self.ensure_breakpoint(to);
        for p in &mut self.points[start_idx..end_idx] {
            debug_assert!(p.1 >= procs, "reservation exceeds free capacity");
            p.1 = p.1.saturating_sub(procs);
        }
        self.coalesce_at(end_idx);
        self.coalesce_at(start_idx);
    }

    /// Returns `procs` free units over `[from, to)` — the inverse of
    /// [`Self::reserve`]. Used when a running job completes before its end
    /// estimate: the unused tail of its planned reservation comes back.
    ///
    /// ```
    /// use lumos_sim::profile::CapacityProfile;
    /// let mut p = CapacityProfile::new(0, 10);
    /// p.reserve(0, 100, 4);
    /// p.unreserve(60, 100, 4); // finished early at t=60
    /// assert_eq!(p.free_at(59), 6);
    /// assert_eq!(p.free_at(60), 10);
    /// ```
    pub fn unreserve(&mut self, from: Timestamp, to: Timestamp, procs: u64) {
        if from >= to || procs == 0 {
            return;
        }
        let start_idx = self.ensure_breakpoint(from);
        let end_idx = self.ensure_breakpoint(to);
        for p in &mut self.points[start_idx..end_idx] {
            p.1 += procs;
        }
        self.coalesce_at(end_idx);
        self.coalesce_at(start_idx);
    }

    /// Drops every breakpoint strictly before `t` and re-anchors the first
    /// segment at `t`. Free values at times `>= t` are unchanged; history
    /// before `t` becomes unqueryable. Amortized O(1) per dropped point —
    /// the incremental skyline calls this every scheduling pass so the
    /// breakpoint list stays proportional to the number of *future* end
    /// estimates instead of growing with every job ever started.
    pub fn prune_to(&mut self, t: Timestamp) {
        let idx = match self.points.binary_search_by_key(&t, |&(ti, _)| ti) {
            Ok(i) => i,
            Err(0) => return, // every breakpoint is already at or after `t`
            Err(i) => i - 1,
        };
        if idx > 0 {
            self.points.drain(..idx);
        }
        self.points[0].0 = t;
    }

    /// True if `procs` units are free throughout `[from, to)`.
    #[must_use]
    pub fn fits(&self, from: Timestamp, to: Timestamp, procs: u64) -> bool {
        if from >= to {
            return true;
        }
        // Segment containing `from`:
        let mut i = match self.points.binary_search_by_key(&from, |&(t, _)| t) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        while i < self.points.len() && self.points[i].0 < to {
            if self.points[i].1 < procs {
                return false;
            }
            i += 1;
        }
        true
    }

    /// Earliest `t ≥ after` at which `procs` units stay free for
    /// `duration` seconds. Candidate starts are `after` itself and the
    /// breakpoints (capacity only changes there). Returns `None` if `procs`
    /// can never fit (i.e. exceeds the eventual total).
    ///
    /// One forward sweep over the segments at or after `after` — O(log n)
    /// to locate the starting segment plus O(segments scanned) — instead of
    /// the quadratic candidate × re-scan the naive formulation costs.
    #[must_use]
    pub fn earliest_fit(&self, after: Timestamp, procs: u64, duration: i64) -> Option<Timestamp> {
        if duration <= 0 {
            return Some(after); // an empty interval fits anywhere
        }
        let mut i = match self.points.binary_search_by_key(&after, |&(t, _)| t) {
            Ok(i) => i,
            Err(0) => 0, // before the first point: its value extends back
            Err(i) => i - 1,
        };
        // Start of the current run of segments with `free >= procs`.
        let mut run_start: Option<Timestamp> = None;
        // Where the current segment's candidate window begins: `after`
        // itself for the segment containing it, the breakpoint after that.
        let mut seg_start = after;
        while i < self.points.len() {
            if self.points[i].1 >= procs {
                let s = *run_start.get_or_insert(seg_start);
                if i + 1 == self.points.len() {
                    // Last segment extends to infinity; the run can only
                    // keep growing.
                    return run_start;
                }
                if self.points[i + 1].0 - s >= duration {
                    return run_start;
                }
            } else {
                run_start = None;
            }
            i += 1;
            if i < self.points.len() {
                seg_start = self.points[i].0;
            }
        }
        None
    }

    /// Earliest time at which at least `procs` units are free *and remain
    /// free forever after* (the EASY shadow time). Returns `None` if never.
    ///
    /// Requires a **monotone** profile — free capacity non-decreasing over
    /// time (debug-asserted). The incremental skyline satisfies this by
    /// construction: restricted to the future, every running job occupies a
    /// prefix interval `[now, end_estimate)`, so capacity only ever comes
    /// back. Monotonicity is what turns the query into a single
    /// `partition_point` binary search: O(log n) over the sorted
    /// breakpoints.
    #[must_use]
    pub fn earliest_forever(&self, after: Timestamp, procs: u64) -> Option<Timestamp> {
        debug_assert!(
            self.points.windows(2).all(|w| w[0].1 <= w[1].1),
            "earliest_forever requires a monotone (release-only) profile"
        );
        let idx = self.points.partition_point(|&(_, free)| free < procs);
        if idx == self.points.len() {
            None
        } else {
            Some(self.points[idx].0.max(after))
        }
    }

    /// The breakpoints (for tests and debugging).
    #[must_use]
    pub fn points(&self) -> &[(Timestamp, u64)] {
        &self.points
    }

    /// Removes the breakpoint at `idx` if it repeats its predecessor's
    /// value, keeping the representation canonical (no two adjacent
    /// breakpoints with equal free counts). Interval mutations shift a
    /// contiguous range by a constant, so only the two boundary pairs can
    /// become redundant — callers coalesce exactly those.
    fn coalesce_at(&mut self, idx: usize) {
        if idx > 0 && idx < self.points.len() && self.points[idx].1 == self.points[idx - 1].1 {
            self.points.remove(idx);
        }
    }

    /// Ensures a breakpoint exists exactly at `t`, returning its index.
    fn ensure_breakpoint(&mut self, t: Timestamp) -> usize {
        match self.points.binary_search_by_key(&t, |&(ti, _)| ti) {
            Ok(i) => i,
            Err(0) => {
                // Before the first point: extend the first segment backwards.
                let free = self.points[0].1;
                self.points.insert(0, (t, free));
                0
            }
            Err(i) => {
                let free = self.points[i - 1].1;
                self.points.insert(i, (t, free));
                i
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_running_accumulates_releases() {
        // Capacity 100; two running jobs: 60 units until t=50, 30 until t=80.
        let p = CapacityProfile::from_running(0, 100, &[(50, 60), (80, 30)]);
        assert_eq!(p.free_at(0), 10);
        assert_eq!(p.free_at(49), 10);
        assert_eq!(p.free_at(50), 70);
        assert_eq!(p.free_at(80), 100);
        assert_eq!(p.free_at(1_000), 100);
    }

    #[test]
    fn reserve_carves_an_interval() {
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(10, 20, 40);
        assert_eq!(p.free_at(9), 100);
        assert_eq!(p.free_at(10), 60);
        assert_eq!(p.free_at(19), 60);
        assert_eq!(p.free_at(20), 100);
    }

    #[test]
    fn fits_checks_whole_interval() {
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(10, 20, 80);
        assert!(p.fits(0, 10, 100));
        assert!(!p.fits(5, 15, 50));
        assert!(p.fits(5, 15, 20));
        assert!(p.fits(20, 100, 100));
    }

    #[test]
    fn earliest_fit_scans_breakpoints() {
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(0, 50, 90); // only 10 free until t=50
        assert_eq!(p.earliest_fit(0, 10, 100), Some(0));
        assert_eq!(p.earliest_fit(0, 20, 100), Some(50));
        // 30-second job of 20 units starting at 25 would overlap the busy
        // region, so it must wait for t=50.
        assert_eq!(p.earliest_fit(25, 20, 30), Some(50));
        assert_eq!(p.earliest_fit(0, 1_000, 10), None);
    }

    #[test]
    fn earliest_forever_is_the_shadow_time() {
        let p = CapacityProfile::from_running(0, 100, &[(50, 60), (80, 30)]);
        assert_eq!(p.earliest_forever(0, 10), Some(0));
        assert_eq!(p.earliest_forever(0, 70), Some(50));
        assert_eq!(p.earliest_forever(0, 100), Some(80));
        assert_eq!(p.earliest_forever(0, 101), None);
        // `after` clamps forward.
        assert_eq!(p.earliest_forever(60, 70), Some(60));
    }

    #[test]
    fn release_before_first_point_extends_backwards() {
        let mut p = CapacityProfile::new(100, 10);
        p.release(50, 5);
        assert_eq!(p.free_at(50), 15);
        assert_eq!(p.free_at(100), 15);
    }

    #[test]
    fn zero_length_reservation_is_a_noop() {
        let mut p = CapacityProfile::new(0, 10);
        p.reserve(5, 5, 10);
        assert_eq!(p.free_at(5), 10);
    }

    #[test]
    fn unreserve_returns_the_tail_and_coalesces() {
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(10, 50, 40);
        assert_eq!(p.len(), 3);
        // Full inverse restores the flat profile with no leftover points.
        p.unreserve(10, 50, 40);
        assert_eq!(p.points(), &[(0, 100)]);
        // Partial inverse (early completion) keeps only the live step.
        p.reserve(10, 50, 40);
        p.unreserve(30, 50, 40);
        assert_eq!(p.points(), &[(0, 100), (10, 60), (30, 100)]);
        assert_eq!(p.free_at(29), 60);
        assert_eq!(p.free_at(30), 100);
    }

    #[test]
    fn reserve_coalesces_boundary_steps() {
        // Two adjacent reservations of the same size merge into one step.
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(10, 20, 40);
        p.reserve(20, 30, 40);
        assert_eq!(p.points(), &[(0, 100), (10, 60), (30, 100)]);
    }

    #[test]
    fn prune_drops_history_and_reanchors() {
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(10, 20, 40);
        p.reserve(30, 60, 70);
        p.prune_to(35);
        assert_eq!(p.points(), &[(35, 30), (60, 100)]);
        assert_eq!(p.free_at(35), 30);
        assert_eq!(p.free_at(60), 100);
        // Pruning to an existing breakpoint keeps it.
        p.prune_to(60);
        assert_eq!(p.points(), &[(60, 100)]);
        // Pruning before every breakpoint is a no-op.
        let mut q = CapacityProfile::new(50, 10);
        q.prune_to(40);
        assert_eq!(q.points(), &[(50, 10)]);
    }

    #[test]
    fn earliest_fit_sweep_matches_candidate_scan() {
        // Reference implementation: try `after` then every later breakpoint.
        fn naive(p: &CapacityProfile, after: i64, procs: u64, dur: i64) -> Option<i64> {
            if p.fits(after, after + dur.max(0), procs) {
                return Some(after);
            }
            p.points()
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| t > after)
                .find(|&t| p.fits(t, t + dur.max(0), procs))
        }
        let mut p = CapacityProfile::new(0, 100);
        p.reserve(0, 50, 90);
        p.reserve(60, 70, 95);
        p.reserve(100, 130, 50);
        for after in [0, 25, 50, 55, 65, 99, 200] {
            for procs in [1u64, 10, 20, 60, 100, 101] {
                for dur in [0i64, 1, 10, 30, 100] {
                    assert_eq!(
                        p.earliest_fit(after, procs, dur),
                        naive(&p, after, procs, dur),
                        "after={after} procs={procs} dur={dur}"
                    );
                }
            }
        }
    }

    #[test]
    fn earliest_forever_binary_search_on_monotone_profile() {
        let p = CapacityProfile::from_running(0, 100, &[(50, 60), (30, 10)]);
        assert_eq!(p.earliest_forever(0, 30), Some(0));
        assert_eq!(p.earliest_forever(0, 31), Some(30));
        assert_eq!(p.earliest_forever(0, 41), Some(50));
        assert_eq!(p.earliest_forever(0, 100), Some(50));
        assert_eq!(p.earliest_forever(0, 101), None);
    }
}
