//! The closed chain data structure.
//!
//! A [`ClosedChain`] is the cyclic sequence `r_0, …, r_{n-1}` of the paper.
//! Between rounds it is *taut*: every chain edge is a unit step (coinciding
//! chain neighbors have been merged away). During a round, simultaneous
//! hops may make chain neighbors coincide; the [`ClosedChain::merge_pass`]
//! then splices the chain exactly as the paper's merge operation does
//! (Fig. 1): "their neighborhoods are merged and one of both is removed".
//!
//! Robots that coincide but are *not* chain neighbors are left alone
//! (explicitly so in the paper — the chain may cross itself).

use crate::robot::RobotId;
use grid_geom::{chain_adjacent, manhattan, Offset, Point, Rect};
use std::f64::consts::SQRT_2;

/// Errors detected by [`ClosedChain::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// Fewer than 2 robots cannot form a (meaningful) closed chain.
    TooShort {
        /// Offending chain length.
        len: usize,
    },
    /// Chain neighbors further than one grid step apart — the chain broke.
    Disconnected {
        /// Index of the first robot of the broken edge.
        index: usize,
        /// Position of the robot at `index`.
        a: Point,
        /// Position of its chain successor.
        b: Point,
    },
    /// Chain neighbors on the same point outside a merge pass (the chain
    /// must be taut between rounds).
    CoincidentNeighbors {
        /// Index of the first robot of the coinciding pair.
        index: usize,
        /// The shared position.
        at: Point,
    },
    /// A robot hop with a component outside `{-1, 0, 1}`.
    IllegalHop {
        /// Index of the robot with the illegal hop.
        index: usize,
        /// The rejected hop.
        hop: Offset,
    },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::TooShort { len } => write!(f, "chain too short: {len} robots"),
            ChainError::Disconnected { index, a, b } => {
                write!(
                    f,
                    "chain disconnected between index {index} at {a} and its successor at {b}"
                )
            }
            ChainError::CoincidentNeighbors { index, at } => {
                write!(
                    f,
                    "chain neighbors {index} and successor coincide at {at} outside a merge pass"
                )
            }
            ChainError::IllegalHop { index, hop } => {
                write!(f, "illegal hop {hop} for robot at index {index}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// One merge of the merge pass: `removed` robots were spliced out because
/// they coincided with chain neighbor `keeper`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeEvent {
    /// Id of the surviving robot of the coincidence group.
    pub keeper: RobotId,
    /// Ids of the removed robots (≥ 1).
    pub removed: Vec<RobotId>,
    /// Grid point where the merge happened.
    pub at: Point,
}

/// Result of a merge pass: which (pre-splice) indices were removed plus the
/// merge events. Strategies use this to keep their per-robot state arrays in
/// sync with the chain.
#[derive(Clone, Debug, Default)]
pub struct SpliceLog {
    /// Pre-splice indices removed, strictly ascending.
    pub removed_indices: Vec<usize>,
    /// Pre-splice index of the keeper for each removed index (parallel to
    /// `removed_indices`).
    pub keeper_indices: Vec<usize>,
    /// Merge events (one per coincidence group).
    pub events: Vec<MergeEvent>,
}

impl SpliceLog {
    /// Reset the log for the next merge pass (buffers keep their capacity).
    pub fn clear(&mut self) {
        self.removed_indices.clear();
        self.keeper_indices.clear();
        self.events.clear();
    }

    /// Number of robots removed.
    pub fn removed_count(&self) -> usize {
        self.removed_indices.len()
    }

    /// `true` if nothing merged.
    pub fn is_empty(&self) -> bool {
        self.removed_indices.is_empty()
    }

    /// Map a pre-splice index to its post-splice index, or `None` if the
    /// robot at that index was removed.
    pub fn remap(&self, old: usize) -> Option<usize> {
        match self.removed_indices.binary_search(&old) {
            Ok(_) => None,
            Err(shift) => Some(old - shift),
        }
    }
}

/// What one [`ClosedChain::apply_hops`] sweep saw of the post-move chain.
///
/// The sweep has already proved every chain edge adjacent, so `coincident`
/// is the only way the chain can fail to be taut: when it is `false` the
/// post-move chain is taut and the merge pass has nothing to splice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopSweep {
    /// Robots that performed a nonzero hop.
    pub moved: usize,
    /// `true` if some pair of chain neighbors now shares a grid point.
    pub coincident: bool,
    /// Bounding box of the post-move positions. A merge removes only
    /// robots standing on their keeper's point, so this is also the box
    /// after the merge pass.
    pub bounds: Rect,
}

/// The closed chain of robots (struct-of-arrays layout: positions and ids).
#[derive(Clone, Debug)]
pub struct ClosedChain {
    pos: Vec<Point>,
    id: Vec<RobotId>,
}

impl ClosedChain {
    /// Build a chain from positions; assigns fresh ids `r0, r1, …`.
    ///
    /// Returns an error unless the sequence is a valid taut closed chain:
    /// every cyclically-consecutive pair differs by exactly one axis step.
    pub fn new(positions: Vec<Point>) -> Result<Self, ChainError> {
        let n = positions.len();
        let chain = ClosedChain {
            id: (0..n as u64).map(RobotId).collect(),
            pos: positions,
        };
        chain.validate()?;
        Ok(chain)
    }

    /// Number of robots currently on the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// `true` if the chain holds no robots (never the case for a validated
    /// chain; provided for the `len`/`is_empty` API convention).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Cyclic index normalization: maps any signed offset from an index into
    /// `0..n`. Indices within one lap of the range — every neighbor lookup
    /// of a view shorter than the chain — wrap with a compare instead of a
    /// division.
    #[inline]
    pub fn cyc(&self, i: isize) -> usize {
        let n = self.pos.len() as isize;
        if (0..n).contains(&i) {
            i as usize
        } else if (-n..0).contains(&i) {
            (i + n) as usize
        } else if (n..2 * n).contains(&i) {
            (i - n) as usize
        } else {
            i.rem_euclid(n) as usize
        }
    }

    /// Neighbor `delta` steps away from `i` along the chain (cyclic).
    #[inline]
    pub fn nb(&self, i: usize, delta: isize) -> usize {
        self.cyc(i as isize + delta)
    }

    /// Position of robot `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> Point {
        self.pos[i]
    }

    /// Id of robot `i`.
    #[inline]
    pub fn id(&self, i: usize) -> RobotId {
        self.id[i]
    }

    /// All positions (chain order).
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.pos
    }

    /// All ids (chain order).
    #[inline]
    pub fn ids(&self) -> &[RobotId] {
        &self.id
    }

    /// Chain-order index of the robot with id `id` (linear scan — intended
    /// for tests and auditors, not hot paths).
    pub fn index_of(&self, id: RobotId) -> Option<usize> {
        self.id.iter().position(|&x| x == id)
    }

    /// The step from robot `i` to its successor (`pos[i+1] - pos[i]`).
    #[inline]
    pub fn step(&self, i: usize) -> Offset {
        let j = self.nb(i, 1);
        self.pos[j] - self.pos[i]
    }

    /// Bounding box of all robots.
    pub fn bounding(&self) -> Rect {
        Rect::bounding(self.pos.iter().copied()).expect("chain is non-empty")
    }

    /// The paper's gathering criterion: all robots within a 2×2 subgrid.
    pub fn is_gathered(&self) -> bool {
        self.bounding().is_gathered_2x2()
    }

    /// Validate the taut closed-chain invariant.
    pub fn validate(&self) -> Result<(), ChainError> {
        let n = self.pos.len();
        if n < 2 {
            // A chain of 1 robot is the fully merged terminal state; treat
            // length 0/1 as valid terminals except for construction.
            return if n == 1 {
                Ok(())
            } else {
                Err(ChainError::TooShort { len: n })
            };
        }
        for i in 0..n {
            let a = self.pos[i];
            let b = self.pos[self.nb(i, 1)];
            if a == b {
                return Err(ChainError::CoincidentNeighbors { index: i, at: a });
            }
            if !chain_adjacent(a, b) {
                return Err(ChainError::Disconnected { index: i, a, b });
            }
        }
        Ok(())
    }

    /// Apply one hop per robot simultaneously (the move step of FSYNC);
    /// [`ClosedChain::apply_hops_with`] without a travel callback.
    pub fn apply_hops(&mut self, hops: &[Offset]) -> Result<HopSweep, ChainError> {
        self.apply_hops_with(hops, |_, _| {})
    }

    /// Apply one hop per robot simultaneously, in one sweep over the chain
    /// that also checks the result and summarizes it.
    ///
    /// Hops must have components in `{-1, 0, 1}`; the first illegal hop is
    /// reported as [`ChainError::IllegalHop`] with the chain unmoved. Every
    /// chain edge is then checked for adjacency; the first broken one, in
    /// edge order `(0, 1), …, (n-2, n-1), (n-1, 0)`, is reported as
    /// [`ChainError::Disconnected`] with the chain in its (broken)
    /// post-move state, so callers can render diagnostics.
    ///
    /// `on_move(i, len)` is called for every robot `i` with a nonzero hop,
    /// in index order, with the hop's Euclidean length (`1.0`, or
    /// [`std::f64::consts::SQRT_2`] for a diagonal). On an error it has
    /// been called for every mover before the failing index (all movers
    /// for `Disconnected`).
    pub fn apply_hops_with(
        &mut self,
        hops: &[Offset],
        mut on_move: impl FnMut(usize, f64),
    ) -> Result<HopSweep, ChainError> {
        let n = self.pos.len();
        assert_eq!(hops.len(), n, "one hop per robot");
        assert!(n > 0, "a closed chain holds at least one robot");
        let mut moved = 0;
        let mut coincident = false;
        let mut broken = None;
        let mut illegal = None;
        // Empty box: the first `expand` makes it that robot's point.
        let mut bounds = Rect {
            min: Point::new(i64::MAX, i64::MAX),
            max: Point::new(i64::MIN, i64::MIN),
        };
        let mut judge = |edge: usize, a: Point, b: Point| match manhattan(a, b) {
            0 => coincident = true,
            1 => {}
            _ => {
                broken.get_or_insert(edge);
            }
        };
        let mut prev = Point::ORIGIN;
        // Edge (i-1, i) is judged once robot i has moved, so broken edges
        // are met in edge order; the closing edge comes after the loop.
        for (i, (p, &h)) in self.pos.iter_mut().zip(hops).enumerate() {
            if !h.is_hop() {
                illegal = Some(i);
                break;
            }
            if h != Offset::ZERO {
                moved += 1;
                on_move(i, if h.is_diagonal() { SQRT_2 } else { 1.0 });
                *p += h;
            }
            let q = *p;
            if i > 0 {
                judge(i - 1, prev, q);
            }
            bounds.expand(q);
            prev = q;
        }
        if let Some(index) = illegal {
            for (p, &h) in self.pos[..index].iter_mut().zip(hops) {
                *p -= h;
            }
            return Err(ChainError::IllegalHop {
                index,
                hop: hops[index],
            });
        }
        if n > 1 {
            judge(n - 1, prev, self.pos[0]);
        }
        if let Some(index) = broken {
            return Err(ChainError::Disconnected {
                index,
                a: self.pos[index],
                b: self.pos[self.nb(index, 1)],
            });
        }
        Ok(HopSweep {
            moved,
            coincident,
            bounds,
        })
    }

    /// The merge pass: splice out robots coinciding with chain neighbors.
    ///
    /// Maximal groups of cyclically-consecutive robots on one grid point are
    /// collapsed to their first member (first in chain order, with wrapping
    /// groups anchored at their true start). The neighborhoods merge exactly
    /// as in the paper: the keeper inherits the group's outside neighbors.
    ///
    /// Returns the number of robots removed; details land in `log`.
    pub fn merge_pass(&mut self, log: &mut SpliceLog) -> usize {
        log.clear();
        let n = self.pos.len();
        if n < 2 {
            return 0;
        }

        // Everyone on one point and n ≥ 2: collapse to a single robot.
        if self.pos.iter().all(|&p| p == self.pos[0]) {
            let keeper = self.id[0];
            let at = self.pos[0];
            let removed: Vec<RobotId> = self.id[1..].to_vec();
            log.removed_indices.extend(1..n);
            log.keeper_indices.extend(std::iter::repeat_n(0, n - 1));
            log.events.push(MergeEvent {
                keeper,
                removed,
                at,
            });
            self.pos.truncate(1);
            self.id.truncate(1);
            return n - 1;
        }

        // Find the start of a group boundary so groups never wrap: an index
        // whose predecessor sits on a different point.
        let mut anchor = 0;
        while self.pos[self.nb(anchor, -1)] == self.pos[anchor] {
            anchor += 1; // terminates: not all positions equal
        }

        // Walk the cycle from the anchor, grouping equal consecutive
        // positions. Every walked index is below `2n`: one conditional
        // subtraction wraps it.
        let wrap = |i: usize| if i >= n { i - n } else { i };
        let mut k = 0;
        while k < n {
            let gi = wrap(anchor + k);
            let p = self.pos[gi];
            let mut glen = 1;
            while glen < n && self.pos[wrap(anchor + k + glen)] == p {
                glen += 1;
            }
            if glen > 1 {
                let keeper_idx = gi;
                let mut removed = Vec::with_capacity(glen - 1);
                for j in 1..glen {
                    let ri = wrap(anchor + k + j);
                    removed.push(self.id[ri]);
                    log.removed_indices.push(ri);
                    log.keeper_indices.push(keeper_idx);
                }
                log.events.push(MergeEvent {
                    keeper: self.id[keeper_idx],
                    removed,
                    at: p,
                });
            }
            k += glen;
        }

        if log.removed_indices.is_empty() {
            return 0;
        }

        // The walk emitted the removed indices above the anchor in
        // ascending order, then the wrapped ones below it, also ascending
        // (the anchor itself is a keeper). Rotating both parallel arrays
        // at that split sorts them for remap().
        let split = log.removed_indices.partition_point(|&i| i > anchor);
        log.removed_indices.rotate_left(split);
        log.keeper_indices.rotate_left(split);

        // Splice out removed indices (single compaction sweep).
        let mut write = 0;
        let mut rm_iter = log.removed_indices.iter().peekable();
        for read in 0..n {
            if rm_iter.peek() == Some(&&read) {
                rm_iter.next();
                continue;
            }
            self.pos[write] = self.pos[read];
            self.id[write] = self.id[read];
            write += 1;
        }
        self.pos.truncate(write);
        self.id.truncate(write);
        log.removed_indices.len()
    }

    /// Sum of chain edge lengths (all 1 when taut) — the chain length in
    /// the paper's sense is simply `len()`, provided here for reports.
    pub fn edge_count(&self) -> usize {
        self.pos.len()
    }

    /// Test/workload helper: rotate the chain origin (`r_0`) by `k`
    /// positions. The configuration is unchanged; indistinguishability means
    /// strategies must behave identically (checked by symmetry tests).
    pub fn rotate_origin(&mut self, k: usize) {
        let n = self.pos.len();
        if n == 0 {
            return;
        }
        let k = k % n;
        self.pos.rotate_left(k);
        self.id.rotate_left(k);
    }

    /// Test/workload helper: reverse chain orientation. The paper's chains
    /// have a local orientation; the algorithm must be equivariant under
    /// reversing it (checked by symmetry tests).
    pub fn reverse_orientation(&mut self) {
        self.pos.reverse();
        self.id.reverse();
    }

    /// Translate all robots by `o` (symmetry tests: no global coordinates).
    pub fn translate(&mut self, o: Offset) {
        for p in &mut self.pos {
            *p += o;
        }
    }

    /// Apply a grid isometry to all positions: rotate by 90° `quarter`
    /// times counter-clockwise around the origin, then mirror x if asked.
    /// (Symmetry tests: no compass.)
    pub fn transform(&mut self, quarters: u8, mirror_x: bool) {
        for p in &mut self.pos {
            let mut q = *p;
            for _ in 0..(quarters % 4) {
                q = Point::new(-q.y, q.x);
            }
            if mirror_x {
                q = Point::new(-q.x, q.y);
            }
            *p = q;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    fn square4() -> ClosedChain {
        chain(&[(0, 0), (0, 1), (1, 1), (1, 0)])
    }

    #[test]
    fn construction_validates() {
        assert!(ClosedChain::new(vec![]).is_err());
        // Gap breaks the chain.
        assert!(ClosedChain::new(vec![Point::new(0, 0), Point::new(2, 0)]).is_err());
        // Diagonal neighbors are not chain-adjacent.
        assert!(ClosedChain::new(vec![Point::new(0, 0), Point::new(1, 1)]).is_err());
        // Coincident neighbors rejected at construction.
        assert!(ClosedChain::new(vec![Point::new(0, 0), Point::new(0, 0)]).is_err());
        // Minimal legal chain: two robots on adjacent points.
        let c = ClosedChain::new(vec![Point::new(0, 0), Point::new(1, 0)]).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cyclic_indexing() {
        let c = square4();
        assert_eq!(c.nb(0, 1), 1);
        assert_eq!(c.nb(0, -1), 3);
        assert_eq!(c.nb(3, 1), 0);
        assert_eq!(c.nb(1, 6), 3);
        assert_eq!(c.nb(1, -6), 3);
        assert_eq!(c.cyc(-1), 3);
        assert_eq!(c.cyc(4), 0);
        // Beyond one lap the compare chain falls back to the remainder.
        assert_eq!(c.cyc(9), 1);
        assert_eq!(c.cyc(-9), 3);
        assert_eq!(c.cyc(-4), 0);
        assert_eq!(c.cyc(7), 3);
    }

    #[test]
    fn steps_are_unit_on_taut_chain() {
        let c = square4();
        for i in 0..c.len() {
            assert!(c.step(i).is_unit_step(), "step {i}");
        }
    }

    #[test]
    fn bounding_and_gathered() {
        let c = square4();
        assert!(c.is_gathered());
        let big = chain(&[(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
        assert!(!big.is_gathered());
        assert_eq!(big.bounding().width(), 3);
        assert_eq!(big.bounding().height(), 2);
    }

    #[test]
    fn apply_hops_moves_simultaneously() {
        let mut c = chain(&[(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
        let hops = vec![Offset::ZERO; 6];
        c.apply_hops(&hops).unwrap();
        assert_eq!(c.pos(0), Point::new(0, 0));
        // Illegal hop rejected.
        let mut bad = vec![Offset::ZERO; 6];
        bad[2] = Offset::new(2, 0);
        assert!(matches!(
            c.apply_hops(&bad),
            Err(ChainError::IllegalHop { index: 2, .. })
        ));
    }

    #[test]
    fn merge_pass_collapses_neighbor_coincidence() {
        // Figure 1 of the paper: r2 and r3 hop down onto r1 and r4.
        // Chain: r0(0,0) r1(0,1) r2(0,2) r3(1,2) r4(1,1) r5(1,0), closed.
        let mut c = chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]);
        let hops = vec![
            Offset::ZERO,
            Offset::ZERO,
            Offset::DOWN,
            Offset::DOWN,
            Offset::ZERO,
            Offset::ZERO,
        ];
        c.apply_hops(&hops).unwrap();
        let mut log = SpliceLog::default();
        let removed = c.merge_pass(&mut log);
        assert_eq!(removed, 2);
        assert_eq!(c.len(), 4);
        c.validate().unwrap();
        assert!(c.is_gathered());
        // Keeper of each pair is the first of the coincidence group in
        // chain order: r1 keeps (r2 removed), r3 keeps (r4 removed).
        assert_eq!(log.events.len(), 2);
    }

    #[test]
    fn merge_pass_handles_groups_of_three() {
        // Three consecutive robots on one point (Fig. 3b aftermath).
        let mut c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        let hops = vec![
            Offset::ZERO,
            Offset::new(-1, 0),
            Offset::new(-1, -1),
            Offset::new(0, -1),
        ];
        c.apply_hops(&hops).unwrap();
        // Now all four robots are at (0,0).
        let mut log = SpliceLog::default();
        let removed = c.merge_pass(&mut log);
        assert_eq!(removed, 3);
        assert_eq!(c.len(), 1);
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].removed.len(), 3);
    }

    #[test]
    fn merge_pass_wrapping_group() {
        // Fig. 1 configuration with the chain origin rotated so one
        // coincidence group wraps the index origin {r5, r0}.
        let mut c = chain(&[(0, 2), (1, 2), (1, 1), (1, 0), (0, 0), (0, 1)]);
        let hops = vec![
            Offset::DOWN,
            Offset::DOWN,
            Offset::ZERO,
            Offset::ZERO,
            Offset::ZERO,
            Offset::ZERO,
        ];
        c.apply_hops(&hops).unwrap();
        assert_eq!(c.pos(0), c.pos(5)); // wrapping coincidence
        assert_eq!(c.pos(1), c.pos(2));
        let mut log = SpliceLog::default();
        let removed = c.merge_pass(&mut log);
        assert_eq!(removed, 2);
        assert_eq!(c.len(), 4);
        c.validate().unwrap();
        assert_eq!(log.events.len(), 2);
        // The walk starts at index 1 and meets {1, 2} before the wrapping
        // {5, 0}; the log is sorted by removed index with each keeper
        // still beside the robot it absorbed.
        assert_eq!(log.removed_indices, vec![0, 2]);
        assert_eq!(log.keeper_indices, vec![5, 1]);
        for &gone in &log.removed_indices {
            assert_eq!(log.remap(gone), None);
        }
    }

    #[test]
    fn merge_pass_ignores_non_neighbor_coincidence() {
        // A chain crossing itself: two robots share a point but are not
        // chain neighbors — must NOT merge (explicit in the paper).
        // Figure-eight-ish: walk right, up, left, down through the middle.
        let mut c = chain(&[
            (0, 0),
            (1, 0),
            (1, 1),
            (0, 1),
            (0, 0),
            (-1, 0),
            (-1, -1),
            (0, -1),
        ]);
        assert_eq!(c.pos(0), c.pos(4));
        let mut log = SpliceLog::default();
        let removed = c.merge_pass(&mut log);
        assert_eq!(removed, 0);
        assert_eq!(c.len(), 8);
        c.validate().unwrap();
    }

    #[test]
    fn splice_log_remap() {
        let log = SpliceLog {
            removed_indices: vec![2, 5],
            keeper_indices: vec![1, 4],
            events: vec![],
        };
        assert_eq!(log.remap(0), Some(0));
        assert_eq!(log.remap(1), Some(1));
        assert_eq!(log.remap(2), None);
        assert_eq!(log.remap(3), Some(2));
        assert_eq!(log.remap(4), Some(3));
        assert_eq!(log.remap(5), None);
        assert_eq!(log.remap(6), Some(4));
    }

    #[test]
    fn symmetry_helpers() {
        let mut c = square4();
        let before = c.positions().to_vec();
        c.rotate_origin(2);
        assert_eq!(c.pos(0), before[2]);
        c.reverse_orientation();
        c.validate().unwrap();
        c.translate(Offset::new(10, -3));
        c.validate().unwrap();
        c.transform(1, false);
        c.validate().unwrap();
        c.transform(3, true);
        c.validate().unwrap();
    }

    #[test]
    fn total_collapse() {
        let mut c = chain(&[(0, 0), (1, 0)]);
        let hops = vec![Offset::ZERO, Offset::new(-1, 0)];
        c.apply_hops(&hops).unwrap();
        let mut log = SpliceLog::default();
        assert_eq!(c.merge_pass(&mut log), 1);
        assert_eq!(c.len(), 1);
        assert!(c.is_gathered());
    }

    /// The multi-pass apply the one-sweep [`ClosedChain::apply_hops_with`]
    /// replaced: a legality pass, an add pass, a connectivity pass, a
    /// mover count, a travel fold, and the `validate` and
    /// `Rect::bounding` scans the engine ran after it. Kept as the
    /// reference the sweep is checked against.
    mod reference {
        use super::*;

        fn check_connected(c: &ClosedChain) -> Result<(), ChainError> {
            let n = c.pos.len();
            for i in 0..n {
                let a = c.pos[i];
                let b = c.pos[c.nb(i, 1)];
                if !chain_adjacent(a, b) {
                    return Err(ChainError::Disconnected { index: i, a, b });
                }
            }
            Ok(())
        }

        pub(super) fn apply_hops(
            c: &mut ClosedChain,
            hops: &[Offset],
        ) -> Result<HopSweep, ChainError> {
            assert_eq!(hops.len(), c.pos.len(), "one hop per robot");
            for (i, h) in hops.iter().enumerate() {
                if !h.is_hop() {
                    return Err(ChainError::IllegalHop { index: i, hop: *h });
                }
            }
            for (p, h) in c.pos.iter_mut().zip(hops) {
                *p += *h;
            }
            check_connected(c)?;
            Ok(HopSweep {
                moved: hops.iter().filter(|h| **h != Offset::ZERO).count(),
                // Connected, so `validate` can only object to a
                // coincident pair.
                coincident: c.len() > 1 && c.validate().is_err(),
                bounds: Rect::bounding(c.pos.iter().copied()).unwrap(),
            })
        }

        /// Per-mover travel as the engine used to fold it, for the movers
        /// before `upto`.
        pub(super) fn travel(hops: &[Offset], upto: usize) -> Vec<(usize, u64)> {
            hops[..upto]
                .iter()
                .enumerate()
                .filter(|(_, h)| **h != Offset::ZERO)
                .map(|(i, h)| (i, ((h.dx * h.dx + h.dy * h.dy) as f64).sqrt().to_bits()))
                .collect()
        }
    }

    /// A random taut closed chain: `steps` random unit steps from the
    /// origin, then straight back to it (the return's last step is the
    /// closing edge). Non-neighbors may coincide, neighbors never do.
    fn random_taut(rng: &mut crate::rng::SplitMix64, steps: usize) -> ClosedChain {
        const UNIT: [Offset; 4] = [Offset::RIGHT, Offset::UP, Offset::LEFT, Offset::DOWN];
        let mut p = Point::ORIGIN;
        let mut pts = vec![p];
        for _ in 0..steps {
            p += UNIT[rng.range_usize(0, 4)];
            pts.push(p);
        }
        while p != Point::ORIGIN {
            p += if p.x != 0 {
                Offset::new(-p.x.signum(), 0)
            } else {
                Offset::new(0, -p.y.signum())
            };
            pts.push(p);
        }
        pts.pop();
        ClosedChain::new(pts).unwrap()
    }

    /// Random hops for `c`: each robot moves with probability `1/sparsity`,
    /// onto its successor or predecessor (the moves that make neighbors
    /// coincide) or by a uniform legal hop; one draw in twelve plants an
    /// illegal hop.
    fn random_hops(rng: &mut crate::rng::SplitMix64, c: &ClosedChain) -> Vec<Offset> {
        let n = c.len();
        let sparsity = [2, 4, 16][rng.range_usize(0, 3)] as u64;
        let mut hops: Vec<Offset> = (0..n)
            .map(|i| {
                if !rng.chance(1, sparsity) {
                    return Offset::ZERO;
                }
                match rng.range_usize(0, 4) {
                    0 | 1 => c.step(i),
                    2 => -c.step(c.nb(i, -1)),
                    _ => Offset::new(
                        rng.range_i64_inclusive(-1, 1),
                        rng.range_i64_inclusive(-1, 1),
                    ),
                }
            })
            .collect();
        if rng.chance(1, 12) {
            let at = rng.range_usize(0, n);
            hops[at] =
                [Offset::new(2, 0), Offset::new(0, -3), Offset::new(1, 2)][rng.range_usize(0, 3)];
        }
        hops
    }

    /// Differential test: the one-sweep apply against the multi-pass
    /// reference on seeded random taut chains and hops. Both must give the
    /// same `Result` (error kind, index and payload included), the same
    /// post-call positions and the same summary; the travel callback must
    /// see exactly the movers the old fold credited. On success the
    /// summary must also be what the engine relies on: no coincidence
    /// means a taut chain and an empty merge, a coincidence means a
    /// splice, and the box survives the merge.
    #[test]
    fn sweep_matches_multi_pass_reference() {
        let mut rng = crate::rng::SplitMix64::new(0x5eed_5bee);
        let (mut taut, mut merged, mut wrapped, mut illegal, mut closing, mut several) =
            (0, 0, 0, 0, 0, 0);
        for draw in 0..20_000 {
            let steps = rng.range_usize(1, 40);
            let mut c = random_taut(&mut rng, steps);
            let n = c.len();
            c.rotate_origin(rng.range_usize(0, n));
            let hops = random_hops(&mut rng, &c);

            let mut swept = c.clone();
            let mut credited = Vec::new();
            let got = swept.apply_hops_with(&hops, |i, len| credited.push((i, len.to_bits())));
            let mut multi = c.clone();
            let want = reference::apply_hops(&mut multi, &hops);
            assert_eq!(got, want, "draw {draw}: {hops:?}");
            assert_eq!(swept.positions(), multi.positions(), "draw {draw}");
            let upto = match want {
                Err(ChainError::IllegalHop { index, .. }) => index,
                _ => n,
            };
            assert_eq!(credited, reference::travel(&hops, upto), "draw {draw}");

            match want {
                Ok(sweep) => {
                    if n > 1 && multi.pos(0) == multi.pos(n - 1) {
                        wrapped += 1;
                    }
                    let mut log = SpliceLog::default();
                    let removed = swept.merge_pass(&mut log);
                    assert_eq!(removed > 0, sweep.coincident, "draw {draw}");
                    if sweep.coincident {
                        merged += 1;
                    } else {
                        taut += 1;
                        if n > 1 {
                            swept.validate().unwrap();
                        }
                    }
                    if swept.len() > 1 {
                        swept.validate().unwrap();
                    }
                    assert_eq!(swept.bounding(), sweep.bounds, "draw {draw}");
                }
                Err(ChainError::IllegalHop { .. }) => illegal += 1,
                Err(ChainError::Disconnected { index, .. }) => {
                    if index == n - 1 {
                        closing += 1;
                    }
                    let breaks = (0..n)
                        .filter(|&i| !chain_adjacent(multi.pos(i), multi.pos(multi.nb(i, 1))))
                        .count();
                    if breaks > 1 {
                        several += 1;
                    }
                }
                Err(e) => panic!("draw {draw}: unexpected {e}"),
            }
        }
        // Every case the sweep distinguishes is exercised, not just reachable.
        for (what, count) in [
            ("taut", taut),
            ("merged", merged),
            ("wrapped group", wrapped),
            ("illegal hop", illegal),
            ("closing edge broken", closing),
            ("several broken edges", several),
        ] {
            assert!(count >= 100, "only {count} draws covered: {what}");
        }
    }
}
