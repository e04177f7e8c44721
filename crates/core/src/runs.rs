//! Run states and runner bookkeeping (Sections 3.2, 3.4, 4.1–4.3).
//!
//! A *run* is a constant-size state held by a robot (the *runner*) with a
//! fixed moving direction along the chain. Every round a live run moves one
//! robot further in its direction (Lemma 3.1). Its runner may perform a
//! diagonal *reshapement hop* ("fold", Fig. 6 / Fig. 11a) when the local
//! shape allows; otherwise the run just walks (Fig. 11b/c). Runs moving
//! toward each other that cannot enable a merge *pass* each other without
//! reshaping (Fig. 8/14).
//!
//! The gathering strategy stores its live runs as a sparse, index-sorted
//! list ([`LiveRun`]) plus one [`Occupancy`] byte per robot: at most one
//! run per chain direction per robot. Two same-direction runs can never
//! share a robot: termination condition 1 of Table 1 removes the rear run
//! before contact (pipelining distance L = 13 > V = 11 keeps fresh runs
//! apart).

use crate::quasi::StartShape;
use chain_sim::packed::edge_code;
use chain_sim::RobotId;
use grid_geom::Offset;

/// Why a run terminated — Table 1 of the paper, plus bookkeeping cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// Table 1.1: a sequent (same-direction) run is visible ahead.
    SequentAhead,
    /// Table 1.2: the endpoint of the quasi line is visible ahead.
    EndpointAhead,
    /// Table 1.3: the runner was part of a merge operation.
    Merged,
    /// Table 1.4/5: the passing/walking target corner was removed.
    TargetRemoved,
    /// The robot carrying the run was spliced away by the merge pass.
    RobotRemoved,
    /// Engine hygiene: a same-direction run already occupies the arrival
    /// slot (can only happen against a freshly started run).
    SlotCollision,
}

/// Mode of a live run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Normal operation: fold when the local shape allows, else walk.
    Normal,
    /// Run passing (Fig. 8/14): walk without reshaping until the robot
    /// carrying the run *is* the target corner.
    Passing { target: RobotId },
}

/// A run state (constant-size robot memory).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// Unique run id (instrumentation only; robots never read it).
    pub id: u64,
    /// Moving direction along the chain: +1 or −1.
    pub dir: i8,
    /// The side of the quasi line the run reshapes toward (unit offset,
    /// perpendicular to the line). Fixed at start; good pairs are pairs
    /// with equal fold sides (Fig. 12).
    pub fold_side: Offset,
    /// Round the run was started (runs act from the following round).
    pub born: u64,
    /// The Figure 5 shape that started the run.
    pub shape: StartShape,
    /// Current mode.
    pub mode: RunMode,
    /// Remaining forced walk rounds (op c of Fig. 11: after the initial
    /// fold of a corner-started run, walk 3 rounds).
    pub walk_budget: u8,
    /// Op c pending: the next fold arms `walk_budget`.
    pub op_c_pending: bool,
}

impl Run {
    #[inline]
    pub fn dir(&self) -> isize {
        self.dir as isize
    }

    /// The fold side as a [`chain_sim::packed`] edge code.
    #[inline]
    pub fn fold_code(&self) -> u8 {
        edge_code(self.fold_side).expect("fold sides are unit steps")
    }
}

/// A live run and the chain index of the robot carrying it. The strategy
/// keeps its live runs as a list of these, sorted by robot and, per
/// robot, forward before backward — the order the paper's simultaneous
/// decisions are bookkept in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveRun {
    /// Chain index of the runner.
    pub robot: usize,
    /// The run state.
    pub run: Run,
}

impl LiveRun {
    /// Sort key of the live-run list.
    #[inline]
    pub fn key(&self) -> (usize, bool) {
        (self.robot, self.run.dir < 0)
    }
}

/// Which chain directions of one robot hold a run, and each run's fold
/// side — one byte per robot, all the run-ahead scans of a decision read.
///
/// Bit 0 / bit 1 flag a forward / backward run; bits 2–3 / 4–5 hold its
/// fold side as a [`chain_sim::packed`] edge code. Two same-direction runs
/// can never share a robot (Table 1.1 removes the rear run first).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Occupancy(u8);

impl Occupancy {
    /// No run on the robot.
    pub const EMPTY: Occupancy = Occupancy(0);

    #[inline]
    fn slot(dir: isize) -> u32 {
        u32::from(dir < 0)
    }

    /// Fold-side code of the run moving in `dir`, if any.
    #[inline]
    pub fn get(self, dir: isize) -> Option<u8> {
        let s = Self::slot(dir);
        (self.0 >> s & 1 != 0).then_some(self.0 >> (2 + 2 * s) & 3)
    }

    /// Record a run moving in `dir` with fold-side code `fold`.
    #[inline]
    pub fn set(&mut self, dir: isize, fold: u8) {
        let s = Self::slot(dir);
        self.0 = self.0 & !(1 << s | 3 << (2 + 2 * s)) | 1 << s | (fold & 3) << (2 + 2 * s);
    }

    /// `true` if the robot holds no run.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of runs on the robot (0..=2).
    #[inline]
    pub fn count(self) -> usize {
        (self.0 & 3).count_ones() as usize
    }
}

/// What a run decides to do this round (pure decision output; the strategy
/// applies it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunAction {
    /// Terminate with the given reason (run does not move).
    Die(StopReason),
    /// Move forward; `fold` carries the runner's diagonal hop if the run
    /// reshapes this round.
    Advance { fold: Option<Offset>, next: Run },
}

/// Counters for the audit tables (E2–E4) and reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    pub started_stairway: u64,
    pub started_corner: u64,
    pub folds: u64,
    pub walks: u64,
    pub passings_started: u64,
    pub stopped_sequent: u64,
    pub stopped_endpoint: u64,
    pub stopped_merged: u64,
    pub stopped_target_removed: u64,
    pub stopped_robot_removed: u64,
    pub stopped_slot_collision: u64,
    pub max_live_runs: u64,
    /// Oscillation-suppression triggers (robots entering suppression).
    pub suppressions: u64,
}

impl RunStats {
    pub fn started_total(&self) -> u64 {
        self.started_stairway + self.started_corner
    }

    pub fn stopped_total(&self) -> u64 {
        self.stopped_sequent
            + self.stopped_endpoint
            + self.stopped_merged
            + self.stopped_target_removed
            + self.stopped_robot_removed
            + self.stopped_slot_collision
    }

    pub fn record_stop(&mut self, reason: StopReason) {
        match reason {
            StopReason::SequentAhead => self.stopped_sequent += 1,
            StopReason::EndpointAhead => self.stopped_endpoint += 1,
            StopReason::Merged => self.stopped_merged += 1,
            StopReason::TargetRemoved => self.stopped_target_removed += 1,
            StopReason::RobotRemoved => self.stopped_robot_removed += 1,
            StopReason::SlotCollision => self.stopped_slot_collision += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(dir: i8) -> Run {
        Run {
            id: 1,
            dir,
            fold_side: Offset::DOWN,
            born: 0,
            shape: StartShape::StairwayEnd,
            mode: RunMode::Normal,
            walk_budget: 0,
            op_c_pending: false,
        }
    }

    #[test]
    fn cell_slots_by_direction() {
        use chain_sim::packed::{EDGE_N, EDGE_S, EDGE_W};
        let mut cell = Occupancy::EMPTY;
        assert!(cell.is_empty());
        cell.set(1, EDGE_N);
        assert_eq!(
            (cell.get(1), cell.get(-1), cell.count()),
            (Some(EDGE_N), None, 1)
        );
        cell.set(-1, EDGE_W);
        assert_eq!(cell.count(), 2);
        assert_eq!(cell.get(1), Some(EDGE_N));
        assert_eq!(cell.get(-1), Some(EDGE_W));
        // Re-setting a slot replaces its fold side only.
        cell.set(1, EDGE_S);
        assert_eq!((cell.get(1), cell.get(-1)), (Some(EDGE_S), Some(EDGE_W)));
        // The live-run order: by robot, forward before backward.
        let a = LiveRun {
            robot: 3,
            run: run(-1),
        };
        let b = LiveRun {
            robot: 3,
            run: run(1),
        };
        assert!(b.key() < a.key());
        assert!(
            a.key()
                < LiveRun {
                    robot: 4,
                    run: run(1)
                }
                .key()
        );
    }

    #[test]
    fn stats_bookkeeping() {
        let mut s = RunStats::default();
        s.record_stop(StopReason::SequentAhead);
        s.record_stop(StopReason::Merged);
        s.record_stop(StopReason::Merged);
        s.started_corner = 2;
        s.started_stairway = 1;
        assert_eq!(s.stopped_total(), 3);
        assert_eq!(s.started_total(), 3);
    }
}
