//! The complete gathering strategy (Fig. 15 of the paper).
//!
//! Every robot, every round (all from the common FSYNC snapshot):
//!
//! 1. **Merge**: if the robot is a black of a merge pattern it performs the
//!    pattern's hop (diagonal when black in two patterns, Fig. 3b); whites
//!    stand still.
//! 2. **Run operations**: every live run first checks the termination
//!    conditions of Table 1, then either continues run passing, starts run
//!    passing (opposing run within distance 3 on the other fold side),
//!    folds (Fig. 6/11a: behind-neighbor on the fold side and the next
//!    three robots ahead aligned), or walks (Fig. 11b/c). The run state
//!    then moves one robot further in its moving direction (Lemma 3.1).
//! 3. **Start new runs**: every `L`-th round, robots matching the Figure 5
//!    shapes start new runs, which act from the next round.
//!
//! After the simultaneous move the engine's merge pass splices coinciding
//! chain neighbors; runs on spliced robots terminate (Table 1.3).

use crate::config::GatherConfig;
use crate::merge::MergeScan;
use crate::quasi::{self, StartShape};
use crate::runs::{LiveRun, Occupancy, Run, RunAction, RunMode, RunStats, StopReason};
use chain_sim::packed::{edge_offset, perpendicular};
use chain_sim::{ClosedChain, EdgeCodes, RobotId, SpliceLog, Strategy};
use grid_geom::Offset;
use std::sync::OnceLock;

/// Instrumentation events (consumed by the audit module and tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunEvent {
    Started {
        round: u64,
        run_id: u64,
        robot: RobotId,
        dir: i8,
        fold_side: Offset,
        shape: StartShape,
    },
    Stopped {
        round: u64,
        run_id: u64,
        robot: RobotId,
        reason: StopReason,
    },
    Folded {
        round: u64,
        run_id: u64,
        robot: RobotId,
    },
    PassingStarted {
        round: u64,
        run_id: u64,
        robot: RobotId,
        target: RobotId,
    },
}

/// Signature histories of a robot with no past (fresh chains and merge
/// keepers): two distinct values no window class takes.
const NO_SIG: u16 = u16::MAX;
const NO_SIG2: u16 = u16::MAX - 1;

/// The local-view signature of the robot whose six surrounding edges
/// (`i − 3 ..= i + 2`, two bits each, the oldest lowest) form `window`: an
/// FNV hash of the relative positions of its ±3 chain neighbors.
/// Constant-size robot memory, used to witness the period-2 "swap"
/// livelock (DESIGN.md §2.3): a closed cycle of mutually interfering
/// merge patterns makes every participant hop back and forth between
/// exactly two local views without any merge.
fn window_signature(window: usize) -> u64 {
    let e = |t: usize| edge_offset((window >> (2 * t)) as u8 & 3);
    let rel = [
        -(e(0) + e(1) + e(2)),
        -(e(1) + e(2)),
        -e(2),
        e(3),
        e(3) + e(4),
        e(3) + e(4) + e(5),
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rel {
        for v in [r.dx, r.dy] {
            h ^= v as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Window → signature class: the rank of the window's hash among the
/// distinct hash values. The hash is not injective on windows (4096
/// windows, 3646 distinct hashes), so the class — not the raw window — is
/// what preserves signature equality, and with it which robots detect an
/// oscillation.
fn signature_classes() -> &'static [u16; 4096] {
    static TABLE: OnceLock<Box<[u16; 4096]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let hashes: Vec<u64> = (0..4096).map(window_signature).collect();
        let mut distinct = hashes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut table = Box::new([0u16; 4096]);
        for (class, h) in table.iter_mut().zip(&hashes) {
            *class = distinct.binary_search(h).expect("hash is listed") as u16;
        }
        table
    })
}

/// Drop the entries at the ascending, non-empty index list `removed`.
fn compact<T: Copy>(v: &mut Vec<T>, removed: &[usize]) {
    let mut write = removed[0];
    for (k, &r) in removed.iter().enumerate() {
        let end = removed.get(k + 1).copied().unwrap_or(v.len());
        v.copy_within(r + 1..end, write);
        write += end - r - 1;
    }
    v.truncate(write);
}

/// The paper's algorithm as a [`Strategy`].
///
/// Each round decodes the chain once into edge codes; every shape
/// predicate reads those. Live runs are a sparse list sorted by robot
/// index, with a dense occupancy byte per robot for the run-ahead scans.
pub struct ClosedChainGathering {
    cfg: GatherConfig,
    /// This round's chain as edge codes.
    codes: EdgeCodes,
    scan: MergeScan,
    /// Live runs, sorted by [`LiveRun::key`].
    runs: Vec<LiveRun>,
    /// Per-robot occupancy of `runs`.
    occ: Vec<Occupancy>,
    /// Runs arriving for the next round (sorted at the end of `compute`)
    /// and their occupancy, which is all empty between rounds.
    staged: Vec<LiveRun>,
    staged_occ: Vec<Occupancy>,
    /// Fold hop each runner's runs agreed on this round, ascending by
    /// robot (`None` = two runs demanded different folds).
    folds: Vec<(usize, Option<Offset>)>,
    /// Per-robot local-view signature classes of the previous two rounds
    /// and the oscillation-suppression countdown (see
    /// `detect_oscillation`).
    sig_prev: Vec<u16>,
    sig_prev2: Vec<u16>,
    suppress: Vec<u16>,
    suppress_flags: Vec<bool>,
    /// Previous round's inherent pattern sizes, compacted through splices
    /// (drives staggered suppression expiry).
    prev_inherent_k: Vec<u8>,
    /// `post_merge` scratch: the splice's keeper indices and merged ids.
    keepers: Vec<usize>,
    merged_ids: Vec<RobotId>,
    next_run_id: u64,
    stats: RunStats,
    events: Vec<RunEvent>,
    record_events: bool,
}

impl ClosedChainGathering {
    pub fn new(cfg: GatherConfig) -> Self {
        cfg.validate().expect("invalid gathering configuration");
        ClosedChainGathering {
            cfg,
            codes: EdgeCodes::default(),
            scan: MergeScan::default(),
            runs: Vec::new(),
            occ: Vec::new(),
            staged: Vec::new(),
            staged_occ: Vec::new(),
            folds: Vec::new(),
            sig_prev: Vec::new(),
            sig_prev2: Vec::new(),
            suppress: Vec::new(),
            suppress_flags: Vec::new(),
            prev_inherent_k: Vec::new(),
            keepers: Vec::new(),
            merged_ids: Vec::new(),
            next_run_id: 0,
            stats: RunStats::default(),
            events: Vec::new(),
            record_events: false,
        }
    }

    /// Paper constants.
    pub fn paper() -> Self {
        Self::new(GatherConfig::paper())
    }

    /// Record instrumentation events (drained by auditors).
    pub fn with_event_recording(mut self) -> Self {
        self.record_events = true;
        self
    }

    pub fn config(&self) -> &GatherConfig {
        &self.cfg
    }

    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Current live runs, sorted by robot index — for auditors/tests.
    pub fn live_runs(&self) -> &[LiveRun] {
        &self.runs
    }

    /// The run robot `index` holds in chain direction `dir`, if any.
    pub fn run_at(&self, index: usize, dir: isize) -> Option<&Run> {
        let key = (index, dir < 0);
        self.runs
            .binary_search_by_key(&key, LiveRun::key)
            .ok()
            .map(|k| &self.runs[k].run)
    }

    /// Drain recorded events.
    pub fn take_events(&mut self) -> Vec<RunEvent> {
        std::mem::take(&mut self.events)
    }

    /// The merge scan of the last computed round (auditors).
    pub fn last_scan(&self) -> &MergeScan {
        &self.scan
    }

    fn emit(&mut self, ev: RunEvent) {
        if self.record_events {
            self.events.push(ev);
        }
    }

    /// Update signature histories and the suppression countdowns; fill
    /// `suppress_flags` for this round's merge scan.
    ///
    /// A robot that sees its local view alternate with period 2
    /// (`s_t == s_{t-2} ≠ s_{t-1}`) suppresses its merge participation:
    /// the oscillating region becomes mergeless, so Lemma 1's machinery
    /// (runs start on mergeless chains every L rounds) can act. Healthy
    /// dynamics never alternate — merges remove robots and runs move every
    /// round — so suppression stays dormant outside pathological closed
    /// interference cycles (DESIGN.md §2.3).
    ///
    /// Expiry is **staggered by inherent pattern size**: a robot black in a
    /// detected pattern of length `k` suppresses for `2L + 2 − min(k, L)`
    /// rounds. Larger patterns resume first and fire onto still-suppressed
    /// (standing) whites, which breaks the symmetric ties that uniform
    /// suppression cannot (e.g. a k=3 segment whose whites are k=1 blacks).
    ///
    /// The signature of robot `i` is a table lookup on the 12-bit window
    /// of its six surrounding edge codes, slid one edge per robot.
    fn detect_oscillation(&mut self) {
        let n = self.codes.len();
        debug_assert_eq!(self.sig_prev.len(), n);
        let classes = signature_classes();
        let codes = &self.codes;
        self.suppress_flags.clear();
        self.suppress_flags.resize(n, false);
        let base = 2 * self.cfg.l_period + 2;
        let mut window = (0..6).fold(0usize, |w, t| {
            w | usize::from(codes.edge(0, t as isize - 3)) << (2 * t)
        });
        for i in 0..n {
            let sig = classes[window];
            window = window >> 2 | usize::from(codes.edge(i, 3)) << 10;
            if self.suppress[i] > 0 {
                self.suppress[i] -= 1;
            }
            if sig == self.sig_prev2[i] && sig != self.sig_prev[i] {
                // Inherent pattern sizes from the previous round's scan,
                // compacted through splices in post_merge so indices stay
                // aligned.
                let k = u64::from(self.prev_inherent_k[i]);
                self.suppress[i] = (base - k.min(self.cfg.l_period)) as u16;
                self.stats.suppressions += 1;
            }
            self.suppress_flags[i] = self.suppress[i] > 0;
            self.sig_prev2[i] = self.sig_prev[i];
            self.sig_prev[i] = sig;
        }
    }

    fn stop_run(&mut self, round: u64, run: &Run, robot: RobotId, reason: StopReason) {
        self.stats.record_stop(reason);
        self.emit(RunEvent::Stopped {
            round,
            run_id: run.id,
            robot,
            reason,
        });
    }

    /// Place `run` on robot `i` for the next round.
    fn stage(&mut self, i: usize, run: Run) {
        self.staged_occ[i].set(run.dir(), run.fold_code());
        self.staged.push(LiveRun { robot: i, run });
    }

    /// Record that a run on robot `i` folds by `hop` this round.
    fn record_fold(&mut self, round: u64, run: &Run, robot: RobotId, i: usize, hop: Offset) {
        // Runs of one robot are adjacent in the list, so only the last
        // entry can belong to `i`.
        let fresh = match self.folds.last_mut() {
            Some((r, slot)) if *r == i => match *slot {
                None => {
                    *slot = Some(hop);
                    true
                }
                Some(existing) if existing == hop => false,
                Some(_) => {
                    // Two runs demanding different folds on one robot:
                    // both walk (safety).
                    *slot = None;
                    false
                }
            },
            _ => {
                self.folds.push((i, Some(hop)));
                true
            }
        };
        if fresh {
            self.stats.folds += 1;
            self.emit(RunEvent::Folded {
                round,
                run_id: run.id,
                robot,
            });
        }
    }

    /// Decide what one run does this round (pure w.r.t. `self` except for
    /// statistics/events, which are recorded by the caller).
    fn decide(&self, chain: &ClosedChain, i: usize, run: &Run) -> RunAction {
        let n = chain.len();
        let d = run.dir();
        let horizon = self.cfg.view.min(n.saturating_sub(1)) as isize;
        let v = self.codes.view(i);
        let fold = run.fold_code();

        // --- Extent of the quasi line ahead (used by conditions 1 and 2):
        // a run only reasons about runs and endpoints *on its own line*.
        let brk = quasi::quasi_break_ahead(v, d, fold, horizon);
        let line_extent: isize = brk.map_or(horizon, |b| b.distance);

        // --- Scan ahead: sequent runs (Table 1.1) and opposing runs. ---
        // "The next sequent run in front of it" is a same-direction run on
        // the same quasi line: same fold-side axis, not beyond the line's
        // visible end. (A run beyond a corner belongs to another line;
        // killing for it would mass-extinguish runs on square rings.)
        let mut opposing: Option<(isize, u8)> = None;
        for j in 1..=horizon {
            let cell = self.occ[chain.nb(i, j * d)];
            if cell.is_empty() {
                continue;
            }
            if let Some(s) = cell.get(d) {
                if !perpendicular(s, fold) && j <= line_extent {
                    return RunAction::Die(StopReason::SequentAhead);
                }
            }
            if opposing.is_none() {
                opposing = cell.get(-d).map(|o| (j, o));
            }
        }

        // --- Endpoint of the quasi line ahead (Table 1.2). ---
        if let Some(b) = brk {
            let suppressed =
                self.cfg.cond2_guard && matches!(opposing, Some((j, _)) if j <= b.distance);
            if !suppressed {
                return RunAction::Die(StopReason::EndpointAhead);
            }
        }

        let mut next = *run;

        // --- Run passing (Fig. 8 / Fig. 14). ---
        if let RunMode::Passing { target } = next.mode {
            if chain.id(i) == target {
                // Arrived at the target corner: return to normal operation.
                next.mode = RunMode::Normal;
            } else if !Self::target_on_chain(chain, i, d, horizon, target) {
                // Target corner removed by a merge (Table 1.4/5).
                return RunAction::Die(StopReason::TargetRemoved);
            } else {
                return RunAction::Advance { fold: None, next };
            }
        }

        if let Some((j, other_side)) = opposing {
            if j <= 3 && other_side != fold {
                // Non-good pair approaching: pass each other without
                // reshaping, targeting the robot the opposing run sits on.
                let target = chain.id(chain.nb(i, j * d));
                next.mode = RunMode::Passing { target };
                return RunAction::Advance { fold: None, next };
            }
        }

        // --- Reshapement (Fig. 6 / Fig. 11a). ---
        let may_fold = !self.scan.participates(i) && next.walk_budget == 0;
        if may_fold && v.step(-d, 0) == fold {
            // Behind-neighbor on the fold side, the next three robots
            // ahead aligned perpendicular to it.
            let f1 = v.step(d, 0);
            if perpendicular(f1, fold) && v.step(d, 1) == f1 && v.step(d, 2) == f1 {
                if next.op_c_pending {
                    // Op c (Fig. 11c): one diagonal hop, then walk.
                    next.op_c_pending = false;
                    next.walk_budget = 3;
                }
                return RunAction::Advance {
                    fold: Some(edge_offset(f1) + run.fold_side),
                    next,
                };
            }
        }
        if next.walk_budget > 0 {
            next.walk_budget -= 1;
        }
        RunAction::Advance { fold: None, next }
    }

    /// Is the passing target still on the chain? It sits ahead within
    /// view whenever passing starts (at most 3 robots) and the run closes
    /// in by one robot per round, so the view is searched first; only a
    /// miss pays for the full scan.
    fn target_on_chain(
        chain: &ClosedChain,
        i: usize,
        d: isize,
        horizon: isize,
        target: RobotId,
    ) -> bool {
        (1..=horizon).any(|j| chain.id(chain.nb(i, j * d)) == target)
            || chain.index_of(target).is_some()
    }

    /// Evaluate run starts (Fig. 5) at robot `i`; fresh runs are staged
    /// and act from the next round.
    fn try_starts(&mut self, chain: &ClosedChain, round: u64, i: usize) {
        let v = self.codes.view(i);
        let starts = [1isize, -1].map(|d| (d, quasi::run_start(v, d)));
        for (d, start) in starts {
            let Some((shape, fold_side)) = start else {
                continue;
            };
            if self.staged_occ[i].get(d).is_some() {
                // Occupied (arriving run): skip the start.
                continue;
            }
            let run = Run {
                id: self.next_run_id,
                dir: d as i8,
                fold_side,
                born: round,
                shape,
                mode: RunMode::Normal,
                walk_budget: 0,
                op_c_pending: self.cfg.op_c_walk && shape == StartShape::CornerEnd,
            };
            self.next_run_id += 1;
            self.stage(i, run);
            match shape {
                StartShape::StairwayEnd => self.stats.started_stairway += 1,
                StartShape::CornerEnd => self.stats.started_corner += 1,
            }
            self.emit(RunEvent::Started {
                round,
                run_id: run.id,
                robot: chain.id(i),
                dir: run.dir,
                fold_side,
                shape,
            });
        }
    }
}

impl Strategy for ClosedChainGathering {
    fn name(&self) -> &'static str {
        "closed-chain-gathering"
    }

    fn init(&mut self, chain: &ClosedChain) {
        let n = chain.len();
        self.runs.clear();
        self.staged.clear();
        self.folds.clear();
        self.occ.clear();
        self.occ.resize(n, Occupancy::EMPTY);
        self.staged_occ.clear();
        self.staged_occ.resize(n, Occupancy::EMPTY);
        self.sig_prev.clear();
        self.sig_prev.resize(n, NO_SIG);
        self.sig_prev2.clear();
        self.sig_prev2.resize(n, NO_SIG2);
        self.suppress.clear();
        self.suppress.resize(n, 0);
        self.suppress_flags.clear();
        self.suppress_flags.resize(n, false);
        self.prev_inherent_k.clear();
        self.prev_inherent_k.resize(n, 0);
    }

    fn compute(&mut self, chain: &ClosedChain, round: u64, hops: &mut [Offset]) {
        let n = chain.len();
        debug_assert_eq!(self.occ.len(), n, "run occupancy out of sync");
        debug_assert!(
            hops[..n].iter().all(|&h| h == Offset::ZERO),
            "the Strategy::compute contract hands `hops` over zeroed"
        );
        self.codes.decode(chain, self.cfg.view.max(4));
        if self.codes.is_empty() {
            // A single robot is gathered; nothing to decide.
            return;
        }

        // Step 0: oscillation detection (constant-memory symmetry breaker
        // for closed interference cycles of merge patterns).
        self.detect_oscillation();

        // Step 1: merge patterns (suppressed robots' patterns do not fire).
        self.scan
            .scan_codes(&self.codes, &self.cfg, &self.suppress_flags);

        // Step 2: run operations. Decide all runs from the same snapshot;
        // stage arrivals.
        let runs = std::mem::take(&mut self.runs);
        debug_assert!(self.staged.is_empty());
        self.folds.clear();
        for lr in &runs {
            let (i, run) = (lr.robot, lr.run);
            if run.born >= round {
                // Born this round boundary: acts from the next round.
                self.staged.retain(|s| s.key() != lr.key());
                self.stage(i, run);
                continue;
            }
            match self.decide(chain, i, &run) {
                RunAction::Die(reason) => {
                    self.stop_run(round, &run, chain.id(i), reason);
                }
                RunAction::Advance { fold, next } => {
                    if next.mode != run.mode {
                        if let RunMode::Passing { target } = next.mode {
                            self.stats.passings_started += 1;
                            self.emit(RunEvent::PassingStarted {
                                round,
                                run_id: run.id,
                                robot: chain.id(i),
                                target,
                            });
                        }
                    }
                    if let Some(h) = fold {
                        self.record_fold(round, &run, chain.id(i), i, h);
                    } else {
                        self.stats.walks += 1;
                    }
                    // Move the run state one robot further (Lemma 3.1).
                    let dest = chain.nb(i, next.dir());
                    if self.staged_occ[dest].get(next.dir()).is_some() {
                        // Arrival collision (only possible against a
                        // just-started run; see runs.rs).
                        self.stop_run(round, &next, chain.id(dest), StopReason::SlotCollision);
                    } else {
                        self.stage(dest, next);
                    }
                }
            }
        }

        // Resolve hops: merge hop (blacks) > run fold > stand. Whites of
        // fired patterns stand still (their runs walked).
        for p in &self.scan.patterns {
            for b in p.blacks(chain) {
                hops[b] = self.scan.hop[b];
            }
        }
        for &(i, fold) in &self.folds {
            if let Some(h) = fold {
                if !self.scan.participates(i) {
                    hops[i] = h;
                }
            }
        }

        // Step 3: start new runs every L-th round, from the same snapshot.
        // The started runs are staged and act from round + 1.
        if round.is_multiple_of(self.cfg.l_period) {
            for (i, hop) in hops.iter().enumerate().take(n) {
                if *hop == Offset::ZERO && !self.scan.participates(i) {
                    self.try_starts(chain, round, i);
                }
            }
        }

        // The staged runs become the live list; the old list's buffer and
        // occupancy (cleared where it was set) stage the next round.
        self.staged.sort_unstable_by_key(LiveRun::key);
        for lr in &runs {
            self.occ[lr.robot] = Occupancy::EMPTY;
        }
        std::mem::swap(&mut self.occ, &mut self.staged_occ);
        self.runs = std::mem::replace(&mut self.staged, runs);
        self.staged.clear();
        self.prev_inherent_k.clear();
        self.prev_inherent_k
            .extend_from_slice(&self.scan.inherent_k);
        self.stats.max_live_runs = self.stats.max_live_runs.max(self.runs.len() as u64);
    }

    fn post_merge(&mut self, chain: &ClosedChain, round: u64, log: &SpliceLog) {
        if log.is_empty() {
            debug_assert_eq!(self.occ.len(), chain.len());
            return;
        }
        let removed = &log.removed_indices;
        self.keepers.clear();
        self.keepers.extend_from_slice(&log.keeper_indices);
        self.keepers.sort_unstable();
        self.keepers.dedup();

        // Terminate runs on removed robots and on keepers (Table 1.3);
        // move the others to their post-splice indices (list order is
        // preserved: the remap is monotone).
        let mut runs = std::mem::take(&mut self.runs);
        for lr in &runs {
            self.occ[lr.robot] = Occupancy::EMPTY;
        }
        let mut kept = 0;
        for r in 0..runs.len() {
            let LiveRun { robot, run } = runs[r];
            match removed.binary_search(&robot) {
                Ok(_) => {
                    self.stats.record_stop(StopReason::RobotRemoved);
                    self.emit(RunEvent::Stopped {
                        round,
                        run_id: run.id,
                        robot: RobotId(u64::MAX),
                        reason: StopReason::RobotRemoved,
                    });
                }
                Err(shift) if self.keepers.binary_search(&robot).is_ok() => {
                    self.stop_run(round, &run, chain.id(robot - shift), StopReason::Merged);
                }
                Err(shift) => {
                    runs[kept] = LiveRun {
                        robot: robot - shift,
                        run,
                    };
                    kept += 1;
                }
            }
        }
        runs.truncate(kept);

        // Compact all per-robot state to the post-splice indexing.
        // Keepers' signature histories and suppression reset (their
        // neighborhood was rewritten by the merge, and which group member
        // survives is an arbitrary labeling that must not influence the
        // dynamics); others carry their state over.
        compact(&mut self.sig_prev, removed);
        compact(&mut self.sig_prev2, removed);
        compact(&mut self.suppress, removed);
        compact(&mut self.prev_inherent_k, removed);
        for &k in &self.keepers {
            let w = k - removed.partition_point(|&r| r < k);
            self.sig_prev[w] = NO_SIG;
            self.sig_prev2[w] = NO_SIG2;
            self.suppress[w] = 0;
            self.prev_inherent_k[w] = 0;
        }
        self.occ.truncate(chain.len());
        self.staged_occ.truncate(chain.len());
        debug_assert_eq!(self.sig_prev.len(), chain.len());

        // Table 1.4/5: a passing run terminates when its target corner was
        // "removed because of a merge operation". Both members of a spliced
        // coincidence group count as removed — which one keeps its id is an
        // arbitrary labeling the robots cannot observe.
        if runs
            .iter()
            .any(|lr| matches!(lr.run.mode, RunMode::Passing { .. }))
        {
            self.merged_ids.clear();
            for ev in &log.events {
                self.merged_ids.push(ev.keeper);
                self.merged_ids.extend_from_slice(&ev.removed);
            }
            self.merged_ids.sort_unstable();
            let mut kept = 0;
            for r in 0..runs.len() {
                let lr = runs[r];
                if let RunMode::Passing { target } = lr.run.mode {
                    if self.merged_ids.binary_search(&target).is_ok() {
                        let robot = chain.id(lr.robot);
                        self.stop_run(round, &lr.run, robot, StopReason::TargetRemoved);
                        continue;
                    }
                }
                runs[kept] = lr;
                kept += 1;
            }
            runs.truncate(kept);
        }
        for lr in &runs {
            self.occ[lr.robot].set(lr.run.dir(), lr.run.fold_code());
        }
        self.runs = runs;
    }

    fn marker(&self, index: usize) -> Option<char> {
        let cell = self.occ.get(index)?;
        match (cell.get(1).is_some(), cell.get(-1).is_some()) {
            (true, true) => Some('X'),
            (true, false) => Some('>'),
            (false, true) => Some('<'),
            (false, false) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::{Outcome, Sim};
    use grid_geom::Point;

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    fn rectangle(w: i64, h: i64) -> ClosedChain {
        let mut pts = vec![Point::new(0, 0)];
        pts.extend((1..w).map(|x| Point::new(x, 0)));
        pts.extend((1..h).map(|y| Point::new(w - 1, y)));
        pts.extend((1..w).map(|x| Point::new(w - 1 - x, h - 1)));
        pts.extend((1..h - 1).map(|y| Point::new(0, h - 1 - y)));
        ClosedChain::new(pts).unwrap()
    }

    #[test]
    fn fig1_gathers_in_one_round() {
        let c = chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]);
        let mut sim = Sim::new(c, ClosedChainGathering::paper());
        let outcome = sim.run_default();
        assert_eq!(outcome, Outcome::Gathered { rounds: 1 });
    }

    #[test]
    fn small_rectangles_gather() {
        for (w, h) in [(3, 2), (4, 2), (5, 3), (6, 4), (8, 2), (9, 5)] {
            let c = rectangle(w, h);
            let n = c.len();
            let mut sim = Sim::new(c, ClosedChainGathering::paper());
            let outcome = sim.run_default();
            assert!(
                outcome.is_gathered(),
                "rectangle {w}x{h} (n={n}): {outcome:?}"
            );
        }
    }

    #[test]
    fn large_rectangle_gathers_linearly() {
        let c = rectangle(24, 16);
        let n = c.len() as u64;
        let mut sim = Sim::new(c, ClosedChainGathering::paper());
        let outcome = sim.run_default();
        match outcome {
            Outcome::Gathered { rounds } => {
                assert!(
                    rounds <= 27 * n + 100,
                    "rounds {rounds} exceed the 2Ln+n bound for n={n}"
                );
            }
            other => panic!("did not gather: {other:?}"),
        }
    }

    #[test]
    fn flattened_loop_zips_up() {
        // Degenerate zero-area loop: out and back along a line.
        let c = chain(&[
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 0),
            (3, 0),
            (2, 0),
            (1, 0),
        ]);
        let mut sim = Sim::new(c, ClosedChainGathering::paper());
        let outcome = sim.run_default();
        assert!(outcome.is_gathered(), "{outcome:?}");
    }

    #[test]
    fn runs_started_on_big_rectangle() {
        // On a 20×12 rectangle no merge is initially possible (runs of
        // k = 19/11 > 10): progress must come from runs.
        let c = rectangle(20, 12);
        let mut sim = Sim::new(c, ClosedChainGathering::paper().with_event_recording());
        for _ in 0..3 {
            sim.step().unwrap();
        }
        let strat = sim.strategy_mut();
        let events = strat.take_events();
        let starts = events
            .iter()
            .filter(|e| matches!(e, RunEvent::Started { .. }))
            .count();
        // Four Fig. 5(ii) corners, two runs each.
        assert_eq!(starts, 8, "events: {events:?}");
        assert_eq!(strat.stats().started_corner, 8);
        let outcome = sim.run_default();
        assert!(outcome.is_gathered(), "{outcome:?}");
    }

    /// The original per-robot signature over positions: the reference the
    /// window table is checked against.
    fn local_signature(chain: &ClosedChain, i: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let p = chain.pos(i);
        for d in [-3isize, -2, -1, 1, 2, 3] {
            let q = chain.pos(chain.nb(i, d));
            for v in [q.x - p.x, q.y - p.y] {
                h ^= v as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn signature_table_matches_local_signature_on_all_windows() {
        let classes = signature_classes();
        let mut hash_of_class = std::collections::HashMap::new();
        let mut hashes = std::collections::HashSet::new();
        for (w, &class) in classes.iter().enumerate() {
            let window: Vec<u8> = (0..6).map(|t| (w >> (2 * t) & 3) as u8).collect();
            let c = crate::quasi::tests::chain_from_codes(&window);
            let h = local_signature(&c, 3);
            assert_eq!(window_signature(w), h, "window {window:?}");
            // One hash per class...
            assert_eq!(*hash_of_class.entry(class).or_insert(h), h);
            hashes.insert(h);
        }
        // ...and one class per hash: class equality is hash equality. The
        // hash collides on 450 windows, so the raw 12-bit window would
        // not do.
        assert_eq!(hashes.len(), 3646);
        assert_eq!(hash_of_class.len(), 3646);
        assert!(!hash_of_class.contains_key(&NO_SIG) && !hash_of_class.contains_key(&NO_SIG2));
    }

    #[test]
    fn live_runs_stay_sorted_and_match_occupancy() {
        let mut sim = Sim::new(rectangle(20, 12), ClosedChainGathering::paper());
        for _ in 0..60 {
            if sim.is_gathered() {
                break;
            }
            sim.step().unwrap();
            let strat = sim.strategy();
            let runs = strat.live_runs();
            assert!(runs.windows(2).all(|w| w[0].key() < w[1].key()));
            let occupied = strat.occ.iter().map(|c| c.count()).sum::<usize>();
            assert_eq!(occupied, runs.len());
            for lr in runs {
                assert_eq!(strat.run_at(lr.robot, lr.run.dir()), Some(&lr.run));
                assert_eq!(
                    strat.occ[lr.robot].get(lr.run.dir()),
                    Some(lr.run.fold_code())
                );
            }
            assert!(strat.staged.is_empty());
            assert!(strat.staged_occ.iter().all(|c| c.is_empty()));
        }
    }

    #[test]
    fn compact_drops_removed_indices() {
        let mut v: Vec<u32> = (0..8).collect();
        compact(&mut v, &[0, 3, 4, 7]);
        assert_eq!(v, [1, 2, 5, 6]);
        let mut v: Vec<u32> = (0..3).collect();
        compact(&mut v, &[1]);
        assert_eq!(v, [0, 2]);
    }

    #[test]
    fn gathering_is_translation_invariant() {
        let a = rectangle(9, 7);
        let mut b = rectangle(9, 7);
        b.translate(Offset::new(1000, -500));
        let mut sa = Sim::new(a, ClosedChainGathering::paper());
        let mut sb = Sim::new(b, ClosedChainGathering::paper());
        let ra = sa.run_default();
        let rb = sb.run_default();
        assert!(ra.is_gathered() && rb.is_gathered());
        assert_eq!(ra.rounds(), rb.rounds());
    }
}
