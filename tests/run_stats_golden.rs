//! Golden run bookkeeping of the paper strategy.
//!
//! The fingerprints elsewhere pin only `(n, rounds, merges, longest gap)`.
//! This golden pins everything the run machinery decides: the full
//! [`RunStats`] (starts, folds, walks, passings, suppressions, stops by
//! reason, peak live runs), an FNV-1a hash of the [`RunEvent`] stream and
//! an FNV-1a hash of every round's applied hop vector — for all ten
//! workload families at two chain sizes and three seeds under the paper
//! constants, plus one seed under each ablation that changes a window
//! size: the proof-mode constants (merges capped at k = 2, so runs do
//! most of the work) and viewing path lengths 7 and 15. All under FSYNC.
//!
//! The table lives in `tests/goldens/run_stats.txt`. Any change to what a
//! run decides, or in which order, shows up as a changed line; regenerate
//! the table only for an intended behaviour change.

use chain_sim::{Observer, RoundCtx, RunLimits, Sim};
use gathering_core::{
    ClosedChainGathering, GatherConfig, RunEvent, RunStats, StartShape, StopReason,
};
use workloads::Family;

const GOLDEN: &str = include_str!("goldens/run_stats.txt");

/// 64-bit FNV-1a over a stream of integers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, v: i64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn reason_code(r: StopReason) -> i64 {
    match r {
        StopReason::SequentAhead => 0,
        StopReason::EndpointAhead => 1,
        StopReason::Merged => 2,
        StopReason::TargetRemoved => 3,
        StopReason::RobotRemoved => 4,
        StopReason::SlotCollision => 5,
    }
}

fn feed_event(h: &mut Fnv, ev: &RunEvent) {
    match *ev {
        RunEvent::Started {
            round,
            run_id,
            robot,
            dir,
            fold_side,
            shape,
        } => {
            for v in [0, round as i64, run_id as i64, robot.0 as i64, dir as i64] {
                h.feed(v);
            }
            h.feed(fold_side.dx);
            h.feed(fold_side.dy);
            h.feed(match shape {
                StartShape::StairwayEnd => 0,
                StartShape::CornerEnd => 1,
            });
        }
        RunEvent::Stopped {
            round,
            run_id,
            robot,
            reason,
        } => {
            for v in [1, round as i64, run_id as i64, robot.0 as i64] {
                h.feed(v);
            }
            h.feed(reason_code(reason));
        }
        RunEvent::Folded {
            round,
            run_id,
            robot,
        } => {
            for v in [2, round as i64, run_id as i64, robot.0 as i64] {
                h.feed(v);
            }
        }
        RunEvent::PassingStarted {
            round,
            run_id,
            robot,
            target,
        } => {
            for v in [
                3,
                round as i64,
                run_id as i64,
                robot.0 as i64,
                target.0 as i64,
            ] {
                h.feed(v);
            }
        }
    }
}

/// Hashes every round's hops and drains the strategy's events as they
/// happen (keeps the event buffer small on long runs).
struct Hasher {
    hops: Fnv,
    events: Fnv,
    event_count: u64,
}

impl Observer<ClosedChainGathering> for Hasher {
    fn on_round(&mut self, ctx: &RoundCtx<'_>, strategy: &mut ClosedChainGathering) {
        self.hops.feed(ctx.hops.len() as i64);
        for h in ctx.hops {
            self.hops.feed(h.dx);
            self.hops.feed(h.dy);
        }
        for ev in strategy.take_events() {
            feed_event(&mut self.events, &ev);
            self.event_count += 1;
        }
    }
}

fn stats_fields(s: &RunStats) -> [u64; 13] {
    [
        s.started_stairway,
        s.started_corner,
        s.folds,
        s.walks,
        s.passings_started,
        s.stopped_sequent,
        s.stopped_endpoint,
        s.stopped_merged,
        s.stopped_target_removed,
        s.stopped_robot_removed,
        s.stopped_slot_collision,
        s.max_live_runs,
        s.suppressions,
    ]
}

fn golden_line(label: &str, cfg: GatherConfig, family: Family, n: usize, seed: u64) -> String {
    let chain = family.generate(n, seed);
    let len = chain.len();
    let strategy = ClosedChainGathering::new(cfg).with_event_recording();
    let mut sim = Sim::new(chain, strategy).observe(Hasher {
        hops: Fnv::new(),
        events: Fnv::new(),
        event_count: 0,
    });
    let outcome = sim.run(RunLimits::for_gathering(len, cfg.l_period));
    let h = sim.observer::<Hasher>().expect("hasher attached");
    let stats: Vec<String> = stats_fields(sim.strategy().stats())
        .iter()
        .map(u64::to_string)
        .collect();
    format!(
        "{label} {} {n} {seed} {} gathered={} rounds={} stats={} events={} ev_hash={:016x} hop_hash={:016x}",
        family.name(),
        len,
        outcome.is_gathered(),
        outcome.rounds(),
        stats.join(","),
        h.event_count,
        h.events.0,
        h.hops.0,
    )
}

#[test]
fn run_stats_and_event_streams_match_the_golden() {
    let mut actual = String::new();
    let configs = [
        ("paper", GatherConfig::paper(), &[0u64, 1, 2][..]),
        ("proof", GatherConfig::proof_mode(), &[0u64][..]),
        (
            "view7",
            GatherConfig {
                view: 7,
                ..GatherConfig::paper()
            },
            &[0u64][..],
        ),
        (
            "view15",
            GatherConfig {
                view: 15,
                ..GatherConfig::paper()
            },
            &[0u64][..],
        ),
    ];
    for (label, cfg, seeds) in configs {
        for family in Family::ALL {
            for n in [64, 256] {
                for &seed in seeds {
                    actual.push_str(&golden_line(label, cfg, family, n, seed));
                    actual.push('\n');
                }
            }
        }
    }
    let want: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<&str> = actual.lines().collect();
    assert_eq!(
        got, want,
        "run bookkeeping diverged from tests/goldens/run_stats.txt; actual table:\n{actual}"
    );
}
