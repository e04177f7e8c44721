//! The simulator workloads: one thread, scenarios one after another.
//!
//! Each workload is a fixed *mix* of scenario specs (the op classes),
//! drawn from the seed. Set-up generates and validates every input and
//! runs the whole mix once as a warm-up, which also fixes each class's
//! expected fingerprint. The timed loop then runs the mix in passes, each
//! pass in a fresh seeded order, until the time is up; it is split into
//! segments with a further set-up before each, for `setup_s`.
//!
//! The benchmark host is a shared virtual machine: other tenants steal
//! cycles in bursts of seconds, which stretched whole passes by up to
//! 25% within one process. Interference only ever adds time, so each
//! class's op time is its *fastest* repeat, and every simulator metric is
//! built from those per-class times: the latency percentiles are taken
//! over them (the mixes have more than 200 classes, so a p95 has at
//! least ten classes beyond it), and the rates divide one mix's work by
//! their sum. The mixes are sized so that one pass takes about a second
//! or less, which gives every class about twenty repeats or more in a
//! 20 s run.
//!
//! Both rates share that denominator, and a seed fixes the mix's class
//! count and robot·rounds, so on these workloads `ops_per_s` is
//! `robot_rounds_per_s` times a constant: any speed change moves both by
//! the same ratio. They are one piece of evidence, not two.

use crate::report::{peak_rss_mib, seconds_list, Report};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use bench::scenario::{
    run_scenario, run_scenario_tapped, RunTaps, ScenarioResult, ScenarioSpec, StrategyKind,
};
use bench::SchedulerKind;
use chain_sim::{KernelChain, PackedChain, ProgressSlot};
use obs::{Histogram, Phase, PhaseTimer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Family, SplitMix64};

/// Seed whose fingerprints are committed under `fingerprints/`.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sim {
    PaperFsync,
    PaperSsync,
    KernelBaselines,
}

const KERNEL_STRATEGIES: [(StrategyKind, &str); 3] = [
    (
        StrategyKind::CompassSe,
        "kernel.compass-se.robot_rounds_per_s",
    ),
    (
        StrategyKind::GlobalVision,
        "kernel.global-vision.robot_rounds_per_s",
    ),
    (
        StrategyKind::NaiveLocal,
        "kernel.naive-local.robot_rounds_per_s",
    ),
];

impl Sim {
    pub fn name(self) -> &'static str {
        match self {
            Sim::PaperFsync => "paper-fsync",
            Sim::PaperSsync => "paper-ssync",
            Sim::KernelBaselines => "kernel-baselines",
        }
    }

    /// The op classes. Sizes are fixed so every seed draws the same
    /// distribution of work; the seed picks the instance seeds, which
    /// feed the seeded families and the randomized schedulers. Each
    /// repeat nudges `n` so the deterministic families get distinct
    /// chains too.
    pub fn mix(self, seed: u64) -> Vec<ScenarioSpec> {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_0fbe_4c00_0000 ^ self as u64);
        let mut specs = Vec::new();
        let jitter = |size: usize, rep: usize| size + size * rep / 16;
        match self {
            Sim::PaperFsync => {
                for rep in 0..6 {
                    for size in [64, 128, 256, 512] {
                        for fam in Family::ALL {
                            let n = jitter(size, rep);
                            specs.push(ScenarioSpec::paper(fam, n, rng.next_u64()));
                        }
                    }
                }
            }
            Sim::PaperSsync => {
                let scheds = ["rr2", "rand50", "kfair4"]
                    .map(|s| SchedulerKind::from_name(s).expect("known scheduler"));
                for rep in 0..3 {
                    for sched in scheds {
                        for size in [64, 128, 256] {
                            for fam in Family::ALL {
                                let n = jitter(size, rep);
                                let spec = ScenarioSpec::strategy(
                                    fam,
                                    n,
                                    rng.next_u64(),
                                    StrategyKind::paper_ssync(),
                                );
                                specs.push(spec.with_scheduler(sched));
                            }
                        }
                    }
                }
            }
            // n ≈ 2048 rather than 4096: at 4096 a pass took about 2 s and
            // the slowest classes (naive-local on rectangles and
            // staircases, which set the p95) got only about 8 repeats.
            Sim::KernelBaselines => {
                for rep in 0..7 {
                    for (kind, _) in KERNEL_STRATEGIES {
                        for fam in Family::ALL {
                            let n = 2048 + 64 * rep;
                            specs.push(ScenarioSpec::strategy(fam, n, rng.next_u64(), kind));
                        }
                    }
                }
            }
        }
        specs
    }

    fn fingerprint_path(self) -> String {
        format!(
            "{}/fingerprints/{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            self.name()
        )
    }
}

/// One line per class: the spec's identity and its result fingerprint.
fn fingerprint_line(spec: &ScenarioSpec, fp: (usize, u64, usize, u64)) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {}",
        spec.family.name(),
        spec.strategy.name(),
        spec.scheduler.name(),
        spec.n,
        spec.seed,
        fp.0,
        fp.1,
        fp.2,
        fp.3
    )
}

/// What set-up measured.
struct Setup {
    wall: Duration,
    generate: Duration,
    pack: Duration,
    /// Expected fingerprint line per class, from the warm-up pass.
    expected: Vec<String>,
    rounds: u64,
    robot_rounds: u64,
    merged: u64,
    runs_started: u64,
    runs_merged: u64,
}

/// Generate and validate every input (packing it too when the workload
/// runs on the kernel path), then run the mix once.
fn setup(sim: Sim, specs: &[ScenarioSpec], report: &mut Report) -> Setup {
    let t0 = Instant::now();
    let mut generate = Duration::ZERO;
    let mut pack = Duration::ZERO;
    for spec in specs {
        let g0 = Instant::now();
        let chain = spec.generate();
        generate += g0.elapsed();
        if let Err(e) = chain.validate() {
            report
                .problems
                .push(format!("{spec:?}: invalid input: {e:?}"));
        }
        if sim == Sim::KernelBaselines {
            let p0 = Instant::now();
            let packed = PackedChain::from_chain(&chain).map(KernelChain::new);
            pack += p0.elapsed();
            if packed.is_err() {
                report
                    .problems
                    .push(format!("{spec:?}: input does not pack"));
            }
        }
    }
    let mut out = Setup {
        wall: Duration::ZERO,
        generate,
        pack,
        expected: Vec::with_capacity(specs.len()),
        rounds: 0,
        robot_rounds: 0,
        merged: 0,
        runs_started: 0,
        runs_merged: 0,
    };
    for spec in specs {
        let r = run_scenario(spec);
        if !r.is_gathered() {
            report
                .problems
                .push(format!("warm-up {spec:?} ended {:?}", r.outcome));
        }
        out.expected.push(fingerprint_line(spec, r.fingerprint()));
        let rounds = r.outcome.rounds();
        out.rounds += rounds;
        out.robot_rounds += r.n as u64 * rounds;
        out.merged += r.merges_total as u64;
        if let Some(stats) = &r.stats {
            out.runs_started += stats.started_total();
            out.runs_merged += stats.stopped_merged;
        }
    }
    out.wall = t0.elapsed();
    out
}

/// Per-op samples of the timed loop.
struct Timed {
    /// Op times per class, in ms.
    by_class: Vec<Vec<f64>>,
    /// Robot·rounds of each class (a pure function of its spec).
    rr: Vec<f64>,
    passes: u64,
    ops: u64,
}

fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

impl Timed {
    /// Fastest repeat of every class that ran.
    fn class_mins(&self) -> Vec<f64> {
        self.by_class
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| fastest(v))
            .collect()
    }

    /// Σ robot·rounds / Σ fastest op time (s) over the classes that
    /// `keep` selects and that ran.
    fn robot_rounds_per_s(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let (mut rr, mut secs) = (0.0, 0.0);
        for (class, times) in self.by_class.iter().enumerate() {
            if keep(class) && !times.is_empty() {
                rr += self.rr[class];
                secs += fastest(times) / 1e3;
            }
        }
        if secs > 0.0 {
            rr / secs
        } else {
            0.0
        }
    }
}

/// Engine-side aggregates of a traced loop.
#[derive(Default)]
struct Traced {
    phase_ns: [u64; 4],
    rounds: Histogram,
    guard_cancels: u64,
    robot_rounds: u64,
    op_us: Vec<f64>,
}

impl Timed {
    fn new(classes: usize) -> Timed {
        Timed {
            by_class: vec![Vec::new(); classes],
            rr: vec![0.0; classes],
            passes: 0,
            ops: 0,
        }
    }

    /// Check one op's result and record its time.
    fn record(
        &mut self,
        class: usize,
        spec: &ScenarioSpec,
        r: &ScenarioResult,
        dt: Duration,
        expected: &str,
        report: &mut Report,
    ) {
        self.ops += 1;
        report.attempted += 1;
        let line = fingerprint_line(spec, r.fingerprint());
        if !r.is_gathered() {
            report.fail(format!("{spec:?} ended {:?}", r.outcome));
        } else if line != expected {
            report.fail(format!("fingerprint {line} != expected {expected}"));
        }
        self.rr[class] = (r.n as u64 * r.outcome.rounds()) as f64;
        self.by_class[class].push(dt.as_secs_f64() * 1e3);
    }
}

/// One op with spans, a phase timer on every round and a progress slot
/// attached.
fn traced_op(
    spec: &ScenarioSpec,
    tracer: &mut Tracer,
    agg: &mut Traced,
) -> (ScenarioResult, Duration) {
    let slot = ProgressSlot::new();
    let timer = Arc::new(PhaseTimer::new(1));
    let timer_epoch = Instant::now();
    let taps = RunTaps {
        probe: Some(slot.clone()),
        replay: None,
        phases: Some(timer.clone()),
    };
    let t0 = Instant::now();
    let r = run_scenario_tapped(spec, taps);
    let t1 = Instant::now();
    tracer.span("bench.run_scenario", t0, t1);
    tracer.merge_chrome_json(&timer.to_chrome_json(), timer_epoch);
    tracer.flush();
    for phase in Phase::ALL {
        agg.phase_ns[phase as usize] += timer.histogram(phase).sum();
    }
    agg.rounds.merge(timer.round_histogram());
    agg.guard_cancels += slot.snapshot().guard_cancels;
    agg.robot_rounds += r.n as u64 * r.outcome.rounds();
    agg.op_us.push((t1 - t0).as_secs_f64() * 1e6);
    (r, t1 - t0)
}

/// Run the mix in passes until `seconds` are up (at least one whole
/// pass over the run), adding to `sides`. A pass cut off by the deadline
/// is not resumed: the next call starts a fresh pass. When traced, every
/// op runs twice back to back, untraced and traced, alternating which
/// goes first, so the two sides see the same host conditions; the second
/// `Timed` holds the traced side.
fn timed_loop(
    specs: &[ScenarioSpec],
    expected: &[String],
    seconds: f64,
    rng: &mut SplitMix64,
    mut trace: Option<(&mut Tracer, &mut Traced)>,
    report: &mut Report,
    sides: &mut (Timed, Timed),
) {
    let (t, traced) = sides;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    'passes: loop {
        rng.shuffle(&mut order);
        for &class in &order {
            if t.passes > 0 && Instant::now() >= deadline {
                break 'passes;
            }
            let spec = &specs[class];
            let traced_first = t.passes % 2 == 1;
            for side in [traced_first, !traced_first] {
                match (side, trace.as_mut()) {
                    (true, Some((tracer, agg))) => {
                        let (r, dt) = traced_op(spec, tracer, agg);
                        traced.record(class, spec, &r, dt, &expected[class], report);
                    }
                    (false, _) => {
                        let t0 = Instant::now();
                        let r = run_scenario(spec);
                        t.record(class, spec, &r, t0.elapsed(), &expected[class], report);
                    }
                    (true, None) => {}
                }
            }
        }
        t.passes += 1;
    }
}

pub fn run(
    sim: Sim,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_fingerprints: bool,
) -> Result<(Report, Option<Tracer>), String> {
    let mut report = Report::default();
    let specs = sim.mix(seed);

    let mut setups = Vec::with_capacity(SETUPS);
    setups.push(setup(sim, &specs, &mut report));
    let expected = setups[0].expected.clone();
    let path = sim.fingerprint_path();
    if write_fingerprints {
        if seed != DEFAULT_SEED {
            return Err(format!(
                "fingerprints are kept for seed {DEFAULT_SEED} only"
            ));
        }
        std::fs::write(&path, expected.join("\n") + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        report.notes.push(format!("wrote {path}"));
    } else if seed == DEFAULT_SEED {
        let committed = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let committed: Vec<&str> = committed.lines().collect();
        if committed != expected {
            let diff = committed
                .iter()
                .zip(&expected)
                .filter(|(a, b)| **a != b.as_str())
                .count();
            report.problems.push(format!(
                "warm-up fingerprints differ from {path} on {diff} of {} classes",
                expected.len()
            ));
        }
    }

    // The timed loop runs in SETUPS segments with a set-up before each,
    // so the set-ups sample the host over the whole run, as the ops do:
    // back to back they all fell into one slow or fast stretch of it.
    let mut rng = SplitMix64::new(seed.rotate_left(17) ^ 0x0bde_5eed);
    let mut tracer = Tracer::new();
    let mut agg = Traced::default();
    let mut sides = (Timed::new(specs.len()), Timed::new(specs.len()));
    for i in 0..SETUPS {
        if i > 0 {
            let s = setup(sim, &specs, &mut report);
            if s.expected != expected {
                report.problems.push(format!(
                    "set-up {i} warm-up fingerprints differ from set-up 0"
                ));
            }
            setups.push(s);
        }
        timed_loop(
            &specs,
            &expected,
            seconds / SETUPS as f64,
            &mut rng,
            trace.then_some((&mut tracer, &mut agg)),
            &mut report,
            &mut sides,
        );
    }
    let (timed, traced) = sides;

    let mins = timed.class_mins();
    let p50 = percentile(&mins, 0.5)?;
    let p95 = percentile(&mins, 0.95)?;
    let counts = format!(
        "over the fastest repeats of {} classes, {} ops",
        p50.samples, timed.ops
    );
    report.set_pct("op_p50_ms", p50.value, counts.clone());
    report.set_pct("op_p95_ms", p95.value, counts);
    report.set("robot_rounds_per_s", timed.robot_rounds_per_s(|_| true));
    report.set(
        "ops_per_s",
        mins.len() as f64 / (mins.iter().sum::<f64>() / 1e3),
    );
    let walls: Vec<f64> = setups.iter().map(|s| s.wall.as_secs_f64()).collect();
    report.set_pct(
        "setup_s",
        median(&walls),
        format!("median of {SETUPS} set-ups: {}", seconds_list(&walls)),
    );
    let fewest = timed.by_class.iter().map(Vec::len).min().unwrap_or(0);
    report.notes.push(format!(
        "{}: {} classes, {} ops, {} full passes, fewest repeats of a class {fewest}",
        sim.name(),
        specs.len(),
        timed.ops,
        timed.passes
    ));

    if !trace {
        report.set("peak_rss_mib", peak_rss_mib());
        return Ok((report, None));
    }

    let first = &setups[0];
    let gen_us: Vec<f64> = setups
        .iter()
        .map(|s| s.generate.as_secs_f64() * 1e6)
        .collect();
    let pack_us: Vec<f64> = setups.iter().map(|s| s.pack.as_secs_f64() * 1e6).collect();
    report.set("workloads.generate_us", median(&gen_us));
    report.set("packed.pack_us", median(&pack_us));
    let phase_total: u64 = agg.phase_ns.iter().sum::<u64>().max(1);
    for (phase, name) in [
        (Phase::Compute, "engine.compute_share"),
        (Phase::Guard, "engine.guard_share"),
        (Phase::Apply, "engine.apply_share"),
        (Phase::Merge, "engine.merge_share"),
    ] {
        report.set(
            name,
            agg.phase_ns[phase as usize] as f64 / phase_total as f64,
        );
    }
    report.set(
        "chain_sim.guard_cancels_per_robot_round",
        agg.guard_cancels as f64 / agg.robot_rounds.max(1) as f64,
    );
    for (kind, name) in KERNEL_STRATEGIES {
        report.set(
            name,
            timed.robot_rounds_per_s(|class| specs[class].strategy == kind),
        );
    }
    report.set("engine.round_us_p50", agg.rounds.p50() as f64 / 1e3);
    let op_span = tracer.get("bench.run_scenario");
    report.set_pct(
        "bench.run_scenario_us",
        percentile(&agg.op_us, 0.5)?.value,
        format!("over {} traced ops", agg.op_us.len()),
    );
    report.set(
        "bench.run_scenario_self_share",
        op_span.self_ns as f64 / op_span.total_ns.max(1) as f64,
    );
    report.set("engine.rounds", first.rounds as f64);
    report.set("engine.robot_rounds", first.robot_rounds as f64);
    report.set("engine.merged_robots", first.merged as f64);
    report.set(
        "core.run_merge_ratio",
        first.runs_merged as f64 / first.runs_started.max(1) as f64,
    );
    // Overhead per class: each class ran on both sides equally often.
    let ratios: Vec<f64> = timed
        .by_class
        .iter()
        .zip(&traced.by_class)
        .filter(|(a, b)| !a.is_empty() && !b.is_empty())
        .map(|(a, b)| fastest(b) / fastest(a))
        .collect();
    let traced_p50 = percentile(&traced.class_mins(), 0.5)?;
    report.set("trace.overhead_pct", (median(&ratios) - 1.0) * 100.0);
    report.set("trace.untraced_op_p50_ms", p50.value);
    report.set("trace.traced_op_p50_ms", traced_p50.value);
    report.notes.push(format!(
        "tracing overhead: {:+.1}% per op (median ratio of fastest repeats over {} classes); \
         op p50 {:.4} ms untraced, {:.4} ms traced",
        (median(&ratios) - 1.0) * 100.0,
        ratios.len(),
        p50.value,
        traced_p50.value
    ));
    Ok((report, Some(tracer)))
}
