//! Spans recorded from the benchmark's own code, around its calls into
//! each layer, plus the per-layer self-time table.
//!
//! Spans are kept in memory: every span goes into a bounded
//! [`obs::TraceEvents`] buffer (the Perfetto file), and the spans of one
//! op are folded into the self-time table as soon as the op ends, so a
//! long run never holds more than one op's spans at a time. The engine's
//! phase spans come from an attached [`obs::PhaseTimer`] and are merged
//! in from its own trace export.

use bench::campaign::json::Json;
use obs::{trace_tid, TraceEvents};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Spans kept for the trace file; the self-time table sees every span.
const TRACE_CAP: usize = 100_000;

/// One complete span on a thread lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Aggregate of every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct child spans.
    pub self_ns: u64,
}

/// Fold `spans` into `table`. A span's children are the spans on the
/// same lane that start inside it; its self time is its duration minus
/// the part of it those direct children cover.
pub fn fold_self_times(spans: &mut [Span], table: &mut BTreeMap<&'static str, SelfTime>) {
    // Parents sort before the children they contain: by lane, start,
    // then longest first.
    spans.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.dur_ns)));
    // Open spans: (name, tid, end, duration, covered-by-children).
    let mut stack: Vec<(&'static str, u64, u64, u64, u64)> = Vec::new();
    let close = |entry: (&'static str, u64, u64, u64, u64),
                 table: &mut BTreeMap<&'static str, SelfTime>| {
        let (name, _, _, dur, covered) = entry;
        let agg = table.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(covered);
    };
    for s in spans.iter() {
        let end = s.start_ns + s.dur_ns;
        while let Some(&top) = stack.last() {
            if top.1 == s.tid && s.start_ns < top.2 {
                break;
            }
            close(stack.pop().expect("stack top exists"), table);
        }
        if let Some(top) = stack.last_mut() {
            top.4 += end.min(top.2) - s.start_ns;
        }
        stack.push((s.name, s.tid, end, s.dur_ns, 0));
    }
    while let Some(entry) = stack.pop() {
        close(entry, table);
    }
}

/// The traced run's span sink.
pub struct Tracer {
    events: TraceEvents,
    pending: Vec<Span>,
    table: BTreeMap<&'static str, SelfTime>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            events: TraceEvents::new(TRACE_CAP),
            pending: Vec::new(),
            table: BTreeMap::new(),
        }
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.events.epoch()).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end` on this thread.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.pending.push(Span {
            name,
            tid: trace_tid(),
            start_ns: self.ns_since_epoch(start),
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.span(name, t0, t1);
        (out, t1 - t0)
    }

    /// Merge the Chrome-trace export of an [`obs::PhaseTimer`] whose
    /// clock started at `timer_epoch`. The timer's clock starts as the
    /// last step of its construction, so read `timer_epoch` right after
    /// building it. Its phase spans become children of the op span they
    /// ran in.
    pub fn merge_chrome_json(&mut self, json: &str, timer_epoch: Instant) {
        let Ok(doc) = Json::parse(json) else {
            return;
        };
        let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
            return;
        };
        let offset = self.ns_since_epoch(timer_epoch);
        let num = |ev: &Json, key: &str| match ev.get(key) {
            Some(Json::Num(x)) => *x,
            _ => 0.0,
        };
        for ev in events {
            let name = match ev.get("name").and_then(Json::as_str) {
                Some("compute") => "engine.compute",
                Some("guard") => "engine.guard",
                Some("apply") => "engine.apply",
                Some("merge") => "engine.merge",
                _ => "engine.other",
            };
            self.pending.push(Span {
                name,
                tid: num(ev, "tid") as u64,
                start_ns: offset + (num(ev, "ts") * 1e3).round() as u64,
                dur_ns: (num(ev, "dur") * 1e3).round() as u64,
            });
        }
    }

    /// Close the current op: fold its spans into the self-time table
    /// and keep them for the trace file.
    pub fn flush(&mut self) {
        let epoch = self.events.epoch();
        for s in &self.pending {
            self.events.complete(
                s.name,
                s.tid,
                epoch + Duration::from_nanos(s.start_ns),
                Duration::from_nanos(s.dur_ns),
                None,
            );
        }
        let mut spans = std::mem::take(&mut self.pending);
        fold_self_times(&mut spans, &mut self.table);
    }

    /// Aggregate for one span name (zero when it never ran).
    pub fn get(&self, name: &str) -> SelfTime {
        self.table.get(name).copied().unwrap_or_default()
    }

    /// The self-time table as aligned text, heaviest self time first.
    pub fn table_text(&self) -> String {
        let mut rows: Vec<_> = self.table.iter().collect();
        rows.sort_by_key(|(_, agg)| std::cmp::Reverse(agg.self_ns));
        let all_self: u64 = rows.iter().map(|(_, a)| a.self_ns).sum::<u64>().max(1);
        let mut out = format!(
            "{:<26} {:>10} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        for (name, agg) in rows {
            out.push_str(&format!(
                "{:<26} {:>10} {:>12.3} {:>12.3} {:>6.1}%\n",
                name,
                agg.count,
                agg.total_ns as f64 / 1e6,
                agg.self_ns as f64 / 1e6,
                100.0 * agg.self_ns as f64 / all_self as f64
            ));
        }
        if self.events.dropped() > 0 {
            out.push_str(&format!(
                "({} spans beyond the trace file's cap of {TRACE_CAP} are in this table \
                 but not in the file)\n",
                self.events.dropped()
            ));
        }
        out
    }

    /// The Perfetto-loadable Chrome trace.
    pub fn chrome_json(&self) -> String {
        self.events.to_chrome_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name,
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = vec![
            span("child", 1, 20, 30),
            span("op", 1, 0, 100),
            span("grandchild", 1, 25, 10),
            span("child", 1, 60, 20),
            span("op", 1, 200, 50),
        ];
        let mut table = BTreeMap::new();
        fold_self_times(&mut spans, &mut table);
        assert_eq!(
            table["op"],
            SelfTime {
                count: 2,
                total_ns: 150,
                self_ns: 100 - 50 + 50
            }
        );
        assert_eq!(
            table["child"],
            SelfTime {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(table["grandchild"].self_ns, 10);
    }

    #[test]
    fn lanes_do_not_nest_and_overhang_is_clamped() {
        let mut spans = vec![
            span("a", 1, 0, 100),
            span("b", 2, 10, 20),
            // Starts inside `a` but rounding pushed its end past `a`'s.
            span("c", 1, 90, 20),
        ];
        let mut table = BTreeMap::new();
        fold_self_times(&mut spans, &mut table);
        assert_eq!(table["a"].self_ns, 90);
        assert_eq!(table["b"].self_ns, 20);
        assert_eq!(table["c"].self_ns, 20);
    }

    #[test]
    fn phase_timer_export_nests_under_op_span() {
        let mut tracer = Tracer::new();
        let timer = std::sync::Arc::new(obs::PhaseTimer::new(1));
        let epoch = Instant::now();
        let t0 = Instant::now();
        {
            let mut clock = timer.round_clock(0).expect("every round sampled");
            std::hint::black_box((0..10_000u64).sum::<u64>());
            clock.mark(obs::Phase::Compute);
            clock.mark(obs::Phase::Merge);
        }
        let t1 = Instant::now();
        tracer.span("bench.run_scenario", t0, t1);
        tracer.merge_chrome_json(&timer.to_chrome_json(), epoch);
        tracer.flush();
        let op = tracer.get("bench.run_scenario");
        let compute = tracer.get("engine.compute");
        assert_eq!(op.count, 1);
        assert_eq!(compute.count, 1);
        assert!(op.self_ns < op.total_ns, "phase time not subtracted");
        assert!(tracer.chrome_json().contains("\"name\":\"engine.compute\""));
        assert!(tracer.table_text().contains("bench.run_scenario"));
    }
}
