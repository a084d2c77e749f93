//! In-memory spans around the harness's calls into the crates.
//!
//! The end-to-end pass runs with the tracer off and [`Tracer::span`] is a
//! plain call. The traced pass records one span per public call — name,
//! start, end, parent, workload, repetition — keeps them in memory and
//! writes them out once, at exit. A span's self time is its duration minus
//! the part of it that its children cover.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (index into the tracer's span list).
pub type SpanId = u32;

/// One recorded span. Times are microseconds since the tracer was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub workload: &'static str,
    pub rep: u32,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

struct Inner {
    spans: Vec<Span>,
    workload: &'static str,
    rep: u32,
}

/// Span recorder shared by the harness thread and the closures it hands to
/// the serve tier (which run on the service's worker thread).
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    inner: Mutex<Inner>,
}

thread_local! {
    /// The innermost open span on this thread: the parent of the next one.
    static CURRENT: Cell<Option<SpanId>> = const { Cell::new(None) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            inner: Mutex::new(Inner { spans: Vec::new(), workload: "", rep: 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer mutex poisoned: a traced closure panicked")
    }

    /// Labels the spans that follow with a workload and repetition.
    pub fn set_context(&self, workload: &'static str, rep: u32) {
        let mut g = self.lock();
        g.workload = workload;
        g.rep = rep;
    }

    /// The innermost open span on the calling thread.
    pub fn current(&self) -> Option<SpanId> {
        CURRENT.with(Cell::get)
    }

    /// Runs `f` inside a span whose parent is the calling thread's
    /// innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _open = self.open(name);
        f()
    }

    /// Opens a span under the calling thread's innermost open span; it
    /// closes when the returned guard drops.
    pub fn open(&self, name: &'static str) -> OpenSpan<'_> {
        self.open_in(self.current(), name)
    }

    /// Opens a span with an explicit parent: how a closure that runs on
    /// another thread stays linked to the operation that caused it.
    pub fn open_in(&self, parent: Option<SpanId>, name: &'static str) -> OpenSpan<'_> {
        if !self.enabled {
            return OpenSpan { tracer: self, id: None, prev: None };
        }
        let id = {
            let mut g = self.lock();
            let now = self.t0.elapsed().as_secs_f64() * 1e6;
            let span =
                Span { parent, name, workload: g.workload, rep: g.rep, start_us: now, end_us: now };
            g.spans.push(span);
            (g.spans.len() - 1) as SpanId
        };
        OpenSpan { tracer: self, id: Some(id), prev: CURRENT.with(|c| c.replace(Some(id))) }
    }

    /// Records a finished span from its two instants. For operations that
    /// overlap on one thread (a window of in-flight requests), which the
    /// open/close nesting cannot express.
    pub fn record(&self, parent: Option<SpanId>, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.duration_since(self.t0).as_secs_f64() * 1e6;
        let mut g = self.lock();
        let (workload, rep) = (g.workload, g.rep);
        g.spans.push(Span { parent, name, workload, rep, start_us: us(start), end_us: us(end) });
    }

    /// Seconds of every span called `name` in the current workload, in
    /// recording order.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        let g = self.lock();
        g.spans
            .iter()
            .filter(|s| s.name == name && s.workload == g.workload)
            .map(Span::seconds)
            .collect()
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let g = self.lock();
        let selfs = self_times_us(&g.spans);
        let mut s = String::from("{\"unit\": \"us\", \"spans\": [\n");
        for (i, (sp, self_us)) in g.spans.iter().zip(selfs).enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"rep\": {}, \"start\": {:.1}, \"end\": {:.1}, \"self\": {:.1}}}{}\n",
                sp.name,
                sp.workload,
                sp.rep,
                sp.start_us,
                sp.end_us,
                self_us,
                if i + 1 < g.spans.len() { "," } else { "" }
            ));
        }
        s.push_str("]}\n");
        s
    }
}

/// An open span; dropping it records the end time.
pub struct OpenSpan<'a> {
    tracer: &'a Tracer,
    id: Option<SpanId>,
    prev: Option<SpanId>,
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            CURRENT.with(|c| c.set(self.prev));
            let end = self.tracer.t0.elapsed().as_secs_f64() * 1e6;
            // A poisoned tracer means a traced closure already panicked;
            // never panic again while that unwinds.
            if let Ok(mut g) = self.tracer.inner.lock() {
                g.spans[id as usize].end_us = end;
            }
        }
    }
}

/// Self time of each span in microseconds: its duration minus the length
/// of the union of its children's intervals, clipped to the span. Children
/// that overlap each other (work on two threads) are subtracted once.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_us.max(parent.start_us);
            let hi = s.end_us.min(parent.end_us);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_us: f64, end_us: f64) -> Span {
        Span { parent, name: "t", workload: "w", rep: 0, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span(None, 0.0, 100.0),
            span(Some(0), 10.0, 40.0),
            span(Some(0), 30.0, 60.0),  // overlaps the previous child by 10
            span(Some(0), 80.0, 120.0), // runs past its parent: clipped to 20
            span(Some(1), 15.0, 20.0),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 100.0 - 50.0 - 20.0);
        assert_eq!(selfs[1], 30.0 - 5.0);
        assert_eq!(selfs[2], 30.0);
        assert_eq!(selfs[4], 5.0);
    }

    #[test]
    fn spans_nest_by_thread_and_link_across_threads() {
        let tr = Tracer::new(true);
        tr.set_context("w", 3);
        let outer_id = tr.span("outer", || {
            tr.span("inner", || ());
            let here = tr.current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _foreign = tr.open_in(here, "foreign");
                    tr.span("nested", || ());
                });
            });
            here
        });
        let g = tr.lock();
        let by_name = |n: &str| g.spans.iter().position(|s| s.name == n).map(|i| i as SpanId);
        assert_eq!(by_name("outer"), outer_id);
        assert_eq!(g.spans[by_name("inner").unwrap() as usize].parent, outer_id);
        assert_eq!(g.spans[by_name("foreign").unwrap() as usize].parent, outer_id);
        assert_eq!(g.spans[by_name("nested").unwrap() as usize].parent, by_name("foreign"));
        assert!(g.spans.iter().all(|s| s.rep == 3 && s.workload == "w" && s.end_us >= s.start_us));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 7), 7);
        assert!(tr.seconds_of("x").is_empty());
    }
}
