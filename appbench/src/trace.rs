//! Spans recorded by the benchmark around each public layer call of a
//! traced replay. Spans stay in memory and are summarised when the replay
//! ends; nothing is instrumented inside the library.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// One timed layer call: name, start and end relative to the tracer's
/// origin, and the index of the span that was open when it began.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span recorder. Spans nest: a span opened inside another
/// records that span as its parent, so one replay forms one tree.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let now = self.origin.elapsed();
            spans.push(Span { name, start: now, end: now, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.origin.elapsed();
        out
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// One line per span name: calls, total time and self time (total
    /// minus the time covered by direct child spans).
    pub fn summary(&self) -> Vec<String> {
        let spans = self.spans.borrow();
        let mut names: Vec<&'static str> = Vec::new();
        for s in spans.iter() {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        names
            .into_iter()
            .map(|name| {
                let (mut calls, mut total, mut own) = (0usize, Duration::ZERO, Duration::ZERO);
                for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
                    calls += 1;
                    total += s.end - s.start;
                    own += (s.end - s.start).saturating_sub(child_time[i]);
                }
                format!(
                    "span {name:<28} calls {calls:>4}  total {:>10.3} ms  self {:>10.3} ms",
                    total.as_secs_f64() * 1e3,
                    own.as_secs_f64() * 1e3
                )
            })
            .collect()
    }
}
