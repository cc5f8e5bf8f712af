//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call into a layer, with the
//! span that enclosed it as its parent. Spans are kept in memory while the
//! workload runs and written out once the run ends. When the recorder is
//! off, [`Tracer::enter`] returns `None` without reading the clock, so an
//! untraced iteration pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `sim.run_until`; phases are named `phase.*`.
    pub name: &'static str,
    /// Iteration of the pipeline the span belongs to (the request id).
    pub iteration: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans while switched on.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    muted: bool,
    iteration: u32,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, initially off.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            on: false,
            muted: false,
            iteration: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off for the spans that follow and tags them
    /// with `iteration`.
    pub fn set(&mut self, on: bool, iteration: u32) {
        assert!(self.open.is_empty(), "switched with spans open");
        self.on = on;
        self.iteration = iteration;
    }

    /// Stops (or restarts) recording without closing open spans: repeated
    /// passes of one call are timed, but only the first is traced.
    pub fn mute(&mut self, muted: bool) {
        self.muted = muted;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; pass the returned handle to [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on || self.muted {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            iteration: self.iteration,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` opened.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now_ns();
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = end;
        }
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Times `$body` as span `$name` on `$tracer` and yields its value.
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr, $body:expr) => {{
        let id = $tracer.enter($name);
        let value = $body;
        $tracer.exit(id);
        value
    }};
}

/// Self time per layer of one iteration, seconds: each call span's
/// duration minus what its child call spans cover. Phase spans group
/// calls but belong to no layer.
#[must_use]
pub fn layer_self_secs(spans: &[Span], iteration: u32) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if !s.name.starts_with("phase.") {
                child_ns[p] += s.duration_ns();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.iteration != iteration || s.name.starts_with("phase.") {
            continue;
        }
        let own = s.duration_ns().saturating_sub(child_ns[i]);
        #[allow(clippy::cast_precision_loss)]
        let secs = own as f64 * 1e-9;
        *out.entry(s.layer()).or_insert(0.0) += secs;
    }
    out
}

/// JSON array of the spans, one object per line.
#[must_use]
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\": \"{}\", \"iteration\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                s.name, s.iteration, s.start_ns, s.end_ns, parent
            )
        })
        .collect();
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let v = span!(t, "sim.run_until", 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());

        t.set(true, 3);
        let phase = t.enter("phase.retrieve");
        let outer = t.enter("core.collect");
        std::thread::sleep(std::time::Duration::from_millis(2));
        span!(
            t,
            "sim.run_until",
            std::thread::sleep(std::time::Duration::from_millis(4))
        );
        t.exit(outer);
        t.exit(phase);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        let selfs = layer_self_secs(spans, 3);
        assert!(!selfs.contains_key("phase"));
        assert!(selfs["core"] < selfs["sim"], "{selfs:?}");
        assert!(layer_self_secs(spans, 0).is_empty());
    }
}
