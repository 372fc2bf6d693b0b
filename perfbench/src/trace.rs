//! Spans recorded from outside the program, around the calls the
//! benchmark makes into each layer, plus the timing oracle wrapper.
//!
//! Spans stay in memory and are written out once, when the run ends.

use lbr_core::InputOracle;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The instance or job the span belongs to.
    pub instance: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans against one epoch. Disabled tracers record nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span closes.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span; returns its duration.
    pub fn close(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        instance: u64,
        start: Instant,
    ) -> Duration {
        let end = Instant::now();
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.spans.lock().expect("span list").push(Span {
                name,
                id,
                parent,
                instance,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
        end - start
    }

    /// Times `f` as one span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        instance: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open();
        let start = Instant::now();
        let out = f();
        (out, self.close(name, id, parent, instance, start))
    }

    /// Writes every span as one JSON array, one object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span list");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"instance\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.id, s.parent, s.instance, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}

/// What the oracle layer did during one session.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleTally {
    pub calls: u64,
    pub busy: Duration,
    /// Calls whose error set still held every baseline error.
    pub preserving: u64,
}

/// Times every tool run a session makes through the oracle seam.
pub struct TimedOracle<'a, O: ?Sized> {
    inner: &'a O,
    tracer: &'a Tracer,
    parent: u64,
    instance: u64,
    tally: Mutex<OracleTally>,
}

impl<'a, O: ?Sized> TimedOracle<'a, O> {
    pub fn new(inner: &'a O, tracer: &'a Tracer, parent: u64, instance: u64) -> Self {
        TimedOracle {
            inner,
            tracer,
            parent,
            instance,
            tally: Mutex::new(OracleTally::default()),
        }
    }

    pub fn tally(&self) -> OracleTally {
        *self.tally.lock().expect("oracle tally")
    }
}

impl<I, O: InputOracle<I> + ?Sized> InputOracle<I> for TimedOracle<'_, O> {
    fn baseline(&self) -> &BTreeSet<String> {
        self.inner.baseline()
    }

    fn errors(&self, input: &I) -> BTreeSet<String> {
        let (errors, took) = self
            .tracer
            .span("oracle.errors", self.parent, self.instance, || {
                self.inner.errors(input)
            });
        let preserving = self.inner.baseline().iter().all(|e| errors.contains(e));
        let mut tally = self.tally.lock().expect("oracle tally");
        tally.calls += 1;
        tally.busy += took;
        tally.preserving += u64::from(preserving);
        errors
    }
}
