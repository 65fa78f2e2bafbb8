//! Spans recorded around the calls the benchmark makes into the program.
//!
//! Spans live in memory while the workload runs and are written out as
//! NDJSON when it ends. Every span carries the id of the request (or
//! batch, or trajectory) it belongs to, so all spans of one request can be
//! pulled together; `parent` is the index of the enclosing span in the
//! same recorder.

use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request (or batch, trajectory) the span belongs to.
    pub id: u64,
    /// Layer boundary the span measures, e.g. `daemon.submit`.
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder. A disabled recorder keeps nothing, so the
/// untraced run pays only for the `enabled` test.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval; returns its index (for children).
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as NDJSON, one object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_keeps_nothing_and_children_point_at_parents() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.record(1, "x", epoch, epoch, None), None);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true, epoch);
        let root = on.record(1, "request", epoch, epoch + Duration::from_millis(2), None);
        let child = on.record(1, "submit", epoch, epoch + Duration::from_millis(1), root);
        assert_eq!((root, child), (Some(0), Some(1)));
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[0].end_ns, 2_000_000);
    }
}
