//! In-memory span recorder for the traced pass. Spans are taken by the
//! benchmark's own code around calls into public functions of the stack;
//! nothing inside the program under test is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No parent" marker.
pub const ROOT: u32 = u32::MAX;

/// Spans kept per recorder; the SUM stepper alone takes ~300 k steps per
/// session, so an unbounded recorder would outgrow the table it measures.
const MAX_SPANS: usize = 2_000_000;
/// Spans written out in full; the per-name summary always covers all.
const MAX_WRITTEN: usize = 100_000;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// Session index within the pass.
    pub session: u32,
}

pub struct Tracer {
    epoch: Instant,
    /// Recorder id (one per driver thread), written with every span.
    lane: u32,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u32) -> Self {
        Self {
            epoch,
            lane,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a finished span and returns its index (usable as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        session: u32,
    ) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            parent,
            session,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a parent span whose end is patched by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, session: u32) -> u32 {
        self.record(name, start, start, ROOT, session)
    }

    pub fn close(&mut self, idx: u32, end: Instant) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = (end - self.epoch).as_nanos() as u64;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Self time per span name: a span's duration minus the part its direct
/// children cover.
pub fn self_times(tracers: &[Tracer]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, c) in t.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(*c);
        }
    }
    out
}

/// Writes `out/trace-<workload>.json`: a per-name summary over every span
/// plus the first [`MAX_WRITTEN`] spans verbatim.
pub fn write(path: &std::path::Path, workload: &str, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut json = String::new();
    let total: usize = tracers.iter().map(Tracer::len).sum();
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
    let _ = write!(
        json,
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{total},\"spans_dropped\":{dropped},\"self_time\":{{"
    );
    for (i, (name, (count, ns))) in self_times(tracers).iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{comma}\"{name}\":{{\"count\":{count},\"self_ns\":{ns}}}"
        );
    }
    json.push_str("},\"spans\":[");
    let mut written = 0usize;
    'outer: for t in tracers {
        for s in &t.spans {
            if written == MAX_WRITTEN {
                break 'outer;
            }
            let comma = if written == 0 { "" } else { "," };
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                json,
                "{comma}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{},\"lane\":{}}}",
                s.name, s.start_ns, s.end_ns, s.session, t.lane
            );
            written += 1;
        }
    }
    json.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)
}
