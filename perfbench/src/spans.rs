//! Spans around the calls the benchmark makes into each layer.
//!
//! Workload ops are generic over [`Tracer`]: [`Off`] compiles every span
//! away (the untraced run that gives the end-to-end metrics), [`Spans`]
//! keeps each span in memory with its name, start, end, parent span and
//! op id (round and op index), and writes them out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// Span and count recording, statically dispatched.
pub trait Tracer {
    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Records an exact count of the current op.
    fn count(&mut self, name: &'static str, value: u64);
    /// True when counts are kept (so callers can skip computing them).
    fn on(&self) -> bool;
    /// Sets the op id of the spans and counts that follow.
    fn set_op(&mut self, round: u32, op: u64);
}

/// The untraced run.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn span<R>(&mut self, _: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    #[inline(always)]
    fn count(&mut self, _: &'static str, _: u64) {}

    #[inline(always)]
    fn on(&self) -> bool {
        false
    }

    #[inline(always)]
    fn set_op(&mut self, _: u32, _: u64) {}
}

struct Span {
    name: &'static str,
    round: u32,
    op: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

struct Count {
    name: &'static str,
    round: u32,
    op: u64,
    value: u64,
}

/// The traced run: spans and counts kept in memory.
pub struct Spans {
    epoch: Instant,
    round: u32,
    op: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
    counts: Vec<Count>,
    /// Start of each segment as (span index, count index). Segment 0
    /// holds the traced workload's own ops; each later one the census
    /// ops of one other workload.
    segments: Vec<(usize, usize)>,
}

impl Tracer for Spans {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            round: self.round,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push(Count {
            name,
            round: self.round,
            op: self.op,
            value,
        });
    }

    fn on(&self) -> bool {
        true
    }

    fn set_op(&mut self, round: u32, op: u64) {
        self.round = round;
        self.op = op;
    }
}

/// Per-layer figures of one traced run.
pub struct LayerStats {
    /// Per span name, the median over op indices of each op's fastest
    /// self time over the rounds, in milliseconds.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Median per-op value per count name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            round: 0,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
            segments: vec![(0, 0)],
        }
    }

    /// Starts a census segment: ops of another workload, run only to
    /// measure layers the traced workload never calls.
    pub fn begin_census(&mut self) {
        self.segments.push((self.spans.len(), self.counts.len()));
    }

    /// Segment of the span or count at index `i`, with `start` picking
    /// the matching index from a segment's start.
    fn segment_of(&self, start: impl Fn(&(usize, usize)) -> usize, i: usize) -> usize {
        self.segments
            .iter()
            .rposition(|s| start(s) <= i)
            .unwrap_or(0)
    }

    /// Sum of every count per name.
    pub fn count_sums(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for c in &self.counts {
            *out.entry(c.name).or_default() += c.value;
        }
        out
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// `(span range, count range)` of every segment.
    fn segment_ranges(&self) -> Vec<(Range<usize>, Range<usize>)> {
        let mut ends = self.segments[1..].to_vec();
        ends.push((self.spans.len(), self.counts.len()));
        self.segments
            .iter()
            .zip(ends)
            .map(|(&(s0, c0), (s1, c1))| (s0..s1, c0..c1))
            .collect()
    }

    /// Per segment: (span name, op index) → fastest self time over the
    /// rounds, in nanoseconds.
    fn best_self_ns(&self) -> Vec<BTreeMap<(&'static str, u64), u64>> {
        let self_ns = self.self_ns();
        self.segment_ranges()
            .into_iter()
            .map(|(spans, _)| {
                let mut best: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
                for i in spans {
                    let s = &self.spans[i];
                    let b = best.entry((s.name, s.op)).or_insert(u64::MAX);
                    *b = (*b).min(self_ns[i]);
                }
                best
            })
            .collect()
    }

    /// Per segment: (count name, op index) → the op's value (counts
    /// repeat exactly over rounds, so any round's value is the value).
    fn op_counts(&self) -> Vec<BTreeMap<(&'static str, u64), u64>> {
        self.segment_ranges()
            .into_iter()
            .map(|(_, counts)| {
                let mut per_op: BTreeMap<(&'static str, u32, u64), u64> = BTreeMap::new();
                for c in &self.counts[counts] {
                    *per_op.entry((c.name, c.round, c.op)).or_default() += c.value;
                }
                per_op
                    .into_iter()
                    .map(|((name, _, op), v)| ((name, op), v))
                    .collect()
            })
            .collect()
    }

    /// Per-layer medians. Each name is taken from the first segment that
    /// recorded it: the workload's own ops when they call the layer, else
    /// the first census that does.
    pub fn layer_stats(&self) -> LayerStats {
        let by_name = |segments: Vec<BTreeMap<(&'static str, u64), u64>>, scale: f64| {
            segments
                .into_iter()
                .map(|m| {
                    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
                    for ((name, _), v) in m {
                        out.entry(name).or_default().push(v as f64 * scale);
                    }
                    out
                })
                .collect()
        };
        LayerStats {
            self_ms: first_medians(by_name(self.best_self_ns(), 1e-6)),
            counts: first_medians(by_name(self.op_counts(), 1.0)),
        }
    }

    /// Median over op indices of a span's fastest self time divided by a
    /// count of the same op, in nanoseconds per unit, from the first
    /// segment that has both.
    pub fn ns_per(&self, span: &str, count: &str) -> Option<f64> {
        self.best_self_ns()
            .into_iter()
            .zip(self.op_counts())
            .find_map(|(best, counts)| {
                let mut ratios: Vec<f64> = counts
                    .iter()
                    .filter(|(&(name, _), &v)| name == count && v > 0)
                    .filter_map(|(&(_, op), &v)| {
                        best.get(&(span, op)).map(|&ns| ns as f64 / v as f64)
                    })
                    .collect();
                (!ratios.is_empty()).then(|| crate::stats::median(&mut ratios))
            })
    }

    /// The spans and counts as JSON lines, one record per line, after a
    /// provenance header line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let self_ns = self.self_ns();
        let mut out = String::with_capacity(96 * (self.spans.len() + self.counts.len()) + 256);
        out.push_str(header);
        out.push('\n');
        for (i, (s, own_ns)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"round\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own_ns},\"segment\":{}}}",
                s.name,
                s.round,
                s.op,
                s.start_ns,
                s.end_ns,
                self.segment_of(|s| s.0, i)
            );
        }
        for (i, c) in self.counts.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"count\":\"{}\",\"round\":{},\"op\":{},\"value\":{},\"segment\":{}}}",
                c.name,
                c.round,
                c.op,
                c.value,
                self.segment_of(|s| s.1, i)
            );
        }
        out
    }
}

/// Median per name, each from the first segment that has the name.
fn first_medians(segments: Vec<BTreeMap<&'static str, Vec<f64>>>) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for segment in segments {
        for (name, mut values) in segment {
            out.entry(name)
                .or_insert_with(|| crate::stats::median(&mut values));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Spans::new();
        t.set_op(0, 1);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let stats = t.layer_stats();
        let outer = stats.self_ms["outer"];
        let inner = stats.self_ms["inner"];
        assert!((1.5..4.0).contains(&outer), "outer self {outer}");
        assert!(inner >= 4.0, "inner self {inner}");
    }

    #[test]
    fn own_ops_take_precedence_over_census() {
        let mut t = Spans::new();
        t.set_op(0, 0);
        t.count("c", 2);
        t.count("c", 3);
        t.begin_census();
        t.set_op(0, 1);
        t.count("c", 100);
        t.count("only_census", 7);
        t.begin_census();
        t.count("only_census", 9);
        let stats = t.layer_stats();
        assert_eq!(stats.counts["c"], 5.0);
        assert_eq!(stats.counts["only_census"], 7.0);
    }
}
