//! In-memory span recorder of the traced run.
//!
//! Spans are recorded only from the benchmark's own source files, around
//! the calls into each layer. They go into a vector sized once up front
//! (recording never allocates) and are written out as Chrome trace-event
//! JSON when the workload ends. A span flagged `program` was not timed
//! here: its duration is a value the library call returned (a phase of
//! `StepTimings`, a tick's busy time) and it is laid out inside its parent
//! back to back, in the order the phases run.

use crate::report::J;
use crate::spec::Layer;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// Spans kept per run; later ones are counted as dropped.
const CAPACITY: usize = 1 << 17;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Index of the timed op the span belongs to (`u32::MAX` outside ops).
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub program: bool,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    dropped: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { CAPACITY } else { 0 }),
            stack: Vec::with_capacity(16),
            op: u32::MAX,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording off (the untraced reference ops of a traced run).
    pub fn pause(&mut self) {
        self.enabled = false;
    }

    pub fn resume(&mut self) {
        self.enabled = self.spans.capacity() > 0;
    }

    /// Spans opened from now on belong to timed op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        let id = self.push(Span {
            name,
            layer,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
            program: false,
        });
        if id != NO_PARENT {
            self.stack.push(id);
        }
        id
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        if self.stack.last() == Some(&id) {
            self.stack.pop();
        }
    }

    /// Time `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, layer);
        let r = f();
        self.end(id);
        r
    }

    /// Attach durations the program returned as children of `parent`, laid
    /// out back to back from the parent's start and clipped to its end.
    pub fn program_children(&mut self, parent: u32, phases: &[(&'static str, Layer, u64)]) {
        if parent == NO_PARENT {
            return;
        }
        let Span {
            start_ns,
            end_ns,
            op,
            ..
        } = self.spans[parent as usize];
        let mut at = start_ns;
        for &(name, layer, dur_ns) in phases {
            if dur_ns == 0 {
                continue;
            }
            let stop = (at + dur_ns).min(end_ns);
            self.push(Span {
                name,
                layer,
                op,
                parent,
                start_ns: at,
                end_ns: stop,
                program: true,
            });
            at = stop;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Mean self time, in ns, of the root spans named `name`.
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        let selfs = self_times(&self.spans);
        let (mut sum, mut count) = (0u64, 0u64);
        for (s, self_ns) in self.spans.iter().zip(&selfs) {
            if s.name == name && !s.program {
                sum += self_ns;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Chrome trace-event document (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, timestamps in microseconds.
    pub fn to_chrome(&self, workload: &str) -> J {
        let selfs = self_times(&self.spans);
        let events = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, &self_ns))| {
                J::obj([
                    ("name", J::str(s.name)),
                    ("cat", J::str(s.layer.name())),
                    ("ph", J::str("X")),
                    ("ts", J::Num(s.start_ns as f64 / 1e3)),
                    ("dur", J::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", J::Int(1)),
                    // Program-returned children on their own lane, so the
                    // viewer never shows them as if timed here.
                    ("tid", J::Int(if s.program { 2 } else { 1 })),
                    (
                        "args",
                        J::obj([
                            ("id", J::Int(id as u64)),
                            ("workload", J::str(workload)),
                            (
                                "op",
                                if s.op == u32::MAX {
                                    J::Null
                                } else {
                                    J::Int(s.op as u64)
                                },
                            ),
                            (
                                "parent",
                                if s.parent == NO_PARENT {
                                    J::Null
                                } else {
                                    J::Int(s.parent as u64)
                                },
                            ),
                            (
                                "source",
                                J::str(if s.program { "program" } else { "benchmark" }),
                            ),
                            ("start_ns", J::Int(s.start_ns)),
                            ("end_ns", J::Int(s.end_ns)),
                            ("self_ns", J::Int(self_ns)),
                        ]),
                    ),
                ])
            })
            .collect();
        J::obj([
            ("displayTimeUnit", J::str("ms")),
            ("spans_dropped", J::Int(self.dropped)),
            ("traceEvents", J::Arr(events)),
        ])
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            layer: Layer::Bench,
            op: 0,
            parent,
            start_ns,
            end_ns,
            program: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span(NO_PARENT, 0, 100), // 0: root
            span(0, 10, 30),         // 1
            span(0, 20, 50),         // 2: overlaps 1 → union [10, 50) = 40
            span(0, 70, 120),        // 3: clipped to the parent's end → 30
            span(1, 12, 18),         // 4: grandchild, only reduces span 1
        ];
        assert_eq!(self_times(&spans), vec![30, 14, 30, 50, 6]);
    }

    #[test]
    fn program_children_are_back_to_back_and_clipped() {
        let mut rec = Recorder::new(true);
        let id = rec.begin("op", Layer::Sim);
        rec.end(id);
        // Force a known interval.
        rec.spans[0].start_ns = 1_000;
        rec.spans[0].end_ns = 2_000;
        rec.program_children(
            id,
            &[
                ("a", Layer::Sim, 300),
                ("zero", Layer::Sim, 0),
                ("b", Layer::Bvh, 900),
            ],
        );
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[1].start_ns, s[1].end_ns, s[1].program),
            (1_000, 1_300, true)
        );
        assert_eq!((s[2].start_ns, s[2].end_ns), (1_300, 2_000));
        assert_eq!(self_times(s)[0], 0);
        assert_eq!(rec.mean_self_ns("op"), 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.begin("op", Layer::Sim);
        rec.end(id);
        assert_eq!(id, NO_PARENT);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.spans.capacity(), 0);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut rec = Recorder::new(true);
        rec.set_op(7);
        let a = rec.begin("a", Layer::Bench);
        let b = rec.begin("b", Layer::Sim);
        rec.end(b);
        let c = rec.begin("c", Layer::Sim);
        rec.end(c);
        rec.end(a);
        let s = rec.spans();
        assert_eq!((s[1].parent, s[2].parent, s[0].parent), (a, a, NO_PARENT));
        assert!(s.iter().all(|x| x.op == 7));
    }
}
