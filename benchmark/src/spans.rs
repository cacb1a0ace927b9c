//! Spans recorded by the benchmark's own files around the calls into each
//! layer's public functions. They are kept in memory and written out when
//! the command ends; spans inside the simulator are a later issue.

use crate::clock::{cpu_ns, wall_ns};

/// One recorded span. An interval span has a start and an end on both
/// clocks; an aggregate span stands for `count` short calls (protocol
/// callbacks, source draws) whose total is `cpu_end - cpu_start`, parked at
/// its parent's start because one span per call would cost more than the
/// calls.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub cpu_start: u64,
    pub cpu_end: u64,
    pub wall_start: u64,
    pub wall_end: u64,
    /// 1 for an interval, the number of calls for an aggregate.
    pub count: u64,
    pub aggregate: bool,
}

impl Span {
    pub fn cpu_s(&self) -> f64 {
        (self.cpu_end - self.cpu_start) as f64 * 1e-9
    }

    pub fn wall_s(&self) -> f64 {
        (self.wall_end - self.wall_start) as f64 * 1e-9
    }
}

/// Span recorder for one (workload, repetition). Times are nanoseconds
/// since the recorder was made.
pub struct Recorder {
    enabled: bool,
    workload: String,
    repetition: u32,
    cpu0: u64,
    wall0: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str, repetition: u32) -> Self {
        Recorder {
            enabled: true,
            workload: workload.to_string(),
            repetition,
            cpu0: cpu_ns(),
            wall0: wall_ns(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that takes no span and reads no clock: the end-to-end
    /// repetitions run the same code as the layer run, uninstrumented.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new("", 0)
        }
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let (cpu, wall) = (cpu_ns() - self.cpu0, wall_ns() - self.wall0);
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            cpu_start: cpu,
            cpu_end: cpu,
            wall_start: wall,
            wall_end: wall,
            count: 1,
            aggregate: false,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.cpu_end = cpu_ns() - self.cpu0;
        s.wall_end = wall_ns() - self.wall0;
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Attach `count` calls totalling `total_ns` of CPU as one child of
    /// `parent`.
    pub fn aggregate(&mut self, parent: usize, name: &str, count: u64, total_ns: u64) {
        if !self.enabled {
            return;
        }
        let (cpu, wall) = (self.spans[parent].cpu_start, self.spans[parent].wall_start);
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            cpu_start: cpu,
            cpu_end: cpu + total_ns,
            wall_start: wall,
            wall_end: wall + total_ns,
            count,
            aggregate: true,
        });
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// The first span named `name` below `ancestor` (at any depth).
    pub fn find_in(&self, ancestor: usize, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| {
            let mut up = s.parent;
            while let Some(p) = up {
                if p == ancestor {
                    return s.name == name;
                }
                up = self.spans[p].parent;
            }
            false
        })
    }

    /// CPU seconds of that span (0 when absent: the stage did not run).
    pub fn cpu_s_in(&self, ancestor: usize, name: &str) -> f64 {
        self.find_in(ancestor, name).map_or(0.0, Span::cpu_s)
    }

    /// A span's CPU time minus the part of it its children cover: the union
    /// of the interval children (clipped to the parent) plus the totals of
    /// the aggregate children, never below zero.
    pub fn self_cpu_s(&self, id: usize) -> f64 {
        let p = &self.spans[id];
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        let mut covered = 0u64;
        for c in self.spans.iter().filter(|c| c.parent == Some(id)) {
            if c.aggregate {
                covered += c.cpu_end - c.cpu_start;
            } else {
                let (s, e) = (c.cpu_start.max(p.cpu_start), c.cpu_end.min(p.cpu_end));
                if s < e {
                    intervals.push((s, e));
                }
            }
        }
        intervals.sort_unstable();
        let mut reach = 0u64;
        for (s, e) in intervals {
            let s = s.max(reach);
            if s < e {
                covered += e - s;
                reach = e;
            }
        }
        (p.cpu_end - p.cpu_start).saturating_sub(covered) as f64 * 1e-9
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"workload\":\"{}\",\"repetition\":{},\"id\":{id},\"parent\":{parent},\
                 \"name\":\"{}\",\"cpu_start_ns\":{},\"cpu_end_ns\":{},\"wall_start_ns\":{},\
                 \"wall_end_ns\":{},\"count\":{},\"aggregate\":{}}}\n",
                self.workload,
                self.repetition,
                s.name,
                s.cpu_start,
                s.cpu_end,
                s.wall_start,
                s.wall_end,
                s.count,
                s.aggregate
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed CPU intervals (the clocks are bypassed).
    fn fixture() -> Recorder {
        let mut r = Recorder::new("w", 0);
        let span = |name: &str, parent, s, e| Span {
            name: name.to_string(),
            parent,
            cpu_start: s,
            cpu_end: e,
            wall_start: s,
            wall_end: e,
            count: 1,
            aggregate: false,
        };
        r.spans.push(span("parent", None, 1_000, 11_000));
        r.spans.push(span("a", Some(0), 2_000, 5_000));
        // Overlaps `a` by 1 000 ns and sticks 2 000 ns out of the parent.
        r.spans.push(span("b", Some(0), 4_000, 13_000));
        // A grandchild is its parent's business, not the grandparent's.
        r.spans.push(span("a.inner", Some(1), 2_500, 3_000));
        r
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let mut r = fixture();
        // Children cover [2000, 11000) = 9 000 of the parent's 10 000 ns.
        assert!((r.self_cpu_s(0) - 1_000e-9).abs() < 1e-15);
        assert!((r.self_cpu_s(1) - 2_500e-9).abs() < 1e-15);
        // An aggregate child subtracts its total wherever its calls fell.
        r.aggregate(0, "callbacks", 40, 600);
        assert!((r.self_cpu_s(0) - 400e-9).abs() < 1e-15);
        // Children can never push self time below zero.
        r.aggregate(0, "overcount", 1, 5_000);
        assert_eq!(r.self_cpu_s(0), 0.0);
    }

    #[test]
    fn live_spans_nest_and_serialise() {
        let mut r = Recorder::new("torus_light", 3);
        let outer = r.open("outer");
        let x = r.span("inner", || 41 + 1);
        assert_eq!(x, 42);
        r.close(outer);
        assert_eq!(r.get(1).parent, Some(outer));
        assert_eq!(r.find_in(outer, "inner").map(|s| s.count), Some(1));
        assert!(r.find_in(1, "inner").is_none() && r.find_in(outer, "absent").is_none());
        assert_eq!(r.cpu_s_in(outer, "absent"), 0.0);
        assert!(r.get(outer).cpu_end >= r.get(1).cpu_end);
        let jsonl = r.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let v = serde_json::parse_value(line).expect("span line is JSON");
            assert!(
                matches!(v.get("workload"), Some(serde_json::Value::Str(s)) if s == "torus_light")
            );
            assert!(matches!(
                v.get("repetition"),
                Some(serde_json::Value::U64(3))
            ));
        }
    }
}
