//! In-memory spans recorded around calls into the workspace's layers.
//!
//! A disabled [`Tracer`] only calls the closure, so the untraced pass runs
//! the identical code with no clock reads and no allocation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the tracer (ids start at 1).
    pub id: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<u64>,
    /// Request identifier shared by every span of one operation.
    pub trace: u64,
    /// Layer call the span covers.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`. `f` receives the span's id to
    /// pass as the parent of nested spans (0 when disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        // Relaxed: the id is a unique label and publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now_ns();
        let value = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span list lock").push(Span {
            id,
            parent: parent.filter(|&p| p != 0),
            trace,
            name,
            start_ns: start,
            end_ns: end,
        });
        value
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut s = self.spans.lock().expect("span list lock").clone();
        s.sort_by_key(|sp| sp.id);
        s
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children
                .get_mut(&s.id)
                .map_or(0, |iv| covered_ns(s.start_ns, s.end_ns, iv));
            (s.id, s.duration_ns() - kids)
        })
        .collect()
}

/// Per span name: (span count, total self time in nanoseconds).
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own[&s.id];
    }
    by_name
}

/// Renders spans (with their self times) as a JSON document.
#[must_use]
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {parent}, \"trace\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{sep}",
            s.id, s.trace, s.name, s.start_ns, s.end_ns, own[&s.id]
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Overlapping children [10, 40) and [30, 60) cover 50 ns once.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            // A child nested in a covered child adds nothing new.
            span(4, Some(1), 35, 45),
            // A disjoint child.
            span(5, Some(1), 80, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50 - 10);
        assert_eq!(own[&2], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(1, None, 100, 200),
            span(2, Some(1), 50, 120),
            span(3, Some(1), 190, 260),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 20 - 10);
    }

    #[test]
    fn grandchildren_count_only_against_their_parent() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 50),
            span(3, Some(2), 0, 50),
        ];
        let own = self_times(&spans);
        assert_eq!((own[&1], own[&2], own[&3]), (50, 0, 50));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::new(true);
        t.span("outer", None, 9, |outer| {
            t.span("inner", Some(outer), 9, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.trace, 9);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["inner"].0, 1);
        assert!(to_json("w", 1, &spans).contains("\"name\": \"inner\""));
    }
}
