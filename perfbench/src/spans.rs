//! Benchmark-owned spans around the calls the benchmark makes into each
//! layer, on both clocks. They stay in memory and are written out when
//! the run ends.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cloudprov_sim::{Sim, SimTime};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Id, unique within one recorder.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// `layer.call`, e.g. `fs.close`.
    pub name: &'static str,
    /// Wall-clock start, since the recorder was made.
    pub host_start: Duration,
    /// Wall-clock end.
    pub host_end: Duration,
    /// The calling thread's CPU clock at the start. Parent and child
    /// spans run on one thread, so their CPU intervals nest.
    pub cpu_start: Duration,
    /// The thread's CPU clock at the end.
    pub cpu_end: Duration,
    /// Virtual start.
    pub v_start: SimTime,
    /// Virtual end.
    pub v_end: SimTime,
}

impl Span {
    /// CPU the span's thread used inside it.
    pub fn cpu(&self) -> Duration {
        self.cpu_end.saturating_sub(self.cpu_start)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span; hand it back to [`Spans::end`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    host_start: Duration,
    cpu_start: Duration,
    v_start: SimTime,
}

impl Open {
    /// The id children name as their parent.
    pub fn id(&self) -> Option<u64> {
        Some(self.id)
    }
}

#[derive(Default)]
struct Inner {
    next: u64,
    done: Vec<Span>,
}

/// A span recorder; a disabled one records nothing.
#[derive(Clone)]
pub struct Spans {
    epoch: Instant,
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Spans {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            inner: enabled.then(|| Arc::new(Mutex::new(Inner::default()))),
        }
    }

    /// Opens a span (or nothing, when disabled).
    pub fn start(&self, sim: &Sim, parent: Option<u64>, name: &'static str) -> Option<Open> {
        let inner = self.inner.as_ref()?;
        let id = {
            let mut g = inner.lock().expect("span recorder lock poisoned");
            g.next += 1;
            g.next
        };
        Some(Open {
            id,
            parent,
            name,
            host_start: self.epoch.elapsed(),
            cpu_start: crate::host::thread_cpu(),
            v_start: sim.now(),
        })
    }

    /// Closes a span.
    pub fn end(&self, sim: &Sim, open: Option<Open>) {
        let (Some(inner), Some(o)) = (&self.inner, open) else {
            return;
        };
        let span = Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            host_start: o.host_start,
            host_end: self.epoch.elapsed(),
            cpu_start: o.cpu_start,
            cpu_end: crate::host::thread_cpu(),
            v_start: o.v_start,
            v_end: sim.now(),
        };
        inner
            .lock()
            .expect("span recorder lock poisoned")
            .done
            .push(span);
    }

    /// Runs `f` inside a span.
    pub fn wrap<T>(
        &self,
        sim: &Sim,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.start(sim, parent, name);
        let out = f();
        self.end(sim, open);
        out
    }

    /// Every closed span, in id order.
    pub fn collected(&self) -> Vec<Span> {
        let mut v = self
            .inner
            .as_ref()
            .map(|i| i.lock().expect("span recorder lock poisoned").done.clone())
            .unwrap_or_default();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Host CPU each layer spent in its own spans: a span's CPU interval
/// minus the part of it its child spans cover, summed per layer.
pub fn self_cpu_by_layer(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.cpu_start, s.cpu_end));
        }
    }
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(Duration::ZERO, |c| union_within(c, s.cpu_start, s.cpu_end));
        *out.entry(s.layer()).or_default() += s.cpu().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    let mut v: Vec<(Duration, Duration)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// The spans as JSON lines: one object per span, times in nanoseconds.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"host_start_ns\": {}, \"host_end_ns\": {}, \"cpu_ns\": {}, \"virtual_start_ns\": {}, \"virtual_end_ns\": {}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.host_start.as_nanos(),
            s.host_end.as_nanos(),
            s.cpu().as_nanos(),
            (s.v_start.as_secs_f64() * 1e9).round(),
            (s.v_end.as_secs_f64() * 1e9).round(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            host_start: ms(a),
            host_end: ms(b),
            cpu_start: ms(a),
            cpu_end: ms(b),
            v_start: SimTime::ZERO,
            v_end: SimTime::ZERO,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // A 10 ms fleet span whose two overlapping children cover 2..6
        // and one child sticking out past its end.
        let spans = vec![
            span(1, None, "fleet.client", 0, 10),
            span(2, Some(1), "fs.close", 2, 5),
            span(3, Some(1), "fs.close", 4, 6),
            span(4, Some(1), "core.sync", 9, 12),
        ];
        let by = self_cpu_by_layer(&spans);
        assert_eq!(by["fleet"], ms(10 - 4 - 1));
        assert_eq!(by["fs"], ms(3 + 2));
        assert_eq!(by["core"], ms(3));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let sim = Sim::new();
        let off = Spans::new(false);
        assert_eq!(off.wrap(&sim, None, "fs.close", || 7), 7);
        assert!(off.collected().is_empty());
        let on = Spans::new(true);
        let root = on.start(&sim, None, "fleet.client");
        let parent = root.as_ref().and_then(Open::id);
        on.wrap(&sim, parent, "fs.close", || ());
        on.end(&sim, root);
        let got = on.collected();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].parent, Some(got[0].id));
        assert!(to_json_lines(&got).lines().count() == 2);
    }
}
