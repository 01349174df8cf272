//! Spans, self-time arithmetic, and the per-node recorder the decorators in
//! [`crate::traced`] write into.
//!
//! Totals are kept for every event; full spans are kept for the first
//! [`SPAN_CAP`] per recorder, which is what the trace file and the
//! per-kind medians are built from, and bounds memory at any throughput.

use crate::json::Json;
use paxi_core::id::{NodeId, RequestId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans retained per recorder.
pub const SPAN_CAP: usize = 16_384;
/// One outgoing message in this many is cloned for codec replay.
pub const SAMPLE_EVERY: u64 = 64;
/// Cloned messages retained per recorder.
pub const SAMPLE_CAP: usize = 2_048;

/// "No parent": a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval. `parent` indexes the same recorder's span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What ran: `on_request`, `on_message`, `on_timer`, `send`, `reply`,
    /// `append`, `sync`, `request` (a client's round trip), …
    pub name: &'static str,
    /// Message kind (`p2a`, `append_entries`, …) or `""`.
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The client request this span serves, when the boundary shows it.
    pub req: Option<RequestId>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of `[start, end)`: its length minus the part its children
/// cover. Children may nest, overlap each other, or poke outside the
/// parent; each instant is subtracted at most once. Sorts `children`.
pub fn self_time_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = start;
    for &(s, e) in children.iter() {
        let s = s.max(frontier);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            frontier = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Self time of every span in one recorder's list (children found through
/// `parent`).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| self_time_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Running totals for one `(name, kind)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The clock and on/off switch every recorder of one run shares.
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
    recording: AtomicBool,
}

impl Clock {
    pub fn new() -> Arc<Clock> {
        Arc::new(Clock {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
        })
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Recording is off during warm-up, so totals cover the measured window.
    pub fn set_recording(&self, on: bool) {
        // Relaxed: a statistic's gate, it publishes no other data.
        self.recording.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }
}

/// Everything recorded on one node (or by one client thread). The replica
/// decorator, its context decorator and the storage decorator of a node all
/// run on that node's thread and share one recorder, so a storage call made
/// inside a handler is that handler's child span; the mutex around it is
/// never contended and only makes the handle `Send`.
#[derive(Debug)]
pub struct Recorder<M> {
    pub node: NodeId,
    pub totals: Vec<((&'static str, &'static str), Total)>,
    pub spans: Vec<Span>,
    /// Outgoing messages by kind: `[calls, recipients, commands carried]`.
    pub sent: Vec<(&'static str, [u64; 3])>,
    pub samples: Vec<M>,
    /// Replies with `ok` passed to `Context::reply`: commits this node
    /// answered.
    pub ok_replies: u64,
    /// Bytes handed to `Storage::append`.
    pub appended_bytes: u64,
    sends_seen: u64,
    /// The handler now running, if any: its retained slot (or [`ROOT`]).
    open: Option<u32>,
    open_start_ns: u64,
    open_name: (&'static str, &'static str),
    /// Intervals of the open handler's children.
    children: Vec<(u64, u64)>,
}

pub type Shared<M> = Arc<Mutex<Recorder<M>>>;

/// Locks a shared recorder. A poisoned lock means a node thread panicked
/// mid-update; the run is already lost, the counters are still readable.
pub fn lock<M>(shared: &Shared<M>) -> std::sync::MutexGuard<'_, Recorder<M>> {
    shared.lock().unwrap_or_else(|e| e.into_inner())
}

impl<M> Recorder<M> {
    pub fn new(node: NodeId) -> Self {
        Recorder {
            node,
            totals: Vec::new(),
            spans: Vec::new(),
            sent: Vec::new(),
            samples: Vec::new(),
            ok_replies: 0,
            appended_bytes: 0,
            sends_seen: 0,
            open: None,
            open_start_ns: 0,
            open_name: ("", ""),
            children: Vec::new(),
        }
    }

    pub fn shared(node: NodeId) -> Shared<M> {
        Arc::new(Mutex::new(Recorder::new(node)))
    }

    fn add_total(&mut self, span: &Span, self_ns: u64) {
        let key = (span.name, span.kind);
        // A handful of kinds per node: a scan beats hashing two pointers.
        let slot = match self.totals.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.totals.push((key, Total::default()));
                self.totals.len() - 1
            }
        };
        let t = &mut self.totals[slot].1;
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }

    fn retain(&mut self, span: Span) -> u32 {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
            (self.spans.len() - 1) as u32
        } else {
            ROOT
        }
    }

    /// Opens a handler span; until [`Recorder::end`], every
    /// [`Recorder::leaf`] is its child.
    pub fn begin(
        &mut self,
        name: &'static str,
        kind: &'static str,
        start_ns: u64,
        req: Option<RequestId>,
    ) {
        let slot = self.retain(Span {
            name,
            kind,
            start_ns,
            end_ns: start_ns,
            parent: ROOT,
            req,
        });
        self.open = Some(slot);
        self.open_start_ns = start_ns;
        self.open_name = (name, kind);
        self.children.clear();
    }

    /// Closes the open handler span: its self time is its duration minus
    /// what its children covered.
    pub fn end(&mut self, end_ns: u64) {
        let Some(slot) = self.open.take() else { return };
        let start_ns = self.open_start_ns;
        let self_ns = self_time_ns(start_ns, end_ns, &mut self.children);
        let (name, kind) = self.open_name;
        self.add_total(
            &Span {
                name,
                kind,
                start_ns,
                end_ns,
                parent: ROOT,
                req: None,
            },
            self_ns,
        );
        if let Some(span) = self.spans.get_mut(slot as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Records a span with no children of its own: a child of the open
    /// handler if there is one (retained only when its parent was), else a
    /// top-level span.
    pub fn leaf(
        &mut self,
        name: &'static str,
        kind: &'static str,
        start_ns: u64,
        end_ns: u64,
        req: Option<RequestId>,
    ) {
        let parent = self.open.unwrap_or(ROOT);
        let span = Span {
            name,
            kind,
            start_ns,
            end_ns,
            parent,
            req,
        };
        self.add_total(&span, span.duration_ns());
        if self.open.is_some() {
            self.children.push((start_ns, end_ns));
        }
        if self.open.is_none() || parent != ROOT {
            self.retain(span);
        }
    }

    /// Counts one outgoing message and reports whether to clone it as a
    /// codec sample.
    pub fn count_sent(&mut self, kind: &'static str, recipients: u64, cmds: u64) -> bool {
        let slot = match self.sent.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                self.sent.push((kind, [0; 3]));
                self.sent.len() - 1
            }
        };
        let c = &mut self.sent[slot].1;
        c[0] += 1;
        c[1] += recipients;
        c[2] += cmds;
        self.sends_seen += 1;
        self.sends_seen % SAMPLE_EVERY == 1 && self.samples.len() < SAMPLE_CAP
    }

    /// Sum over every kind of one span name.
    pub fn total_of(&self, name: &str) -> Total {
        self.totals
            .iter()
            .filter(|((n, _), _)| *n == name)
            .fold(Total::default(), |a, (_, t)| Total {
                count: a.count + t.count,
                total_ns: a.total_ns + t.total_ns,
                self_ns: a.self_ns + t.self_ns,
            })
    }

    /// Durations of the retained spans of one name (any kind if `kind` is
    /// `None`), ascending.
    pub fn durations_ns(&self, name: &str, kind: Option<&str>) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && kind.is_none_or(|k| s.kind == k))
            .map(Span::duration_ns)
            .collect();
        d.sort_unstable();
        d
    }
}

/// What a traced run hands its factories: the shared clock, and a registry
/// of the recorders it gave out so the run can read them back afterwards.
pub struct Kit<M> {
    pub clock: Arc<Clock>,
    handed_out: Mutex<Vec<Shared<M>>>,
}

impl<M> Kit<M> {
    pub fn new(clock: Arc<Clock>) -> Arc<Self> {
        Arc::new(Kit {
            clock,
            handed_out: Mutex::new(Vec::new()),
        })
    }

    /// A fresh recorder for `node`, remembered for [`Kit::take`].
    pub fn recorder(&self, node: NodeId) -> Shared<M> {
        let rec = Recorder::shared(node);
        self.handed_out
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&rec));
        rec
    }

    /// Everything recorded, in node order; call once the decorators are
    /// done (cluster stopped, simulator finished). Empties the recorders.
    pub fn take(&self) -> Vec<Recorder<M>> {
        let handles =
            std::mem::take(&mut *self.handed_out.lock().unwrap_or_else(|e| e.into_inner()));
        let mut all: Vec<Recorder<M>> = handles
            .iter()
            .map(|h| {
                let mut guard = lock(h);
                let node = guard.node;
                std::mem::replace(&mut *guard, Recorder::new(node))
            })
            .collect();
        all.sort_by_key(|r| r.node);
        all
    }
}

/// The trace file: every retained span of every source (a node's recorder,
/// a client's), with self times. `parent` and `id` index the one `spans`
/// list.
pub fn trace_json(workload: &str, sources: &[(String, &[Span])]) -> Json {
    let mut out = Vec::new();
    for (source, spans) in sources {
        let base = out.len();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let parent = match s.parent {
                ROOT => Json::Null,
                p => Json::Num((base + p as usize) as f64),
            };
            out.push(Json::obj([
                ("id", Json::Num(out.len() as f64)),
                ("source", Json::str(source.as_str())),
                ("name", Json::str(s.name)),
                ("kind", Json::str(s.kind)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", parent),
                (
                    "req",
                    s.req.map_or(Json::Null, |q| {
                        Json::str(format!("{}.{}", q.client.0, q.seq))
                    }),
                ),
                ("self_ns", Json::Num(self_ns as f64)),
            ]));
        }
    }
    Json::obj([
        ("workload", Json::str(workload)),
        ("span_cap_per_source", Json::Num(SPAN_CAP as f64)),
        ("spans", Json::Arr(out)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns(10, 110, &mut []), 100);
        assert_eq!(self_time_ns(10, 10, &mut []), 0);
    }

    #[test]
    fn sequential_children_subtract_their_sum() {
        assert_eq!(self_time_ns(0, 100, &mut [(10, 20), (30, 60)]), 60);
        // Order of arrival does not matter.
        assert_eq!(self_time_ns(0, 100, &mut [(30, 60), (10, 20)]), 60);
    }

    #[test]
    fn overlapping_and_nested_children_count_each_instant_once() {
        // (10,50) and (30,70) cover 10..70; (35,40) is nested in both.
        assert_eq!(
            self_time_ns(0, 100, &mut [(10, 50), (30, 70), (35, 40)]),
            40
        );
        // Identical children.
        assert_eq!(self_time_ns(0, 100, &mut [(20, 40), (20, 40)]), 80);
        // A child that covers the whole parent, plus one inside it.
        assert_eq!(self_time_ns(0, 100, &mut [(0, 100), (10, 20)]), 0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_ns(50, 100, &mut [(0, 60), (90, 500)]), 30);
        assert_eq!(self_time_ns(50, 100, &mut [(0, 10), (200, 300)]), 50);
        // Inverted and empty intervals cover nothing.
        assert_eq!(self_time_ns(0, 100, &mut [(40, 40), (70, 60)]), 100);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            kind: "",
            start_ns,
            end_ns,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_times_follow_parent_links_one_level_at_a_time() {
        // handler 0..100 with children send 10..30 and append 40..90; the
        // append has its own child sync 50..80, which must not be charged to
        // the handler twice.
        let spans = [
            span("on_message", 0, 100, ROOT),
            span("send", 10, 30, 0),
            span("append", 40, 90, 0),
            span("sync", 50, 80, 2),
            span("on_timer", 200, 210, ROOT),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 30, 10]);
    }

    #[test]
    fn recorder_totals_keep_counting_past_the_span_cap() {
        let mut r: Recorder<()> = Recorder::new(NodeId::new(0, 0));
        let n = SPAN_CAP as u64 + 10;
        for i in 0..n {
            r.leaf("tick", "", i * 10, i * 10 + 4, None);
        }
        assert_eq!(r.spans.len(), SPAN_CAP);
        let t = r.total_of("tick");
        assert_eq!((t.count, t.total_ns, t.self_ns), (n, 4 * n, 4 * n));
        assert_eq!(
            crate::stats::percentile(&r.durations_ns("tick", None), 0.5),
            Some(4)
        );
        assert!(r.durations_ns("tick", Some("p2a")).is_empty());
    }

    #[test]
    fn handler_self_time_excludes_context_and_storage_children() {
        let mut r: Recorder<()> = Recorder::new(NodeId::new(0, 1));
        r.leaf("recover", "", 0, 5, None); // before any handler: top level
        r.begin("on_message", "p2a", 100, None);
        r.leaf("append", "", 110, 150, None);
        r.leaf("sync", "", 150, 180, None);
        r.leaf("send", "p2b", 185, 195, None);
        r.end(200);
        assert_eq!(
            r.total_of("on_message"),
            Total {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            r.total_of("send"),
            Total {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        let parents: Vec<u32> = r.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![ROOT, ROOT, 1, 1, 1]);
        assert_eq!(r.spans[1].end_ns, 200);
        assert_eq!(self_times(&r.spans), vec![5, 20, 40, 30, 10]);
        // `end` without `begin` is ignored.
        r.end(300);
        assert_eq!(r.total_of("on_message").count, 1);
    }

    #[test]
    fn one_in_sixty_four_sends_is_sampled() {
        let mut r: Recorder<()> = Recorder::new(NodeId::new(0, 0));
        let picked = (0..640).filter(|_| r.count_sent("p2a", 2, 16)).count();
        assert_eq!(picked, 10);
        assert_eq!(r.sent, vec![("p2a", [640, 1280, 10_240])]);
    }
}
