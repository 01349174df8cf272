//! Closed-loop load generation, as in Paxi's own benchmarker (paper
//! Table 3): every client keeps `window` requests outstanding and sends the
//! next only when the oldest has been answered, so a slower system is
//! offered less load. Keys are uniform over `keys`; the command stream is a
//! function of the seed alone.

use crate::trace::{lock, Clock, Shared};
use paxi_core::command::{ClientResponse, Command};
use paxi_core::dist::Rng64;
use paxi_core::id::{ClientId, RequestId};
use paxi_core::time::Nanos;
use paxi_sim::OpRecord;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Operations on keys below this are kept as history for the
/// linearizability check (a tenth of the Table 3 key space).
pub const HISTORY_KEYS: u64 = 100;

/// One client connection: `submit` sends without waiting, `wait` blocks for
/// that request's reply (`None` on timeout or a broken connection).
pub trait Link {
    fn client(&self) -> ClientId;
    fn submit(&mut self, cmd: Command) -> Option<RequestId>;
    fn wait(&mut self, id: RequestId) -> Option<ClientResponse>;
}

/// A blocking client's one call: send a command, wait for its reply.
pub type Execute = Box<dyn FnMut(Command) -> Option<ClientResponse> + Send>;

/// Adapts a blocking `execute(cmd)` client to [`Link`]: the command is held
/// at `submit` and sent at `wait`, which is only right for a window of one
/// — and a blocking client cannot have more.
pub struct Blocking {
    client: ClientId,
    execute: Execute,
    held: Option<(RequestId, Command)>,
    seq: u64,
}

impl Blocking {
    pub fn new(client: ClientId, execute: Execute) -> Self {
        Blocking {
            client,
            execute,
            held: None,
            seq: 0,
        }
    }
}

impl Link for Blocking {
    fn client(&self) -> ClientId {
        self.client
    }
    fn submit(&mut self, cmd: Command) -> Option<RequestId> {
        assert!(self.held.is_none(), "a blocking client has a window of one");
        // A local ticket; the wrapped client numbers its own requests.
        let id = RequestId::new(self.client, self.seq);
        self.seq += 1;
        self.held = Some((id, cmd));
        Some(id)
    }
    fn wait(&mut self, id: RequestId) -> Option<ClientResponse> {
        let (held, cmd) = self.held.take()?;
        debug_assert_eq!(held, id);
        (self.execute)(cmd)
    }
}

/// What the clients send.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Key space (Table 3's K).
    pub keys: u64,
    /// Share of writes (Table 3's W).
    pub write_ratio: f64,
    /// Bytes per written value; at least 12, which hold the unique tag.
    pub value_len: usize,
    /// Requests each client keeps outstanding.
    pub window: usize,
}

/// A value no other write of the run carries: client, sequence number, then
/// filler. The linearizability check relies on the uniqueness.
pub fn unique_value(client: ClientId, seq: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len.max(12));
    v.extend_from_slice(&client.0.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.resize(len.max(12), 0xAB);
    v
}

/// The measured window is cut into slices this long (see `crate::quiet`).
pub const SLICE_NS: u64 = 250_000_000;

pub const WARMUP: u8 = 0;
pub const MEASURE: u8 = 1;
pub const STOP: u8 = 2;

/// State the coordinator and the client threads share.
pub struct RunState {
    phase: AtomicU8,
    /// Replies (ok or not) seen since the clients started, warm-up
    /// included, over all clients.
    replies: AtomicU64,
    /// `VmHWM` in kB when `replies` reached `rss_at`; 0 until then.
    rss_kb: AtomicU64,
    rss_at: u64,
    /// When the measured window began, on the run's clock.
    measure_start_ns: AtomicU64,
}

impl RunState {
    /// `rss_at`: how many replies in, the peak-memory sample is taken.
    /// Sampling at a fixed amount of work keeps a faster build (more replies
    /// per run, so more stored versions) from reading as a memory
    /// regression.
    pub fn new(rss_at: u64) -> Self {
        RunState {
            phase: AtomicU8::new(WARMUP),
            replies: AtomicU64::new(0),
            rss_kb: AtomicU64::new(0),
            rss_at,
            measure_start_ns: AtomicU64::new(0),
        }
    }

    // SeqCst: the phase orders what the coordinator reads from /proc against
    // what the clients count, so keep it simple and strong.
    pub fn set_phase(&self, phase: u8) {
        self.phase.store(phase, Ordering::SeqCst);
    }
    pub fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }

    /// Opens the measured window at `now_ns`.
    pub fn start_measuring(&self, now_ns: u64) {
        self.measure_start_ns.store(now_ns, Ordering::SeqCst);
        self.set_phase(MEASURE);
    }

    /// Peak RSS in MB at the fixed-work sample point, if it was reached.
    pub fn rss_sample_mb(&self) -> Option<f64> {
        match self.rss_kb.load(Ordering::SeqCst) {
            0 => None,
            kb => Some(kb as f64 / 1024.0),
        }
    }

    fn count_reply(&self) {
        // Relaxed: a statistic; the one thread that hits `rss_at` samples.
        if self.replies.fetch_add(1, Ordering::Relaxed) + 1 == self.rss_at {
            if let Some(mb) = crate::procfs::peak_rss_mb() {
                self.rss_kb.store((mb * 1024.0) as u64, Ordering::SeqCst);
            }
        }
    }
}

/// What one client thread saw.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Replies in the measured window, `ok` or not, plus timeouts.
    pub attempted: u64,
    pub ok: u64,
    /// One entry per ok reply in the window: the slice it arrived in and its
    /// submit-to-reply time.
    pub samples: Vec<Sample>,
    /// Every operation on a key below [`HISTORY_KEYS`], warm-up included (a
    /// measured read may return a warm-up write).
    pub history: Vec<OpRecord>,
}

/// An ok reply: which [`SLICE_NS`] slice of the window it arrived in, and
/// how long after its request was submitted (saturating at 4.29 s, beyond
/// the request timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub slice: u32,
    pub latency_ns: u32,
}

struct InFlight {
    id: RequestId,
    key: u64,
    is_write: bool,
    /// The written value, kept only for keys that enter the history.
    written: Option<Vec<u8>>,
    submitted_ns: u64,
}

/// Drives one connection until the coordinator says [`STOP`], then waits
/// for what is still outstanding. `spans`, when given, gets one `request`
/// span per reply (the traced pass).
pub fn run_client<L: Link>(
    mut link: L,
    spec: LoadSpec,
    seed: u64,
    state: &RunState,
    clock: &Clock,
    spans: Option<&Shared<()>>,
) -> ClientStats {
    let mut rng = Rng64::seed(seed);
    let mut stats = ClientStats::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(spec.window);
    let mut seq = 0u64;
    let client = link.client();
    loop {
        let stopping = state.phase() == STOP;
        while !stopping && inflight.len() < spec.window {
            let key = rng.below(spec.keys);
            let is_write = rng.chance(spec.write_ratio);
            let value = is_write.then(|| unique_value(client, seq, spec.value_len));
            seq += 1;
            let written = if key < HISTORY_KEYS {
                value.clone()
            } else {
                None
            };
            let cmd = match value {
                Some(v) => Command::put(key, v),
                None => Command::get(key),
            };
            let submitted_ns = clock.now_ns();
            let Some(id) = link.submit(cmd) else {
                // The connection is gone: everything outstanding has failed.
                if state.phase() == MEASURE {
                    stats.attempted += 1 + inflight.len() as u64;
                }
                return stats;
            };
            inflight.push_back(InFlight {
                id,
                key,
                is_write,
                written,
                submitted_ns,
            });
        }
        let Some(op) = inflight.pop_front() else {
            return stats;
        };
        let resp = link.wait(op.id);
        let now_ns = clock.now_ns();
        let ok = resp.as_ref().is_some_and(|r| r.ok);
        state.count_reply();
        if state.phase() == MEASURE {
            stats.attempted += 1;
            if ok {
                stats.ok += 1;
                let since_start = now_ns - state.measure_start_ns.load(Ordering::SeqCst);
                stats.samples.push(Sample {
                    slice: (since_start / SLICE_NS) as u32,
                    latency_ns: u32::try_from(now_ns - op.submitted_ns).unwrap_or(u32::MAX),
                });
            }
            if let Some(spans) = spans {
                lock(spans).leaf("request", "", op.submitted_ns, now_ns, Some(op.id));
            }
        }
        if op.key < HISTORY_KEYS {
            let read = (!op.is_write).then(|| resp.and_then(|r| r.value));
            stats.history.push(OpRecord {
                client,
                key: op.key,
                write: op.written,
                read,
                invoke: Nanos(op.submitted_ns),
                ret: Nanos(now_ns),
                ok,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_unique_per_client_and_sequence_and_sized() {
        let a = unique_value(ClientId(1), 7, 16);
        assert_eq!(a.len(), 16);
        assert_ne!(a, unique_value(ClientId(1), 8, 16));
        assert_ne!(a, unique_value(ClientId(2), 7, 16));
        assert_eq!(unique_value(ClientId(1), 7, 256).len(), 256);
        assert_eq!(unique_value(ClientId(1), 7, 0).len(), 12);
    }

    #[test]
    fn the_command_stream_is_a_function_of_the_seed() {
        // A link that answers at once, logs what it was asked, and stops the
        // run after 200 requests.
        struct Echo<'a>(&'a mut Vec<Command>, &'a RunState);
        impl Link for Echo<'_> {
            fn client(&self) -> ClientId {
                ClientId(9)
            }
            fn submit(&mut self, cmd: Command) -> Option<RequestId> {
                self.0.push(cmd);
                if self.0.len() == 200 {
                    self.1.set_phase(STOP);
                }
                Some(RequestId::new(ClientId(9), self.0.len() as u64))
            }
            fn wait(&mut self, id: RequestId) -> Option<ClientResponse> {
                Some(ClientResponse::ok(id, None))
            }
        }
        let spec = LoadSpec {
            keys: 1000,
            write_ratio: 0.5,
            value_len: 16,
            window: 4,
        };
        let stream = |seed| {
            let state = RunState::new(50);
            state.start_measuring(0);
            let mut cmds = Vec::new();
            let stats = run_client(
                Echo(&mut cmds, &state),
                spec,
                seed,
                &state,
                &Clock::new(),
                None,
            );
            (cmds, stats)
        };
        let (a, stats_a) = stream(5);
        let (b, _) = stream(5);
        let (c, _) = stream(6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 200);
        let writes = a.iter().filter(|c| c.is_write()).count();
        assert!((60..140).contains(&writes), "{writes} writes of 200");
        // Replies seen before STOP are counted; the drained tail is not.
        assert!(
            (190..=200).contains(&stats_a.attempted),
            "{}",
            stats_a.attempted
        );
        assert_eq!(stats_a.ok, stats_a.attempted);
        assert!(stats_a.history.iter().all(|op| op.key < HISTORY_KEYS));
    }
}
