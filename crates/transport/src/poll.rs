//! Minimal `poll(2)` wrapper for the reactor transport.
//!
//! The offline dependency set carries neither `mio` nor the `libc` crate, so
//! the readiness loop binds the one syscall it needs directly: `poll` is in
//! POSIX libc, which the Rust standard library already links on every unix
//! target. The wrapper stays deliberately tiny — a `#[repr(C)]` pollfd, the
//! event bit constants, and an EINTR-retrying safe call — and is the only
//! unsafe code in the crate.
//!
//! `poll` counts its timeout in milliseconds, and a node's loop sleeps until
//! its next timer deadline, which for the batching hold-down is 200 µs away.
//! On 64-bit Linux the call is therefore `ppoll(2)`, whose timeout is a
//! `timespec`; elsewhere it stays `poll` with the timeout rounded up to a
//! whole millisecond (timers then fire late, never early).
//!
//! No other thread ever wakes a poll: the loop sleeps at most a
//! millisecond ([`crate::runtime::Node::idle_for`]) and reads its inbox,
//! where shutdown waits, on every pass.

use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable readiness (or a readable hangup payload).
pub const POLLIN: i16 = 0x001;
/// Writable readiness.
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// The fd is invalid (revents only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of the poll set, layout-compatible with C's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Returned events, filled by the kernel.
    pub revents: i16,
}

impl PollFd {
    /// A poll entry watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any of `mask`'s bits came back in `revents`.
    pub fn returned(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Whether the kernel flagged the fd as broken (error, hangup, or
    /// invalid) — the connection should be torn down.
    pub fn broken(&self) -> bool {
        self.returned(POLLERR | POLLHUP | POLLNVAL)
    }
}

/// One `poll` call with the timeout at the resolution the platform has.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn sys_poll(fds: &mut [PollFd], timeout: Option<Duration>) -> std::ffi::c_int {
    /// C's `struct timespec` where `time_t` and `long` are both 64 bits.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        // Linux: int ppoll(struct pollfd *fds, nfds_t nfds,
        //                  const struct timespec *tmo_p, const sigset_t *sigmask);
        // nfds_t is unsigned long. A null `sigmask` leaves the signal mask
        // alone, which makes this `poll` with a finer timeout.
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> std::ffi::c_int;
    }
    let ts = timeout.map(|t| Timespec {
        tv_sec: i64::try_from(t.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(t.subsec_nanos()),
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |ts| ts as *const Timespec);
    // SAFETY: `fds` is a valid, exclusively borrowed slice of `#[repr(C)]`
    // pollfd-layout entries and the length is its true length; the kernel
    // only writes `revents` within the slice. `ts_ptr` is null (no timeout)
    // or points at `ts`, which outlives the call and has the layout of this
    // target's `struct timespec`; the null signal mask is allowed.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            ts_ptr,
            std::ptr::null(),
        )
    }
}

/// One `poll` call with the timeout at the resolution the platform has.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn sys_poll(fds: &mut [PollFd], timeout: Option<Duration>) -> std::ffi::c_int {
    extern "C" {
        // POSIX: int poll(struct pollfd *fds, nfds_t nfds, int timeout);
        // nfds_t is unsigned long on the targets we build for.
        fn poll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }
    let timeout_ms: std::ffi::c_int = match timeout {
        // Whole milliseconds, rounded up: never return before the timeout.
        Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as std::ffi::c_int,
        None => -1,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed slice of `#[repr(C)]`
    // pollfd-layout entries and the length is its true length; the kernel
    // only writes `revents` within the slice.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) }
}

/// Blocks until at least one entry is ready or `timeout` elapses. Returns
/// the number of entries with nonzero `revents` (0 on timeout). `EINTR` is
/// retried internally; any other error is returned.
pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    loop {
        let rc = sys_poll(fds, timeout);
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            continue;
        }
        return Err(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    /// A listener nobody connects to: an fd that never polls ready.
    fn idle() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").unwrap()
    }

    #[test]
    fn poll_times_out_with_nothing_ready() {
        let idle = idle();
        let mut fds = [PollFd::new(idle.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].returned(POLLIN));
    }

    /// The batching hold-down is 200 µs; rounded up to `poll`'s millisecond
    /// it would be five times that.
    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn a_sub_millisecond_timeout_is_kept() {
        let idle = idle();
        let timeout = Duration::from_micros(200);
        let mut took: Vec<Duration> = (0..200)
            .map(|_| {
                let mut fds = [PollFd::new(idle.as_raw_fd(), POLLIN)];
                let start = std::time::Instant::now();
                assert_eq!(poll_fds(&mut fds, Some(timeout)).unwrap(), 0);
                start.elapsed()
            })
            .collect();
        took.sort();
        assert!(took[0] >= timeout, "returned early: {:?}", took[0]);
        let median = took[took.len() / 2];
        assert!(
            median < Duration::from_micros(700),
            "a 200 µs timeout took {median:?} (median of 200)"
        );
    }

    #[test]
    fn pollout_reports_writable_socket_and_pollin_tracks_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let (server, _) = listener.accept().unwrap();

        // A fresh socket with an empty send buffer is writable, not readable.
        let mut fds = [PollFd::new(client.as_raw_fd(), POLLIN | POLLOUT)];
        poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(fds[0].returned(POLLOUT));
        assert!(!fds[0].returned(POLLIN));

        // After the server sends, the client polls readable.
        use std::io::Write as _;
        (&server).write_all(b"x").unwrap();
        let mut fds = [PollFd::new(client.as_raw_fd(), POLLIN)];
        poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(fds[0].returned(POLLIN));

        // A hangup on the peer is surfaced via revents.
        drop(server);
        let mut fds = [PollFd::new(client.as_raw_fd(), POLLIN)];
        poll_fds(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(fds[0].returned(POLLIN) || fds[0].broken());
    }
}
