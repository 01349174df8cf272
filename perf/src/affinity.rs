//! Pinning the process to one core.
//!
//! Three of the four workloads have, at any instant, one runnable thread on
//! a commit's blocking chain (a window of one, a single-threaded simulator).
//! Left alone, the scheduler spreads the threads of such a chain over both
//! cores or keeps them on one as it pleases, and on this virtual machine a
//! wake-up that crosses cores costs an inter-processor interrupt: the same
//! build measured 5 800 or 9 600 ops/s, 220 or 105 µs of CPU per operation,
//! depending on placement alone. Pinned, the chain runs in its fast
//! placement every time. `tcp-paxos-saturated` is the workload that is meant
//! to use two cores, and is not pinned.

/// Restricts this process (threads started from now on inherit it) to the
/// highest-numbered core it may run on, and returns that core; `None` when
/// the platform has no such call or refuses. The highest core, because
/// device interrupts land on core 0 by default.
pub fn pin_to_one_core() -> Option<usize> {
    imp::pin_to_one_core()
}

#[cfg(target_os = "linux")]
mod imp {
    /// glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin_to_one_core() -> Option<usize> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread; the call writes at most
        // that many bytes and keeps no pointer.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
            return None;
        }
        let (word, bits) = allowed
            .iter()
            .enumerate()
            .rev()
            .find(|(_, bits)| **bits != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut only: CpuSet = [0; 16];
        only[word] = 1 << bit;
        // SAFETY: `only` is a live buffer of exactly the size passed, read
        // during the call only; it names one core the process may already
        // run on.
        if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_one_core() -> Option<usize> {
        None
    }
}
