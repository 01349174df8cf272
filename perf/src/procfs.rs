//! Readers for `/proc/self/{stat,status,net/dev,task/*}`.
//!
//! Every reader returns `None` where the file is missing or does not parse
//! (another OS, a locked-down container): a counter the kernel will not give
//! is reported as absent, never as an error and never as zero.

use std::fs;

/// Clock ticks per second for `utime`/`stime`. Linux has fixed `USER_HZ` at
/// 100 on every architecture Rust targets; reading it would need libc.
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` of one `stat` line, in clock ticks, with the task's name.
pub fn parse_stat(text: &str) -> Option<(String, u64)> {
    // The name sits in parentheses and may itself hold spaces or ')'.
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let name = text.get(open + 1..close)?.to_string();
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut rest = text.get(close + 1..)?.split_ascii_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((name, utime.checked_add(stime)?))
}

/// Value of `key:` in a `key: value [unit]` listing (`io`, `status`).
pub fn parse_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.split_ascii_whitespace().next()?.parse().ok())?
    })
}

/// Process CPU time (user + system) so far, in seconds.
pub fn cpu_seconds() -> Option<f64> {
    let (_, ticks) = parse_stat(&fs::read_to_string("/proc/self/stat").ok()?)?;
    Some(ticks as f64 / TICKS_PER_SEC)
}

/// CPU seconds so far of the live threads whose name starts with `prefix`.
pub fn thread_cpu_seconds(prefix: &str) -> Option<f64> {
    let mut ticks = 0u64;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("stat");
        // A thread may exit between the listing and the read.
        let Some((name, t)) = fs::read_to_string(path).ok().and_then(|s| parse_stat(&s)) else {
            continue;
        };
        if name.starts_with(prefix) {
            ticks += t;
        }
    }
    Some(ticks as f64 / TICKS_PER_SEC)
}

/// Traffic the loopback interface has carried, from `net/dev`.
///
/// `/proc/self/io` would be the obvious source for "system calls and bytes
/// per operation", but it only counts `read`/`write`-family calls, and the
/// standard library moves socket data with `send`/`recv`; the loopback
/// counters see every segment whichever call produced it. They cover the
/// whole network namespace, which in the sandbox is this process alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loopback {
    /// Bytes transmitted, TCP/IP headers and pure ACKs included.
    pub bytes: u64,
    /// Packets transmitted: one per segment handed to the interface.
    pub packets: u64,
}

pub fn parse_loopback(text: &str) -> Option<Loopback> {
    let line = text
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("lo:"))?;
    // Eight receive columns, then transmit bytes and packets.
    let mut columns = line.split_ascii_whitespace().skip(8);
    Some(Loopback {
        bytes: columns.next()?.parse().ok()?,
        packets: columns.next()?.parse().ok()?,
    })
}

pub fn loopback() -> Option<Loopback> {
    parse_loopback(&fs::read_to_string("/proc/self/net/dev").ok()?)
}

/// Voluntary + involuntary context switches in one `status` listing.
pub fn parse_ctx_switches(text: &str) -> Option<u64> {
    parse_field(text, "voluntary_ctxt_switches")?
        .checked_add(parse_field(text, "nonvoluntary_ctxt_switches")?)
}

/// Context switches so far, summed over the live threads (`status` of the
/// process itself covers the main thread only).
pub fn ctx_switches() -> Option<u64> {
    let mut total = 0u64;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("status");
        if let Some(n) = fs::read_to_string(path)
            .ok()
            .and_then(|s| parse_ctx_switches(&s))
        {
            total += n;
        }
    }
    Some(total)
}

/// Peak resident set size so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb = parse_field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")?;
    Some(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (paxi-reactor-0) S 1 4242 4242 0 -1 4194560 \
        120 0 0 0 37 5 0 0 20 0 7 0 100 1000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_parses_name_and_cpu_ticks() {
        assert_eq!(parse_stat(STAT), Some(("paxi-reactor-0".to_string(), 42)));
        // A name holding spaces and a closing parenthesis.
        let odd = STAT.replace("(paxi-reactor-0)", "(a b) c)");
        assert_eq!(parse_stat(&odd), Some(("a b) c".to_string(), 42)));
    }

    #[test]
    fn stat_rejects_missing_and_garbled_input() {
        assert_eq!(parse_stat(""), None);
        assert_eq!(parse_stat("4242 (x) S 1 2 3"), None);
        assert_eq!(
            parse_stat("4242 x S 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15"),
            None
        );
        assert_eq!(parse_stat(&STAT.replace(" 37 5 ", " thirty 5 ")), None);
        assert_eq!(
            parse_stat(&STAT.replace(" 37 5 ", " 18446744073709551615 5 ")),
            None
        );
        assert_eq!(parse_stat(")("), None);
    }

    #[test]
    fn loopback_and_status_fields() {
        let dev = "Inter-|   Receive                            |  Transmit\n \
                   face |bytes    packets errs drop fifo frame compressed multicast|bytes packets\n    \
                   lo: 1000 10 0 0 0 0 0 0 2000 20 0 0 0 0 0 0\n  \
                   eth0: 1 1 0 0 0 0 0 0 2 2 0 0 0 0 0 0\n";
        assert_eq!(
            parse_loopback(dev),
            Some(Loopback {
                bytes: 2000,
                packets: 20
            })
        );
        assert_eq!(parse_loopback("  eth0: 1 1 0 0 0 0 0 0 2 2\n"), None);
        assert_eq!(parse_loopback("lo: 1 2 3\n"), None);
        assert_eq!(parse_loopback("lo: 1 1 0 0 0 0 0 0 many 2\n"), None);
        assert_eq!(parse_loopback(""), None);

        let status = "Name:\tpaxi-perf\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t9\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_field(status, "VmRSS"), None);
        assert_eq!(parse_ctx_switches(status), Some(12));
        assert_eq!(parse_ctx_switches("voluntary_ctxt_switches:\t9\n"), None);
        assert_eq!(parse_field("VmHWM\n: 3\nVmHWM: -1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn live_readers_agree_with_the_running_kernel_or_report_absent() {
        // On Linux these are present; elsewhere they must be None, not a panic.
        let present = std::path::Path::new("/proc/self/stat").exists();
        assert_eq!(cpu_seconds().is_some(), present);
        assert_eq!(peak_rss_mb().is_some(), present);
        assert_eq!(thread_cpu_seconds("no-such-thread-name").is_some(), present);
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
