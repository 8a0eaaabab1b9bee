//! Process-level resource introspection.
//!
//! The scaling benches (X16) gate on *peak* memory, which no in-process
//! allocator counter captures once buffers have been freed — the kernel's
//! high-water mark is the ground truth. On Linux it is `VmHWM` in
//! `/proc/self/status`; elsewhere the probes return 0 and callers treat the
//! measurement as unavailable.

/// Peak resident set size of the current process in KiB (`VmHWM`),
/// or 0 when the platform exposes no such counter.
pub fn peak_rss_kb() -> u64 {
    rss_kb().0
}

/// Current resident set size of the current process in KiB (`VmRSS`),
/// or 0 when unavailable.
pub fn current_rss_kb() -> u64 {
    rss_kb().1
}

/// `(peak, current)` resident set size in KiB, both taken from one read
/// of `/proc/self/status` — so `peak >= current` holds even while other
/// threads allocate, which two separate reads cannot promise. `(0, 0)`
/// when unavailable.
pub fn rss_kb() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    (status_kb(&status, "VmHWM:"), status_kb(&status, "VmRSS:"))
}

fn status_kb(status: &str, key: &str) -> u64 {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn linux_reports_nonzero_rss() {
        assert!(peak_rss_kb() > 0);
        assert!(current_rss_kb() > 0);
        // The high-water mark can never be below the current level — as
        // long as both come from one read: sibling tests allocate between
        // two separate reads.
        let (peak, current) = rss_kb();
        assert!(peak >= current, "VmHWM {peak} < VmRSS {current}");
    }

    #[test]
    fn growth_is_observed_in_peak() {
        let before = peak_rss_kb();
        // Touch ~32 MiB so the high-water mark must move on any platform
        // that reports one.
        let block: Vec<u8> = (0..32 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
        let after = peak_rss_kb();
        assert!(block.iter().map(|&b| b as u64).sum::<u64>() > 0);
        if before > 0 {
            assert!(after >= before);
        }
    }
}
