//! Resident-set readings from `/proc/self/status`.

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    read_status_field("VmHWM:")
}

/// Current resident set (`VmRSS`) of this process, MiB.
pub fn rss_mb() -> f64 {
    read_status_field("VmRSS:")
}

fn read_status_field(field: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_kb(&status, field)
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// The value in kB of one `Name:   1234 kB` line of a `/proc/<pid>/status`
/// text.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let mut parts = line[field.len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_status_fields() {
        let status = "Name:\tdtc-evalbench\nVmPeak:\t  912344 kB\nVmHWM:\t   40960 kB\n\
                      VmRSS:\t   20480 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(40960));
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
        assert_eq!(parse_status_kb("VmHWM:\tlots kB\n", "VmHWM:"), None);
        assert_eq!(parse_status_kb("VmHWM:\t12 pages\n", "VmHWM:"), None);
    }

    #[test]
    fn peak_covers_an_allocation_and_never_shrinks() {
        let before = peak_rss_mb();
        assert!(before > 0.0 && before >= rss_mb() - 1.0);
        // Touch 64 MiB so it becomes resident.
        let block = vec![1u8; 64 << 20];
        assert_eq!(block.iter().map(|&b| b as usize).sum::<usize>(), 64 << 20);
        let during = peak_rss_mb();
        drop(block);
        assert!(during >= before + 60.0, "peak {before} -> {during}");
        // The kernel folds per-thread RSS counts in lazily, so allow a
        // little slack; a drop of the 64 MiB just freed would exceed it.
        assert!(peak_rss_mb() >= during - 8.0);
    }
}
