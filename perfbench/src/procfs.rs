//! Process facts read from `/proc/self`: CPU seconds and peak resident
//! memory. No dependency beyond the standard library.

/// Kernel clock ticks per second behind `/proc/self/stat` times
/// (`USER_HZ`, 100 on every Linux ABI this runs on).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted after its closing `)`: utime and stime are fields 14 and
/// 15 of the line, the 12th and 13th after the name.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb as f64 / 1024.0)
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_cpu_seconds)
        .expect("/proc/self/stat has utime and stime")
}

/// Peak resident memory of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_mb)
        .expect("/proc/self/status has VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_skip_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (perf (bench) x) R 1 4242 4242 0 -1 4194304 123 0 0 0 \
                    250 75 0 0 20 0 3 0 99 1000 200";
        assert_eq!(parse_cpu_seconds(stat), Some(3.25));
    }

    #[test]
    fn cpu_seconds_reject_truncated_lines() {
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  30000 kB\nVmHWM:\t   14336 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(14.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 9000 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 9000 MB\n"), None);
    }

    #[test]
    fn this_process_reports_both() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
