//! A `/proc` reader with no dependencies: process CPU time, per-thread
//! CPU time grouped by thread name, and peak resident set size.
//!
//! Process CPU comes from `/proc/self/stat` (clock ticks, which also
//! cover threads that have already exited); per-thread CPU comes from
//! each task's `schedstat` (nanoseconds, live threads only).

use std::collections::BTreeMap;
use std::fs;

/// `USER_HZ`: the unit of the tick fields in `/proc/<pid>/stat`, fixed at
/// 100 by the kernel's user-space ABI.
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU ticks from the text of a `stat` file. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state(3) … utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in KiB from the text of a `status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Time spent on a CPU, in nanoseconds, from the text of a `schedstat`
/// file (`<run ns> <wait ns> <timeslices>`).
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Sum per-thread CPU nanoseconds by thread name.
pub fn group_by_name<'a>(
    threads: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (comm, schedstat) in threads {
        if let Some(ns) = parse_schedstat_ns(schedstat) {
            *out.entry(comm.trim().to_string()).or_insert(0) += ns;
        }
    }
    out
}

/// CPU time of the whole process (all threads, live or exited), in ms.
pub fn process_cpu_ms() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 * 1000.0 / TICKS_PER_SEC)
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// CPU time of the calling thread, in ms.
pub fn thread_cpu_ms() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat_ns(&s))
        .map_or(0.0, |ns| ns as f64 / 1e6)
}

/// CPU nanoseconds of every live thread of the process, summed by name
/// (`reqpump-loop`, `wsq-conn`, …).
pub fn thread_cpu_ns_by_name() -> BTreeMap<String, u64> {
    let mut texts = Vec::new();
    if let Ok(dir) = fs::read_dir("/proc/self/task") {
        for task in dir.flatten() {
            let path = task.path();
            let comm = fs::read_to_string(path.join("comm"));
            let sched = fs::read_to_string(path.join("schedstat"));
            if let (Ok(c), Ok(s)) = (comm, sched) {
                texts.push((c, s));
            }
        }
    }
    group_by_name(texts.iter().map(|(c, s)| (c.as_str(), s.as_str())))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (wsq (bench) x) S 1 4242 1 0 -1 4194560 2417 0 0 0 \
                        731 89 0 0 20 0 5 0 1528 93917184 6911 18446744073709551615 \
                        1 1 0 0 0 0 0 4096 1024 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  210000 kB\nVmHWM:\t   52736 kB\n\
                          VmRSS:\t   50000 kB\nThreads:\t5\n";

    #[test]
    fn stat_cpu_counts_user_and_system_ticks_past_a_tricky_name() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(731 + 89));
        assert_eq!(parse_stat_cpu_ticks("12 (x) S 1"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(52_736));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(
            parse_schedstat_ns("336240680 4704567 43\n"),
            Some(336_240_680)
        );
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn threads_are_summed_by_name() {
        let by_name = group_by_name([
            ("reqpump-loop\n", "1000 5 1\n"),
            ("wsq-conn\n", "200 0 2\n"),
            ("wsq-conn\n", "300 0 2\n"),
            ("perfbench\n", "garbage"),
        ]);
        assert_eq!(by_name.get("reqpump-loop"), Some(&1000));
        assert_eq!(by_name.get("wsq-conn"), Some(&500));
        assert_eq!(by_name.get("perfbench"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(peak_rss_mib() > 0.0);
        assert!(thread_cpu_ms() >= 0.0);
        assert!(thread_cpu_ns_by_name().values().sum::<u64>() > 0);
    }
}
