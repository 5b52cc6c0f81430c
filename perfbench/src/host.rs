//! Process and host measurements: CPU time, peak RSS, and the host
//! fingerprint printed with every result.

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has used so far, over all its
/// threads including ones that have exited.
///
/// # Panics
/// Panics if `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `) `.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Panics
/// Panics if `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host fingerprint: GF kernel tier, `nproc` and architecture.
pub fn fingerprint_json() -> String {
    format!(
        "{{\"gf_tier\":\"{}\",\"nproc\":{},\"arch\":\"{}\"}}",
        rpr_gf::kernels::active_tier().name(),
        nproc(),
        std::env::consts::ARCH
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_secs_f64() < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() >= before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
