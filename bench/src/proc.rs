//! Process accounting read from `/proc` (Linux only, like the rest of
//! the harness): CPU time and peak resident set of a process.

use std::fs;

/// Kernel clock ticks per second. `/proc/<pid>/stat` counts CPU time in
/// these; 100 on every Linux the harness has met (`getconf CLK_TCK`).
const CLK_TCK: f64 = 100.0;

/// `utime + stime` of every thread of `pid` so far, in seconds.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    cpu_user_sys(pid).map(|(user, sys)| user + sys)
}

/// `(utime, stime)` of every thread of `pid` so far, in seconds. The
/// sum is exact to a tick; the kernel splits it by where its timer tick
/// found the process, so the two parts are estimates.
pub fn cpu_user_sys(pid: u32) -> Result<(f64, f64), String> {
    let path = format!("/proc/{pid}/stat");
    let stat = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // the command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3 (state); utime and stime are fields 14, 15
    let tick = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {i} unreadable"))
    };
    Ok((tick(14)? / CLK_TCK, tick(15)? / CLK_TCK))
}

pub fn own_cpu_seconds() -> Result<f64, String> {
    cpu_seconds(std::process::id())
}

/// CPU time the calling thread has run, in seconds (nanosecond
/// accounting from `/proc/thread-self/schedstat`); 0 where the kernel
/// keeps none.
pub fn thread_cpu_seconds() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Peak resident set (`VmHWM`) of `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`), for the result record.
pub fn fs_type(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), ty))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let before = own_cpu_seconds().unwrap();
        let mut x = 0u64;
        while own_cpu_seconds().unwrap() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.5);
        assert_ne!(fs_type(std::path::Path::new("/proc")), "unknown");
    }
}
