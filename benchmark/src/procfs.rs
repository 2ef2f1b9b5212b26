//! `/proc` readers. Every parser returns `None` on a missing or malformed
//! file, and the caller reports the metric as absent: a kernel without
//! `schedstat` must not fail the benchmark. Two things `/proc` cannot do are
//! asked of the C library instead: the process's CPU clock and its CPU set.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is 100
/// on every Linux ABI; std offers no `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// utime + stime of the whole process, in ticks, from `/proc/<pid>/stat`
/// text. Threads that have already exited are included, which the
/// per-thread `schedstat` files cannot offer.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    // comm may contain spaces and parentheses; fields resume after the
    // last ')'. utime and stime are fields 14 and 15, so 12th and 13th
    // after comm (state is the 1st).
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `(run_ns, wait_ns)` from a `schedstat` line: time on a CPU and time
/// runnable but waiting for one.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_ascii_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// The kB value of one `/proc/<pid>/status` key such as `VmHWM`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Process CPU seconds so far (user + system, all threads, dead or alive).
/// The kernel's CPU-time clock reads to the nanosecond, which a 50 ms
/// window needs; `/proc/self/stat` counts in 10 ms ticks and stands in
/// only where that clock cannot be asked.
pub fn process_cpu_seconds() -> Option<f64> {
    cpu_clock_seconds().or_else(|| {
        let text = fs::read_to_string("/proc/self/stat").ok()?;
        Some(parse_stat_cpu_ticks(&text)? as f64 / TICKS_PER_SECOND)
    })
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_seconds() -> Option<f64> {
    /// `struct timespec` of the 64-bit Linux ABIs.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, at: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut at = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` is the C library's, which std links on Linux;
    // it writes one `timespec` through the pointer, which is valid, aligned
    // and laid out as the 64-bit Linux ABI defines it, and keeps nothing.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut at) };
    (status == 0).then_some(at.sec as f64 + at.nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_seconds() -> Option<f64> {
    None
}

/// Confines this thread, and every thread and process started from it
/// afterwards, to the last CPU it may use, and returns that CPU's number;
/// `None` when the kernel refuses or cannot be asked.
///
/// Why the benchmark runs on one CPU: on a few cores of a shared host a
/// wake-up that crosses CPUs costs tens of microseconds of the
/// hypervisor's time, and where the scheduler puts the server's six
/// threads changes from second to second. `http_keepalive` then measured
/// 100 us of CPU per request, spread 13 % between identical runs; on one
/// CPU the same requests cost 40 us and spread under 2 %. What is left is
/// the program's own work, which is what two commits are compared on.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    /// The C library's `cpu_set_t`: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: the C library's call, which std links on Linux; pid 0 is the
    // calling thread; it writes at most `size` bytes through the pointer,
    // which is valid and aligned for exactly `size` bytes, and keeps nothing.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the call only reads `size` bytes through the pointer.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kb(&text, "VmHWM")? as f64 / 1024.0)
}

/// Which part of the system a thread belongs to, by the name the server
/// gives its threads. Everything else is the benchmark's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadGroup {
    Worker,
    Conn,
    Acceptor,
    Loadgen,
}

pub fn group_of(comm: &str) -> ThreadGroup {
    let comm = comm.trim();
    if comm.starts_with("php-worker") {
        ThreadGroup::Worker
    } else if comm.starts_with("http-conn") {
        ThreadGroup::Conn
    } else if comm.starts_with("http-acceptor") {
        ThreadGroup::Acceptor
    } else {
        ThreadGroup::Loadgen
    }
}

/// Summed `(run_ns, wait_ns)` per thread group, indexed by
/// `ThreadGroup as usize`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupTimes {
    pub run_ns: [u64; 4],
    pub wait_ns: [u64; 4],
}

impl GroupTimes {
    pub fn add(&mut self, group: ThreadGroup, run_ns: u64, wait_ns: u64) {
        self.run_ns[group as usize] += run_ns;
        self.wait_ns[group as usize] += wait_ns;
    }

    /// Growth since `earlier`, saturating: a group whose threads exited in
    /// between (connection threads do) reads as 0, never as a wrap-around.
    pub fn since(&self, earlier: &GroupTimes) -> GroupTimes {
        let mut out = GroupTimes::default();
        for g in 0..4 {
            out.run_ns[g] = self.run_ns[g].saturating_sub(earlier.run_ns[g]);
            out.wait_ns[g] = self.wait_ns[g].saturating_sub(earlier.wait_ns[g]);
        }
        out
    }
}

/// Scheduler times of the live threads of this process, grouped. `None`
/// when `/proc/self/task` or every `schedstat` is unreadable.
pub fn live_thread_times() -> Option<GroupTimes> {
    let mut out = GroupTimes::default();
    let mut seen = false;
    for entry in fs::read_dir("/proc/self/task").ok()?.flatten() {
        let dir = entry.path();
        // A thread may exit between the listing and the reads.
        let (Ok(comm), Ok(sched)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        if let Some((run, wait)) = parse_schedstat(&sched) {
            out.add(group_of(&comm), run, wait);
            seen = true;
        }
    }
    seen.then_some(out)
}

/// CPUs this process may run on: one, once `pin_to_one_cpu` has succeeded.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_odd_comm() {
        let line = "123 (php) worker (x)) S 1 123 123 0 -1 4194560 500 0 0 0 \
                    77 23 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(100));
        assert_eq!(parse_stat_cpu_ticks("123 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn schedstat_parses_or_is_absent() {
        assert_eq!(parse_schedstat("89050 1200 3\n"), Some((89050, 1200)));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("a b c"), None);
    }

    #[test]
    fn status_key_parses_or_is_absent() {
        let status = "Name:\tphpbench\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(4000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM:\tlots\n", "VmHWM"), None);
        assert_eq!(parse_status_kb("", "VmHWM"), None);
    }

    #[test]
    fn unknown_thread_names_belong_to_the_generator() {
        assert_eq!(group_of("php-worker-1\n"), ThreadGroup::Worker);
        assert_eq!(group_of("http-conn\n"), ThreadGroup::Conn);
        assert_eq!(group_of("http-acceptor\n"), ThreadGroup::Acceptor);
        assert_eq!(group_of("phpbench\n"), ThreadGroup::Loadgen);
        assert_eq!(group_of(""), ThreadGroup::Loadgen);
    }

    #[test]
    fn group_deltas_saturate() {
        let mut early = GroupTimes::default();
        early.add(ThreadGroup::Conn, 500, 50);
        early.add(ThreadGroup::Worker, 100, 10);
        let mut late = GroupTimes::default();
        late.add(ThreadGroup::Conn, 200, 20);
        late.add(ThreadGroup::Worker, 400, 40);
        let d = late.since(&early);
        assert_eq!(d.run_ns[ThreadGroup::Conn as usize], 0);
        assert_eq!(d.run_ns[ThreadGroup::Worker as usize], 300);
        assert_eq!(d.wait_ns[ThreadGroup::Worker as usize], 30);
    }

    #[test]
    fn live_readers_do_not_panic() {
        // Present on Linux, absent elsewhere: either is fine, neither panics.
        let _ = process_cpu_seconds();
        let _ = peak_rss_mb();
        let _ = live_thread_times();
        assert!(nproc() >= 1);
    }
}
