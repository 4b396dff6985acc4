//! Child processes and `/proc`: the benchmark reaches the program only as a
//! user would, by running the `v2v` binary, and reads what the kernel says
//! the processes cost. Linux only, like the program's own mmap and signal
//! code.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
/// Only the CPU times are used: `ru_maxrss` carries the forked child's
/// memory from before the exec, i.e. this driver's own, so peak memory is
/// read from `/proc` instead (see [`peak_rss_mb`]).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Kernel clock ticks per second in `/proc/<pid>/stat`; fixed at 100 on
/// every Linux ABI (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// What a finished child cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Exit {
    pub wall_s: f64,
    /// User + system CPU seconds, from the kernel's accounting at exit.
    pub cpu_s: f64,
    /// Largest `VmHWM` seen while the process lived.
    pub peak_rss_mb: f64,
    pub success: bool,
}

/// How often a running command's `VmHWM` is read. The last reading is at
/// most this long before the exit, when a command is writing its output
/// and no longer growing.
const RSS_POLL: Duration = Duration::from_millis(10);

/// The high-water mark of a live process's resident memory, from
/// `/proc/<pid>/status`. The kernel starts it afresh at exec, so it is the
/// `v2v` program's own; `None` once the process has exited.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Waits for `child` and collects its CPU times; `peak_rss_mb` is what the
/// caller read from `/proc` while the child lived.
fn reap(child: Child, started: Instant, peak_rss_mb: f64) -> io::Result<Exit> {
    let (mut status, mut usage) = (0i32, Rusage::default());
    // SAFETY: `status` and `usage` are live, writable and of the types
    // wait4(2) fills on 64-bit Linux; the pid is a child of this process
    // that nothing else waits for, because this function owns `child` and
    // never calls its `wait`.
    let pid = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if pid < 0 {
        return Err(io::Error::last_os_error());
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(Exit {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: secs(usage.utime) + secs(usage.stime),
        peak_rss_mb,
        // Exited normally with code 0.
        success: status == 0,
    })
}

/// Waits for `child` while a second thread polls its `VmHWM`, so the wait
/// itself (and with it the wall time) is not quantised by the polling.
fn reap_watching_memory(child: Child, started: Instant) -> io::Result<Exit> {
    let pid = child.id();
    let exited = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !exited.load(Ordering::SeqCst) {
                peak = peak.max(peak_rss_mb(pid).unwrap_or(0.0));
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let exit = reap(child, started, 0.0);
        exited.store(true, Ordering::SeqCst);
        let peak_rss_mb = watcher.join().expect("memory watcher panicked");
        exit.map(|e| Exit { peak_rss_mb, ..e })
    })
}

/// The `v2v` binary under test.
#[derive(Clone, Debug)]
pub struct V2v {
    pub exe: PathBuf,
}

impl V2v {
    fn command(&self, args: &[&str], log: &Path) -> io::Result<Command> {
        let mut cmd = Command::new(&self.exe);
        // Errors only: the info log is a few lines, but it should not be
        // part of what is timed.
        cmd.args(args)
            .env("V2V_LOG", "error")
            .stdin(Stdio::null())
            .stderr(File::create(log)?);
        // SAFETY: the closure runs in the forked child before exec and only
        // makes one async-signal-safe system call. It asks the kernel to
        // kill the child when the thread that spawned it dies, so a driver
        // that is itself killed (a timeout, ^C) leaves no server behind;
        // every child is spawned from the main thread, which lives as long
        // as the process.
        unsafe {
            use std::os::unix::process::CommandExt;
            cmd.pre_exec(|| match prctl(PR_SET_PDEATHSIG, SIGKILL) {
                0 => Ok(()),
                _ => Err(io::Error::last_os_error()),
            });
        }
        Ok(cmd)
    }

    /// Runs one `v2v` command to completion; a non-zero exit is an error
    /// carrying the command's log.
    pub fn run(&self, args: &[&str], log: &Path) -> Result<Exit, String> {
        let started = Instant::now();
        let child = self
            .command(args, log)
            .and_then(|mut c| c.stdout(Stdio::null()).spawn())
            .map_err(|e| format!("cannot run {}: {e}", self.exe.display()))?;
        let exit = reap_watching_memory(child, started).map_err(|e| format!("wait4: {e}"))?;
        if !exit.success {
            let log = std::fs::read_to_string(log).unwrap_or_default();
            return Err(format!("v2v {} failed: {}", args.join(" "), log.trim()));
        }
        Ok(exit)
    }

    /// Starts `v2v serve <args> --port 0` and waits for its listening line.
    pub fn serve(&self, args: &[&str], log: &Path) -> Result<Server, String> {
        let started = Instant::now();
        let mut full = vec!["serve"];
        full.extend_from_slice(args);
        full.extend_from_slice(&["--port", "0"]);
        let mut child = self
            .command(&full, log)
            .and_then(|mut c| c.stdout(Stdio::piped()).spawn())
            .map_err(|e| format!("cannot run {}: {e}", self.exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        break addr
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("bad address {addr:?}: {e}"));
                    }
                }
                _ => {
                    let log = std::fs::read_to_string(log).unwrap_or_default();
                    break Err(format!("v2v serve exited before listening: {}", log.trim()));
                }
            }
        };
        match addr {
            Ok(addr) => Ok(Server {
                child: Some(child),
                _stdout: stdout,
                addr,
                started,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = reap(child, started, 0.0);
                Err(e)
            }
        }
    }
}

/// A running `v2v serve`. Dropping it kills the process and waits for it,
/// so no run leaves a server behind.
pub struct Server {
    child: Option<Child>,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub started: Instant,
}

impl Server {
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("server is running").id()
    }

    /// CPU seconds the server has used so far.
    pub fn cpu_s(&self) -> f64 {
        proc_cpu_s(self.pid()).unwrap_or(f64::NAN)
    }

    /// `kill -9`, as a crash would; returns what the process cost. Its
    /// memory high-water mark is read just before, while `/proc` still
    /// has it.
    pub fn kill(mut self) -> io::Result<Exit> {
        let mut child = self.child.take().expect("server is running");
        let peak = peak_rss_mb(child.id())
            .ok_or_else(|| io::Error::other("the server was gone before it was killed"));
        let killed = child.kill();
        let exit = reap(child, self.started, 0.0);
        let peak_rss_mb = killed.and(peak)?;
        exit.map(|e| Exit { peak_rss_mb, ..e })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(child, self.started, 0.0);
        }
    }
}

/// User + system CPU seconds of a live process, from `/proc/<pid>/stat`.
fn proc_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_cpu(&stat)
}

/// Fields 14 and 15 (utime, stime); the command name in field 2 may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_stat_cpu(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Machine-wide CPU time counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    steal: f64,
    total: f64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse_cpu_times(&s))
            .unwrap_or_default()
    }

    /// Share of machine CPU time the hypervisor gave to someone else since
    /// `earlier`: the noise this box adds to every timing.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total - earlier.total;
        if total > 0.0 {
            (self.steal - earlier.steal) / total
        } else {
            0.0
        }
    }
}

fn parse_cpu_times(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user and nice.
    let f: Vec<f64> = line
        .split_ascii_whitespace()
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (f.len() == 8).then(|| CpuTimes {
        steal: f[7],
        total: f.iter().sum(),
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sleeps until `deadline`; returns at once when it has passed.
pub fn sleep_until(deadline: Instant) {
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
}

/// Polls `probe` every `every` until it yields a value or `limit` passes.
pub fn poll<T>(
    limit: Duration,
    every: Duration,
    mut probe: impl FnMut() -> Option<T>,
) -> Option<T> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(v) = probe() {
            return Some(v);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(every);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_after_the_command_name() {
        let stat =
            "4227 (v2v (serve) x) S 1 4227 4227 0 -1 4194560 500 0 0 0 250 50 0 0 20 0 4 0 100 1 2";
        assert_eq!(parse_stat_cpu(stat), Some(3.0));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn steal_is_a_share_of_all_cpu_time() {
        let a = parse_cpu_times("cpu  100 0 100 700 0 0 0 100 0 0\ncpu0 1 2 3\n").unwrap();
        let b = parse_cpu_times("cpu  150 0 150 1400 0 0 0 300 0 0\n").unwrap();
        assert!((b.steal_frac_since(&a) - 0.2).abs() < 1e-12);
        assert_eq!(a.steal_frac_since(&a), 0.0);
    }

    #[test]
    fn reap_reports_the_cpu_time_and_exit_of_a_child() {
        let started = Instant::now();
        let child = Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .spawn()
            .unwrap();
        let exit = reap_watching_memory(child, started).unwrap();
        assert!(exit.success);
        assert!(
            exit.cpu_s > 0.0 && exit.cpu_s <= exit.wall_s * nproc() as f64 + 0.05,
            "{exit:?}"
        );
        let failed = reap(
            Command::new("sh").args(["-c", "exit 3"]).spawn().unwrap(),
            started,
            0.0,
        )
        .unwrap();
        assert!(!failed.success);
    }

    #[test]
    fn peak_memory_is_the_childs_own_not_the_drivers() {
        // 64 MiB touched here: `ru_maxrss` of any child spawned now would
        // report at least that much, whatever the child itself uses.
        let ballast = vec![1u8; 64 << 20];
        let child = Command::new("sleep").arg("0.2").spawn().unwrap();
        let exit = reap_watching_memory(child, Instant::now()).unwrap();
        assert!(std::hint::black_box(&ballast).iter().all(|b| *b == 1));
        assert!(
            exit.peak_rss_mb > 0.1 && exit.peak_rss_mb < 16.0,
            "{exit:?}"
        );
    }

    #[test]
    fn reads_the_high_water_mark_from_proc_status() {
        let status = "Name:\tv2v\nVmPeak:\t  300000 kB\nVmHWM:\t  135168 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(132.0));
        // A zombie's status has no memory lines.
        assert_eq!(parse_vm_hwm_mb("Name:\tv2v\nState:\tZ (zombie)\n"), None);
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.1);
    }
}
