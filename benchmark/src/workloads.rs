//! The four workloads and one timed trial of each. A trial does a fixed
//! amount of work, so two commits are compared on the same requests; how
//! many trials a run makes is decided by the caller's time budget.

use crate::adapter::{AppMachine, Apps, Corpus, EdgeServer, Rig};
use crate::client::{get_once, request_bytes, KeepAlive};
use crate::mix::block_shuffle;
use crate::probe::Probe;
use crate::procfs;
use crate::stats::percentile;
use std::net::SocketAddr;
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

/// Client threads of the HTTP workloads, and PHP workers behind them: the
/// issue's serving config. All of them share the benchmark's one CPU.
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
/// An OS context switch every this many requests per app, as `LoadGen`.
pub const CONTEXT_SWITCH_EVERY: u64 = 50;
/// Scripts in the corpus: the mix generator's block length.
const CORPUS_BLOCK: usize = 12;
/// A timed block is read in windows of this length, each with its own rate,
/// median latency and CPU time. What disturbs this shared host lasts from
/// milliseconds to tens of seconds and only ever takes time away; a window
/// this short is often left alone even when a whole trial never is, and it
/// still holds hundreds of requests.
pub const WINDOW: Duration = Duration::from_millis(50);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HttpKeepalive,
    HttpChurn,
    CorpusInproc,
    AppsInproc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HttpKeepalive,
        Workload::HttpChurn,
        Workload::CorpusInproc,
        Workload::AppsInproc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpKeepalive => "http_keepalive",
            Workload::HttpChurn => "http_churn",
            Workload::CorpusInproc => "corpus_inproc",
            Workload::AppsInproc => "apps_inproc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_http(self) -> bool {
        matches!(self, Workload::HttpKeepalive | Workload::HttpChurn)
    }

    /// `(warm-up, timed)` requests of one trial at full size. For
    /// `apps_inproc` both are per application. A timed block takes one and
    /// a half to three and a half seconds, thirty to seventy windows.
    fn full_size(self) -> (usize, usize) {
        match self {
            Workload::HttpKeepalive => (2_000, 40_000),
            Workload::HttpChurn => (600, 12_000),
            Workload::CorpusInproc => (2_400, 100_000),
            Workload::AppsInproc => (300, 10_000),
        }
    }

    /// Trial size at `scale` (1.0 full, 0.05 for `--smoke`). The corpus
    /// workloads keep a multiple of the corpus size, so that every script
    /// keeps its equal weight.
    pub fn size(self, scale: f64) -> Size {
        let (warmup, timed) = self.full_size();
        let scaled = |n: usize| (n as f64 * scale) as usize;
        if self == Workload::AppsInproc {
            // The 300 warm-up requests are the paper's, and fill the
            // accelerators: they do not shrink.
            return Size {
                warmup,
                timed: scaled(timed).max(1),
            };
        }
        let blocks = |n: usize| (scaled(n) / CORPUS_BLOCK).max(1) * CORPUS_BLOCK;
        Size {
            warmup: blocks(warmup),
            timed: blocks(timed),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub warmup: usize,
    pub timed: usize,
}

/// What one timed trial measured, as the clocks read.
#[derive(Debug, Clone, Default)]
pub struct Trial {
    /// Wall time until the first timed request could be sent.
    pub setup_s: f64,
    /// Wall time of the timed block.
    pub wall_s: f64,
    /// Process CPU time over the timed block; absent without `/proc`.
    pub cpu_s: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-request host latencies of the timed block, ascending.
    pub latencies_ns: Vec<u64>,
    /// Metered µops of the timed block.
    pub sim_uops: u64,
    /// Why requests failed, for the report (first few only).
    pub errors: Vec<String>,
    /// Scheduler time per thread group over the timed block (threads alive
    /// at both ends only); absent without `schedstat`.
    pub threads: Option<procfs::GroupTimes>,
    /// `http_churn`: how long each `connect` took, ascending.
    pub connects_ns: Vec<u64>,
    /// Mean of the two host-speed probe slices around the timed block.
    pub calib_s: f64,
    /// The timed block again, window by window.
    pub windows: Vec<Window>,
}

/// A request that ran from `start` to `end`, as `Marks::windows` takes it:
/// `(end since epoch, latency)` in ns.
fn since(epoch: Instant, start: Instant, end: Instant) -> (u64, u64) {
    (
        end.duration_since(epoch).as_nanos() as u64,
        end.duration_since(start).as_nanos() as u64,
    )
}

impl Trial {
    /// Files the timed block's requests, `(end, latency)` in ns: by window,
    /// and all together in ascending order. The block's clock has stopped.
    fn keep(&mut self, marks: &Marks, requests: Vec<(u64, u64)>, until_ns: u64) {
        self.windows = marks.windows(&requests, until_ns);
        self.latencies_ns = requests.into_iter().map(|r| r.1).collect();
        self.latencies_ns.sort_unstable();
        if self.windows.is_empty() {
            // A block shorter than one window (`--smoke`) is its own window.
            let whole = percentile(&self.latencies_ns, 50.0).map(|p50_ns| Window {
                wall_s: self.wall_s,
                cpu_s: self.cpu_s,
                requests: self.latencies_ns.len() as u64,
                p50_ns,
            });
            self.windows.extend(whole);
        }
    }

    fn note_failure(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why());
        }
    }
}

/// What one window of a timed block measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub wall_s: f64,
    /// Process CPU time; absent where no clock offers it.
    pub cpu_s: Option<f64>,
    /// Requests that ended inside the window, and their median latency.
    pub requests: u64,
    pub p50_ns: u64,
}

/// The edges of a timed block's windows: wall time since the block began
/// and process CPU time, read together.
pub struct Marks {
    epoch: Instant,
    edges: Vec<(u64, Option<f64>)>,
}

impl Marks {
    /// Opens the first window now; times count from `epoch`.
    pub fn start(epoch: Instant) -> Marks {
        let mut marks = Marks {
            epoch,
            edges: Vec::new(),
        };
        marks.mark();
        marks
    }

    pub fn mark(&mut self) {
        let cpu = procfs::process_cpu_seconds();
        self.edges
            .push((self.epoch.elapsed().as_nanos() as u64, cpu));
    }

    /// When the open window will be `WINDOW` old, in ns since `epoch`.
    fn due_ns(&self) -> u64 {
        self.edges.last().map_or(0, |e| e.0) + WINDOW.as_nanos() as u64
    }

    /// For a loop that serves requests itself and has just read the time.
    fn mark_if_due(&mut self, now_ns: u64) {
        if now_ns >= self.due_ns() {
            self.mark();
        }
    }

    /// The windows between consecutive edges, over `requests` given as
    /// `(end, latency)` in ns with `end` since `epoch`, in any order.
    /// Windows that end after `until_ns` (clients running out of requests)
    /// or that saw no request are left out.
    pub fn windows(&self, requests: &[(u64, u64)], until_ns: u64) -> Vec<Window> {
        let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); self.edges.len().saturating_sub(1)];
        for &(end, latency) in requests {
            // The window whose opening edge is the last one at or before `end`.
            let w = self.edges.partition_point(|e| e.0 <= end);
            if let Some(bucket) = w.checked_sub(1).and_then(|w| latencies.get_mut(w)) {
                bucket.push(latency);
            }
        }
        self.edges
            .windows(2)
            .zip(latencies)
            .filter(|(edge, _)| edge[1].0 <= until_ns)
            .filter_map(|(edge, mut latencies)| {
                latencies.sort_unstable();
                Some(Window {
                    wall_s: (edge[1].0 - edge[0].0) as f64 * 1e-9,
                    cpu_s: edge[1].1.zip(edge[0].1).map(|(b, a)| b - a),
                    requests: latencies.len() as u64,
                    p50_ns: percentile(&latencies, 50.0)?,
                })
            })
            .collect()
    }
}

/// The clocks of a timed block: a probe slice, then wall, CPU and
/// per-thread scheduler time from `start` to `stop`, then a second slice.
struct BlockClock {
    probe: Probe,
    before_s: f64,
    threads0: Option<procfs::GroupTimes>,
    cpu0: Option<f64>,
    start: Instant,
}

impl BlockClock {
    fn start() -> BlockClock {
        let mut probe = Probe::new();
        let before_s = probe.slice();
        BlockClock {
            probe,
            before_s,
            threads0: procfs::live_thread_times(),
            cpu0: procfs::process_cpu_seconds(),
            start: Instant::now(),
        }
    }

    fn stop(mut self, trial: &mut Trial) {
        trial.wall_s = self.start.elapsed().as_secs_f64();
        trial.cpu_s = procfs::process_cpu_seconds()
            .zip(self.cpu0)
            .map(|(a, b)| a - b);
        trial.threads = procfs::live_thread_times()
            .zip(self.threads0)
            .map(|(a, b)| a.since(&b));
        trial.calib_s = (self.before_s + self.probe.slice()) / 2.0;
    }
}

pub fn run_trial(workload: Workload, seed: u64, scale: f64) -> Trial {
    let size = workload.size(scale);
    match workload {
        Workload::HttpKeepalive => http_trial(seed, size, false),
        Workload::HttpChurn => http_trial(seed, size, true),
        Workload::CorpusInproc => corpus_trial(seed, size),
        Workload::AppsInproc => apps_trial(seed, size),
    }
}

// ---------------------------------------------------------------------------
// HTTP
// ---------------------------------------------------------------------------

/// The request path and wire bytes of every corpus script.
pub fn corpus_requests(corpus: &Corpus, close: bool) -> Vec<Vec<u8>> {
    (0..corpus.len())
        .map(|s| request_bytes(&format!("/run/{}", corpus.name(s)), close))
        .collect()
}

/// What one client thread brings back from a block of requests.
#[derive(Default)]
pub struct ClientBlock {
    /// `(end, latency)` in ns of every request that succeeded, `end` since
    /// the epoch `Client::run` was given.
    pub requests: Vec<(u64, u64)>,
    pub connects_ns: Vec<u64>,
    pub failures: Vec<String>,
    pub failed: u64,
}

impl ClientBlock {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// One closed-loop client: sends `scripts` in order, each after the
/// previous response, and checks every status and body.
pub struct Client<'a> {
    addr: SocketAddr,
    churn: bool,
    requests: &'a [Vec<u8>],
    expected: &'a [Vec<u8>],
    conn: Option<KeepAlive>,
    body: Vec<u8>,
}

impl<'a> Client<'a> {
    pub fn new(
        addr: SocketAddr,
        churn: bool,
        requests: &'a [Vec<u8>],
        expected: &'a [Vec<u8>],
    ) -> Client<'a> {
        Client {
            addr,
            churn,
            requests,
            expected,
            conn: None,
            body: Vec::new(),
        }
    }

    /// One request, timed from the first byte written (from `connect` on
    /// a connection per request, which that client pays every time) to the
    /// last body byte read. Returns `(latency, connect)`.
    pub fn get(&mut self, script: usize) -> Result<(Duration, Duration), String> {
        let request = &self.requests[script];
        let (status, latency, connect) = if self.churn {
            let start = Instant::now();
            let (status, connect) =
                get_once(self.addr, request, &mut self.body).map_err(|e| e.to_string())?;
            (status, start.elapsed(), connect)
        } else {
            if self.conn.is_none() {
                self.conn = Some(KeepAlive::connect(self.addr).map_err(|e| e.to_string())?);
            }
            let conn = self.conn.as_mut().expect("connected above");
            let start = Instant::now();
            let result = conn.get(request, &mut self.body);
            let latency = start.elapsed();
            match result {
                Ok(status) => (status, latency, Duration::ZERO),
                Err(e) => {
                    // The connection is in an unknown state: open another.
                    self.conn = None;
                    return Err(e.to_string());
                }
            }
        };
        if status != 200 {
            return Err(format!("script {script}: status {status}"));
        }
        if self.body != self.expected[script] {
            return Err(format!("script {script}: body differs from the reference"));
        }
        Ok((latency, connect))
    }

    pub fn run(
        &mut self,
        epoch: Instant,
        scripts: impl Iterator<Item = u16>,
        out: &mut ClientBlock,
    ) {
        for script in scripts {
            match self.get(script as usize) {
                Ok((latency, connect)) => {
                    out.requests
                        .push((epoch.elapsed().as_nanos() as u64, latency.as_nanos() as u64));
                    if self.churn {
                        out.connects_ns.push(connect.as_nanos() as u64);
                    }
                }
                Err(why) => out.fail(why),
            }
        }
    }
}

/// Client `c`'s share of a request sequence: every `CLIENTS`-th request.
pub fn share(sequence: &[u16], c: usize) -> impl Iterator<Item = u16> + '_ {
    sequence.iter().copied().skip(c).step_by(CLIENTS)
}

/// Waits until the workers have published `requests` served requests and
/// returns their summed µops. A worker publishes just after it replies, so
/// this settles within microseconds; the deadline only guards a hang.
pub fn settled_uops(server: &EdgeServer, requests: u64) -> Option<u64> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (served, uops) = server.published();
        if served >= requests {
            return Some(uops);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::yield_now();
    }
}

fn http_trial(seed: u64, size: Size, churn: bool) -> Trial {
    let t0 = Instant::now();
    let mut trial = Trial::default();
    let corpus = Corpus::build();
    let expected = corpus.reference_bodies();
    let requests = corpus_requests(&corpus, churn);
    // A new listener per trial: on a connection per request the ephemeral
    // ports of one (address, port) pair would otherwise run out.
    let server = match EdgeServer::start(&corpus, WORKERS) {
        Ok(s) => s,
        Err(e) => {
            trial.attempted = size.timed as u64;
            trial.failed = size.timed as u64;
            trial.errors.push(format!("server did not start: {e}"));
            return trial;
        }
    };
    let addr = server.addr();
    let sequence = block_shuffle(seed, corpus.len(), size.warmup + size.timed);
    let (warm, timed) = sequence.split_at(size.warmup);

    // Clients warm up, meet the main thread so that it can take its
    // readings on a quiet server, meet it again to start together, tell it
    // when they are done, and meet it twice more at the end: their
    // scheduler times vanish when they exit. Meanwhile the main thread
    // only wakes to mark the windows' edges.
    let barrier = Barrier::new(CLIENTS + 1);
    let (blocks, warm_failed, uops, marks) = std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, requests, expected) = (&barrier, &requests, &expected);
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    let mut client = Client::new(addr, churn, requests, expected);
                    let mut warm_block = ClientBlock::default();
                    client.run(t0, share(warm, c), &mut warm_block);
                    barrier.wait();
                    let mut block = ClientBlock::default();
                    block.requests.reserve(timed.len() / CLIENTS + 1);
                    barrier.wait();
                    client.run(t0, share(timed, c), &mut block);
                    // The main thread listens until every client has sent.
                    let _ = done_tx.send(());
                    barrier.wait();
                    barrier.wait();
                    (warm_block.failed, block)
                })
            })
            .collect();
        drop(done_tx);
        barrier.wait();
        let uops0 = settled_uops(&server, size.warmup as u64);
        trial.setup_s = t0.elapsed().as_secs_f64();
        let clock = BlockClock::start();
        let mut marks = Marks::start(t0);
        barrier.wait();
        let mut running = CLIENTS;
        while running > 0 {
            let due = Duration::from_nanos(marks.due_ns()).saturating_sub(t0.elapsed());
            match done_rx.recv_timeout(due) {
                Ok(()) => running -= 1,
                Err(mpsc::RecvTimeoutError::Timeout) => marks.mark(),
                // A client is gone without a word: its join below says why.
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        barrier.wait();
        clock.stop(&mut trial);
        barrier.wait();
        let mut blocks = Vec::new();
        let mut warm_failed = 0;
        for h in handles {
            let (w, block) = h.join().expect("client thread does not panic");
            warm_failed += w;
            blocks.push(block);
        }
        let uops1 = settled_uops(&server, (size.warmup + size.timed) as u64);
        (blocks, warm_failed, uops0.zip(uops1), marks)
    });

    trial.attempted = size.timed as u64;
    // Once the first client has run out of requests the load is no longer
    // the workload's: windows that end later are left out.
    let until_ns = blocks
        .iter()
        .map(|b| b.requests.last().map_or(0, |r| r.0))
        .min()
        .unwrap_or(0);
    let mut requests = Vec::with_capacity(size.timed);
    for block in blocks {
        trial.failed += block.failed;
        requests.extend(block.requests);
        trial.connects_ns.extend(block.connects_ns);
        for why in block.failures {
            if trial.errors.len() < 5 {
                trial.errors.push(why);
            }
        }
    }
    trial.keep(&marks, requests, until_ns);
    trial.connects_ns.sort_unstable();
    if warm_failed > 0 {
        trial.note_failure(|| format!("{warm_failed} warm-up requests failed"));
    }
    match uops {
        Some((before, after)) => trial.sim_uops = after - before,
        None => trial.note_failure(|| "workers never published every request".into()),
    }
    let report = server.shutdown();
    let sent = (size.warmup + size.timed) as u64;
    if report.ok != sent || report.shed != 0 || report.parse_errors != 0 {
        trial.note_failure(|| {
            format!(
                "front end served {} ok of {sent} sent, shed {}, parse errors {}",
                report.ok, report.shed, report.parse_errors
            )
        });
    }
    trial
}

// ---------------------------------------------------------------------------
// In-process corpus
// ---------------------------------------------------------------------------

fn corpus_trial(seed: u64, size: Size) -> Trial {
    let t0 = Instant::now();
    let mut trial = Trial::default();
    let corpus = Corpus::build();
    let expected = corpus.reference_bodies();
    let mut rig = Rig::new(false, false);
    let sequence = block_shuffle(seed, corpus.len(), size.warmup + size.timed);
    let (warm, timed) = sequence.split_at(size.warmup);
    for (req, &script) in warm.iter().enumerate() {
        let served = rig.serve(&corpus, script as usize, req as u64);
        rig.reset();
        if !served.ok || served.body != expected[script as usize] {
            trial.note_failure(|| format!("warm-up request {req} (script {script}) is wrong"));
        }
    }
    trial.setup_s = t0.elapsed().as_secs_f64();

    let uops0 = rig.total_uops();
    let mut requests = Vec::with_capacity(timed.len());
    let clock = BlockClock::start();
    let mut marks = Marks::start(t0);
    for (req, &script) in (size.warmup as u64..).zip(timed) {
        let t = Instant::now();
        let served = rig.serve(&corpus, script as usize, req);
        rig.reset();
        let request = since(t0, t, Instant::now());
        requests.push(request);
        marks.mark_if_due(request.0);
        if !served.ok || served.body != expected[script as usize] {
            trial.note_failure(|| format!("request {req} (script {script}) is wrong"));
        }
    }
    clock.stop(&mut trial);
    trial.keep(&marks, requests, u64::MAX);
    trial.sim_uops = rig.total_uops() - uops0;
    trial.attempted = timed.len() as u64;
    trial
}

// ---------------------------------------------------------------------------
// In-process applications
// ---------------------------------------------------------------------------

/// The warm-up of `LoadGen::run`, per application: requests with a context
/// switch every `CONTEXT_SWITCH_EVERY`, then `reset_metrics`. Returns how
/// many warm-up requests panicked.
pub fn warm_apps(apps: &mut Apps, size: Size) -> u64 {
    let mut failed = 0;
    for app in 0..apps.len() {
        for r in 0..size.warmup as u64 {
            if r > 0 && r.is_multiple_of(CONTEXT_SWITCH_EVERY) {
                apps.context_switch(app);
            }
            failed += u64::from(!apps.handle(app, r));
        }
        apps.reset_metrics(app);
    }
    failed
}

/// The order in which the three applications' timed requests interleave:
/// the seeded block shuffle over `apps` items, `size.timed` blocks long.
pub fn app_order(seed: u64, apps: usize, size: Size) -> Vec<u16> {
    block_shuffle(seed, apps, apps * size.timed)
}

/// The measured phase of `LoadGen::run` for the applications in `order`.
/// Each application keeps its own request counter (`next`, which carries
/// over from call to call) and context-switch cadence.
/// `on_request(app, ok, start, end)` sees every request.
pub fn run_apps(
    apps: &mut Apps,
    order: &[u16],
    next: &mut [u64],
    size: Size,
    mut on_request: impl FnMut(usize, bool, Instant, Instant),
) {
    for &app in order {
        let app = app as usize;
        let r = next[app];
        next[app] += 1;
        let t = Instant::now();
        if r > 0 && r.is_multiple_of(CONTEXT_SWITCH_EVERY) {
            apps.context_switch(app);
        }
        let ok = apps.handle(app, size.warmup as u64 + r);
        on_request(app, ok, t, Instant::now());
    }
}

fn apps_trial(seed: u64, size: Size) -> Trial {
    let t0 = Instant::now();
    let mut trial = Trial::default();
    let mut apps = Apps::build(seed, AppMachine::Specialized);
    let n = apps.len();
    let warm_failed = warm_apps(&mut apps, size);
    let order = app_order(seed, n, size);
    trial.setup_s = t0.elapsed().as_secs_f64();

    let mut next = vec![0u64; n];
    let mut failed = 0u64;
    let mut requests = Vec::with_capacity(order.len());
    let clock = BlockClock::start();
    let mut marks = Marks::start(t0);
    run_apps(&mut apps, &order, &mut next, size, |_, ok, t, end| {
        failed += u64::from(!ok);
        let request = since(t0, t, end);
        requests.push(request);
        marks.mark_if_due(request.0);
    });
    clock.stop(&mut trial);
    trial.keep(&marks, requests, u64::MAX);
    trial.attempted = order.len() as u64;
    trial.failed = failed;
    if failed > 0 {
        trial.errors.push(format!("{failed} requests panicked"));
    }
    if warm_failed > 0 {
        trial.note_failure(|| format!("{warm_failed} warm-up requests panicked"));
    }
    for app in 0..n {
        let c = apps.counters(app);
        trial.sim_uops += c.total_uops;
        // The applications return no bytes to compare; what they must not
        // do is leak: every block of a finished request is freed.
        if c.live_blocks != 0 {
            trial.note_failure(|| format!("{} leaked {} blocks", apps.name(app), c.live_blocks));
        }
    }
    trial
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn corpus_trials_keep_whole_blocks_at_any_scale() {
        for w in [
            Workload::HttpKeepalive,
            Workload::HttpChurn,
            Workload::CorpusInproc,
        ] {
            for scale in [1.0, 0.4, 0.25, 0.05, 0.0001] {
                let size = w.size(scale);
                assert!(size.timed >= CORPUS_BLOCK && size.timed % CORPUS_BLOCK == 0);
                assert!(size.warmup >= CORPUS_BLOCK && size.warmup % CORPUS_BLOCK == 0);
            }
        }
        assert_eq!(Workload::HttpKeepalive.size(1.0).timed, 39_996);
        assert_eq!(Workload::HttpKeepalive.size(0.05).timed, 1_992);
    }

    #[test]
    fn the_applications_always_warm_up_in_full() {
        assert_eq!(
            Workload::AppsInproc.size(0.05),
            Size {
                warmup: 300,
                timed: 500
            }
        );
        assert_eq!(Workload::AppsInproc.size(0.000_001).timed, 1);
    }

    #[test]
    fn a_request_belongs_to_the_window_it_ended_in() {
        let marks = Marks {
            epoch: Instant::now(),
            edges: vec![
                (0, Some(0.0)),
                (100, Some(0.25)),
                (200, None),
                (300, Some(1.0)),
                (400, Some(1.5)),
            ],
        };
        // (end, latency), in no order; 400 and later are past the last edge.
        let requests = [
            (10, 5),
            (99, 7),
            (50, 6),
            (100, 9),
            (350, 1),
            (400, 2),
            (1000, 3),
        ];
        let windows = marks.windows(&requests, u64::MAX);
        assert_eq!(
            windows,
            vec![
                Window {
                    wall_s: 100.0 * 1e-9,
                    cpu_s: Some(0.25),
                    requests: 3,
                    p50_ns: 6
                },
                // An edge whose CPU clock could not be read: no CPU time.
                Window {
                    wall_s: 100.0 * 1e-9,
                    cpu_s: None,
                    requests: 1,
                    p50_ns: 9
                },
                // 200-300 saw no request and is left out.
                Window {
                    wall_s: 100.0 * 1e-9,
                    cpu_s: Some(0.5),
                    requests: 1,
                    p50_ns: 1
                },
            ]
        );
        // Windows that end after the first client ran dry are left out.
        assert_eq!(marks.windows(&requests, 399).len(), 2);
        assert!(marks.windows(&[], u64::MAX).is_empty());
    }

    #[test]
    fn a_block_shorter_than_a_window_is_its_own_window() {
        let mut trial = Trial {
            wall_s: 0.004,
            cpu_s: Some(0.003),
            ..Trial::default()
        };
        trial.keep(
            &Marks::start(Instant::now()),
            vec![(30, 9), (10, 5), (20, 7)],
            u64::MAX,
        );
        assert_eq!(trial.latencies_ns, vec![5, 7, 9]);
        assert_eq!(
            trial.windows,
            vec![Window {
                wall_s: 0.004,
                cpu_s: Some(0.003),
                requests: 3,
                p50_ns: 7
            }]
        );
    }

    #[test]
    fn the_clients_shares_cover_every_request_once() {
        let timed: Vec<u16> = (0..1001).map(|i| (i % 12) as u16).collect();
        let seen: usize = (0..CLIENTS).map(|c| share(&timed, c).count()).sum();
        assert_eq!(seen, timed.len());
        let mut all: Vec<u16> = (0..CLIENTS).flat_map(|c| share(&timed, c)).collect();
        all.sort_unstable();
        let mut sorted = timed.clone();
        sorted.sort_unstable();
        assert_eq!(all, sorted);
    }
}
