//! pvrbench — the pvr runtime's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pvrbench/Cargo.toml -- \
//!     --workload <pingpong|msgrate|jacobi|surge_ft> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload, tracing off, for `--seconds`
//! and prints the end-to-end metrics. With `--trace 1` it alternates
//! untraced and traced runs, runs the isolated layer probes, and prints
//! the per-layer metrics. Either way every run is checked for correct
//! output and for an exact-count fingerprint equal to the first run's,
//! and the last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `pvrbench/README.md` for the workloads and the metric table.

mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use metrics::Metrics;
use spans::{SpanId, SpanLog, ROOT};
use stats::Summary;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Counters, Fingerprint, Job, RunOpts, RunOutcome, Shape, Workload};

/// Fewest measured runs per invocation, however long a run takes.
const MIN_RUNS: usize = 3;
/// Fewest cold builds behind `setup_s`.
const MIN_BUILDS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as a child process (see [`Child`]).
    child: Option<Child>,
}

/// The benchmark's own child processes, each a fresh process that does
/// one thing for the parent and prints its result as its last line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Child {
    /// Build the machine once, cold, and print the build time.
    Build,
    /// Prepare, build and run the workload once, check it, and print the
    /// process's peak RSS.
    Run,
}

impl Child {
    fn name(self) -> &'static str {
        match self {
            Child::Build => "build",
            Child::Run => "run",
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut child = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--child" => {
                child = Some(match value.as_str() {
                    "build" => Child::Build,
                    "run" => Child::Run,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
        child,
    })
}

/// Correctness over all runs of one invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// The first fingerprint seen per run shape.
    fingerprints: Vec<(Option<usize>, Fingerprint)>,
    problems: Vec<String>,
}

impl Tally {
    /// Count a run's checked operations. A run whose fingerprint differs
    /// from the first of its shape (`window`: msgrate's window override)
    /// fails every one of its operations.
    fn add(&mut self, o: &RunOutcome, window: Option<usize>) {
        self.attempted += o.attempted;
        let mut failed = o.failed;
        if let Some(e) = &o.error {
            self.problems.push(e.clone());
        }
        if let Some(fp) = o.counters.as_ref().map(Counters::fingerprint) {
            match self.fingerprints.iter().find(|(w, _)| *w == window) {
                None => self.fingerprints.push((window, fp)),
                Some((_, first)) if *first != fp => {
                    self.problems
                        .push(format!("fingerprint differs: {fp} vs {first}"));
                    failed = o.attempted;
                }
                Some(_) => {}
            }
        }
        if o.failed > 0 {
            self.problems
                .push(format!("{} of {} checks failed", o.failed, o.attempted));
        }
        self.failed += failed;
    }

    /// Count one extra check (trace reconciliation).
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn print_summary(name: &str, s: &Summary, unit: &str) {
    println!(
        "{name:<36} {:>16} {unit:<9} (q1 {}, q3 {}, spread {:.4}, n={})",
        s.median,
        s.q1,
        s.q3,
        s.rel_spread(),
        s.n
    );
}

/// Run this program again as a child process of kind `child` and return
/// the number it prints last.
fn spawn_child(args: &Args, child: Child) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", "1", "--trace", "0", "--child", child.name()])
        .output()
        .map_err(|e| format!("{} child: {e}", child.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} child failed ({}): {stdout}{}",
            child.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| format!("{} child printed no number: {stdout}", child.name()))
}

/// A child process's work (see [`Child`]).
fn run_child(job: &Job, child: Child) -> Result<String, String> {
    match child {
        Child::Build => Ok(secs(job.build_cold()?).to_string()),
        Child::Run => {
            let mut tally = Tally::default();
            tally.add(&job.run_once(&RunOpts::default()), None);
            if tally.failed > 0 || !tally.problems.is_empty() {
                return Err(tally.problems.join("; "));
            }
            Ok(peak_rss_mb()?.to_string())
        }
    }
}

/// `--trace 0`: repeat the workload untraced and report end-to-end metrics.
///
/// Warm runs in this process alternate with cold builds in fresh child
/// processes and with one [`HostRef`] sample each, until the budget is
/// spent, so that all three sample the host over the whole budget.
/// `run_ref` and `op_ref` are the interquartile means (see
/// [`stats::interquartile_mean`]) of the run time and of the per-run
/// median op time, each divided by the interquartile mean of the
/// reference time. `setup_s` is the median build time over the children:
/// a job builds its machine once, cold, and in a long-lived process the
/// build time split between two levels (about 2 and 4.5 ms for msgrate)
/// with whatever memory the allocator had kept from the previous run.
/// `peak_rss_mb` is the `VmHWM` of a child that ran the workload once; in
/// this process it grew by 10-20 % over the runs, in steps that differed
/// from process to process.
fn end_to_end(
    args: &Args,
    job: &Job,
    budget: Duration,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let opts = RunOpts::default();
    let mut host = HostRef::new();
    tally.add(&job.run_once(&opts), None); // warm-up
    host.time();
    let start = Instant::now();
    let mut runs: Vec<RunOutcome> = Vec::new();
    let mut builds: Vec<f64> = Vec::new();
    let mut refs: Vec<f64> = Vec::new();
    while runs.len() < MIN_RUNS || builds.len() < MIN_BUILDS || start.elapsed() < budget {
        let o = job.run_once(&opts);
        tally.add(&o, None);
        runs.push(o);
        builds.push(spawn_child(args, Child::Build)?);
        refs.push(host.time());
    }
    let rss = spawn_child(args, Child::Run)?;
    tally.attempted += job.checks();

    let run_s: Vec<f64> = runs.iter().map(|o| secs(o.run)).collect();
    let op_us: Vec<f64> = runs.iter().map(|o| o.op_us).collect();
    let ref_s = stats::interquartile_mean(&refs);
    println!(
        "{} runs after one warm-up, {} cold builds, {} host reference samples; \
         {} timed ops per run; one op is a {}",
        runs.len(),
        builds.len(),
        refs.len(),
        job.ops(),
        job.workload.op_name()
    );
    print_summary("setup_s", &Summary::of(&builds), "s");
    print_summary("run wall time", &Summary::of(&run_s), "s");
    print_summary("op wall time (per-run p50)", &Summary::of(&op_us), "us");
    print_summary("host reference", &Summary::of(&refs), "s");
    println!(
        "interquartile means: run {} s, op {} us, host reference {} s",
        stats::interquartile_mean(&run_s),
        stats::interquartile_mean(&op_us),
        ref_s
    );
    let mut m = Metrics::new(false);
    m.set("setup_s", stats::median(&builds));
    m.set("run_ref", ratio(stats::interquartile_mean(&run_s), ref_s));
    m.set(
        "op_ref",
        ratio(stats::interquartile_mean(&op_us) * 1e-6, ref_s),
    );
    m.set("peak_rss_mb", rss);
    Ok(m)
}

/// The host reference: a fixed piece of work in the benchmark's own code
/// that no change to the runtime can speed up or slow down. One sample
/// does three things of about a millisecond each, one per kind of host
/// contention seen on a shared VM: it sorts a copy of a fixed 256 KiB
/// array (branches, cache-resident data), copies a 4 MiB buffer (memory
/// bandwidth past the per-core cache), and touches 320 pages of a fresh
/// 40 MiB allocation, which the allocator maps from the kernel and
/// unmaps on drop (page faults). The other buffers are allocated once.
///
/// The host's speed drifts over minutes by more than the end-to-end
/// bounds; the reference, sampled between the runs, drifts with it, so a
/// run time divided by it drifts much less (see `pvrbench/README.md`,
/// Steadiness).
struct HostRef {
    sorted: (Vec<u64>, Vec<u64>),
    copied: (Vec<u8>, Vec<u8>),
}

impl HostRef {
    const FRESH_BYTES: usize = 40 << 20;
    const FRESH_PAGES: usize = 320;

    fn new() -> HostRef {
        let base: Vec<u64> = (0..32_768u64).map(workloads::splitmix).collect();
        HostRef {
            sorted: (base.clone(), base),
            copied: (vec![0x5a; 4 << 20], vec![0; 4 << 20]),
        }
    }

    /// Time one sample, in seconds.
    fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        let (base, work) = &mut self.sorted;
        work.copy_from_slice(base);
        work.sort_unstable();
        let (src, dst) = &mut self.copied;
        dst.copy_from_slice(src);
        let mut fresh = vec![0u8; Self::FRESH_BYTES];
        for page in 0..Self::FRESH_PAGES {
            fresh[page * 4096] = 1;
        }
        std::hint::black_box((&self.sorted, &self.copied, &fresh));
        drop(fresh);
        secs(t0.elapsed())
    }
}

/// Trace counts that must equal the matching `RunReport` totals.
fn reconcile(t: &pvr_trace::TraceCounts, c: &Counters) -> Vec<String> {
    let pairs: [(&str, u64, u64); 17] = [
        ("ctx_switches", t.ctx_switches, c.context_switches),
        ("msgs_recv", t.msgs_recv, c.messages_delivered),
        ("migrations", t.migrations, c.migrations as u64),
        ("lb_steps", t.lb_steps, u64::from(c.lb_steps)),
        ("checkpoints", t.checkpoints, u64::from(c.ckpt_bases)),
        ("ckpt_deltas", t.ckpt_deltas, u64::from(c.ckpt_deltas)),
        ("ckpt_seals", t.ckpt_seals, u64::from(c.ckpt_seals)),
        (
            "ckpt_compacts",
            t.ckpt_compacts,
            u64::from(c.ckpt_compactions),
        ),
        ("recoveries", t.recoveries, u64::from(c.recoveries)),
        ("msg_retransmits", t.msg_retransmits, c.retransmits),
        ("msg_drops", t.msg_drops, c.msgs_dropped),
        ("dup_suppressed", t.dup_suppressed, c.dups_suppressed),
        ("pool_hits", t.pool_hits, c.pool_hits),
        ("pool_misses", t.pool_misses, c.pool_misses),
        ("req_posts", t.req_posts, c.req_posts),
        ("req_completes", t.req_completes, c.req_completes),
        ("req_wait_blocks", t.req_wait_blocks, c.req_wait_blocks),
    ];
    pairs
        .iter()
        .filter(|(_, trace, report)| trace != report)
        .map(|(name, trace, report)| format!("trace {name} = {trace}, RunReport = {report}"))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `--trace 1`: untraced/traced run pairs, one span-recording run, the
/// isolated probes, and the per-layer metrics.
fn per_layer(job: &Job, budget: Duration, tally: &mut Tally) -> Result<Metrics, String> {
    let spans = &job.spans;
    let root = spans.open("pvrbench", ROOT);
    let untraced = RunOpts {
        spans_under: Some(root),
        ..RunOpts::default()
    };
    let traced = || {
        let tracer = pvr_trace::Tracer::new(job.pes());
        tracer.enable();
        RunOpts {
            tracer: Some(tracer),
            ..untraced.clone()
        }
    };
    let mut host = HostRef::new();
    tally.add(&job.run_once(&RunOpts::default()), None); // warm-up
    host.time();

    // Alternate untraced and traced runs for three quarters of the budget;
    // the probes take the rest.
    let start = Instant::now();
    let (mut plain, mut with_trace): (Vec<RunOutcome>, Vec<RunOutcome>) = (Vec::new(), Vec::new());
    let mut refs: Vec<f64> = Vec::new();
    let mut trace_counts = None;
    while plain.len() < MIN_RUNS || start.elapsed() < budget * 3 / 4 {
        let o = job.run_once(&untraced);
        tally.add(&o, None);
        plain.push(o);
        refs.push(host.time());
        let opts = traced();
        let o = job.run_once(&opts);
        tally.add(&o, None);
        let tracer = opts.tracer.expect("traced run has a tracer");
        let counts = tracer.counts();
        if let Some(c) = &o.counters {
            let mismatches = reconcile(&counts, c);
            tally.check(mismatches.is_empty(), || mismatches.join("; "));
        }
        trace_counts.get_or_insert((counts.total_events(), tracer.dropped()));
        with_trace.push(o);
    }
    // One more traced run whose rank bodies record their step spans.
    let span_run = job.run_once(&RunOpts {
        body_spans: true,
        ..traced()
    });
    tally.add(&span_run, None);

    let c = plain[0].counters.clone().unwrap_or_default();
    let run_times: Vec<f64> = plain.iter().map(|o| secs(o.run)).collect();
    let traced_times: Vec<f64> = with_trace.iter().map(|o| secs(o.run)).collect();
    // the same estimators as the end-to-end metrics
    let run_s = stats::interquartile_mean(&run_times);
    let op_us = stats::interquartile_mean(&plain.iter().map(|o| o.op_us).collect::<Vec<_>>());
    let ref_s = stats::interquartile_mean(&refs);
    let ops = job.ops() as f64;
    let n_ranks = job.ranks() as f64;
    let mut m = Metrics::new(true);

    // wall: the end-to-end metrics' parts, in host time
    m.set("wall.run_s", run_s);
    m.set("wall.op_us_p50", op_us);
    m.set("wall.host_ref_us", ref_s * 1e6);

    // rts: scheduler, engine, messages, requests
    m.set(
        "rts.ns_per_switch",
        ratio(run_s * 1e9, c.context_switches as f64),
    );
    m.set("rts.ctx_switches_per_op", c.context_switches as f64 / ops);
    m.set("rts.epochs_per_op", c.epochs as f64 / ops);
    m.set("rts.context_switches", c.context_switches as f64);
    m.set("rts.messages_delivered", c.messages_delivered as f64);
    m.set("rts.epochs", c.epochs as f64);
    m.set(
        "rts.pool_hit_frac",
        ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
    );
    m.set("rts.req_posts", c.req_posts as f64);
    m.set("rts.req_wait_blocks", c.req_wait_blocks as f64);
    let busy: Vec<f64> = plain
        .iter()
        .filter_map(|o| o.counters.as_ref())
        .map(|c| {
            ratio(
                c.worker_wall_ns as f64,
                (c.threads as f64) * c.real_elapsed_ns as f64,
            )
        })
        .collect();
    m.set("rts.worker_busy_frac", stats::median(&busy));
    m.set("rts.barriers", c.barriers as f64);

    // rts: LB, migration, checkpoints, reliable delivery
    m.set("rts.lb_steps", f64::from(c.lb_steps));
    m.set("rts.migrations", c.migrations as f64);
    m.set(
        "rts.migration_mb",
        c.migration_bytes as f64 / (1 << 20) as f64,
    );
    let mig_ms: Vec<f64> = plain
        .iter()
        .filter_map(|o| o.counters.as_ref())
        .map(|c| c.migration_wall_ns as f64 / 1e6)
        .collect();
    m.set("rts.migration_wall_ms", stats::median(&mig_ms));
    m.set("rts.ckpt_bases", f64::from(c.ckpt_bases));
    m.set("rts.ckpt_deltas", f64::from(c.ckpt_deltas));
    m.set(
        "rts.ckpt_delta_mb",
        c.ckpt_delta_bytes as f64 / (1 << 20) as f64,
    );
    m.set("rts.ckpt_seals", f64::from(c.ckpt_seals));
    m.set("rts.ckpt_compactions", f64::from(c.ckpt_compactions));
    let pause_ms: Vec<f64> = plain
        .iter()
        .filter_map(|o| o.counters.as_ref())
        .map(|c| {
            ratio(
                c.ckpt_pause_ns as f64 / 1e6,
                f64::from(c.ckpt_bases + c.ckpt_deltas),
            )
        })
        .collect();
    m.set("rts.ckpt_pause_ms", stats::median(&pause_ms));
    m.set("rts.recoveries", f64::from(c.recoveries));
    m.set("rts.retransmits", c.retransmits as f64);
    m.set("rts.msgs_dropped", c.msgs_dropped as f64);
    m.set("rts.dups_suppressed", c.dups_suppressed as f64);

    // privatize: counters of the built machine and the COW report
    m.set(
        "privatize.copied_kb_per_rank",
        plain[0].copied_bytes_per_rank as f64 / 1024.0,
    );
    m.set(
        "privatize.cow_resident_kb_per_rank",
        (c.cow_pages_privatized * pvr_progimage::DEFAULT_PAGE_SIZE as u64) as f64
            / 1024.0
            / n_ranks,
    );

    // sim: model outcomes, not speed
    m.set("sim.makespan_ms", c.sim_elapsed_ns as f64 / 1e6);
    m.set("sim.pe_utilization", c.utilization);

    // trace
    let (events, dropped) = trace_counts.unwrap_or_default();
    m.set(
        "trace.overhead_pct",
        (ratio(stats::interquartile_mean(&traced_times), run_s) - 1.0) * 100.0,
    );
    m.set("trace.events", events as f64);
    m.set("trace.dropped", dropped as f64);

    // ampi: spans of the benchmark's own pingpong and msgrate bodies
    let all = spans.snapshot();
    let p50 = |name: &str| stats::median(&spans::durations_ns(&all, name));
    let (mut send_ns, mut recv_us, mut rtt_p99, mut post_ns, mut waitall_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut shallow_ns, mut deep_ns) = (0.0, 0.0);
    match job.workload {
        Workload::Pingpong => {
            send_ns = p50("ampi.send");
            recv_us = p50("ampi.recv") / 1e3;
            rtt_p99 = stats::percentile(&spans::durations_ns(&all, "pingpong.rtt"), 99.0) / 1e3;
        }
        Workload::Msgrate => {
            post_ns = p50("ampi.irecv_post") / job.shape.msgrate_window as f64;
            waitall_ms = p50("ampi.waitall") / 1e6;
            let deep: Vec<f64> = plain.iter().map(|o| o.op_us).collect();
            deep_ns = stats::median(&deep) * 1e3;
            let shallow_opts = RunOpts {
                window: Some(1),
                ..RunOpts::default()
            };
            let mut shallow = Vec::new();
            for _ in 0..2 {
                let id = spans.open("probe.msgrate_shallow", root);
                let o = job.run_once(&shallow_opts);
                spans.close(id);
                tally.add(&o, shallow_opts.window);
                shallow.push(o.op_us);
            }
            shallow_ns = stats::median(&shallow) * 1e3;
        }
        Workload::Jacobi | Workload::SurgeFt => {}
    }
    m.set("ampi.send_ns_p50", send_ns);
    m.set("ampi.recv_us_p50", recv_us);
    m.set("ampi.rtt_us_p99", rtt_p99);
    m.set("ampi.irecv_post_ns_p50", post_ns);
    m.set("ampi.waitall_ms_p50", waitall_ms);
    m.set("rts.msg_ns_shallow", shallow_ns);
    m.set("rts.msg_ns_deep", deep_ns);

    // isolated layer probes, shaped by this workload's counters
    let probes = spans.open("probes", root);
    let seed = job.seed;
    let s = probes::ult_switch_ns(spans, probes);
    print_summary("probe ult.switch_ns", &s, "ns");
    m.set("ult.switch_ns", s.median);
    let s = probes::msg_lifecycle_ns(spans, probes, seed);
    print_summary("probe rts.msg_lifecycle_ns", &s, "ns");
    m.set("rts.msg_lifecycle_ns", s.median);
    let per_epoch = ratio(c.messages_delivered as f64, c.epochs as f64)
        .round()
        .max(1.0) as usize;
    let s = probes::des_drain_ns(spans, probes, seed, per_epoch);
    print_summary(
        &format!("probe des.drain_ns_per_event @{per_epoch}/epoch"),
        &s,
        "ns",
    );
    m.set("des.drain_ns_per_event", s.median);
    let s = probes::lb_rebalance_us(spans, probes, seed, job.ranks(), job.pes());
    print_summary("probe rts.lb_rebalance_us", &s, "us");
    m.set("rts.lb_rebalance_us", s.median);
    let image = if c.migrations > 0 {
        (c.migration_bytes / c.migrations as u64) as usize
    } else {
        job.stack_size() + plain[0].copied_bytes_per_rank
    };
    let (pack, unpack) = probes::pack_unpack_gb_s(spans, probes, seed, image);
    print_summary(
        &format!("probe isomalloc.pack_gb_s @{image} B"),
        &pack,
        "GB/s",
    );
    print_summary("probe isomalloc.unpack_gb_s", &unpack, "GB/s");
    m.set("isomalloc.pack_gb_s", pack.median);
    m.set("isomalloc.unpack_gb_s", unpack.median);
    let s = probes::instantiate_us_per_rank(spans, probes, &job.binary, job.method(), job.ranks());
    print_summary(
        &format!("probe privatize.instantiate_us_per_rank ({})", job.method()),
        &s,
        "us",
    );
    m.set("privatize.instantiate_us_per_rank", s.median);
    let (mut kernel, mut efficiency) = (0.0, 0.0);
    if job.workload == Workload::Jacobi {
        let s = probes::jacobi_kernel_mpts(spans, probes, job.jacobi_points(), || {
            job.jacobi_serial_reference()
        });
        print_summary("probe apps.jacobi_kernel_mpts_s", &s, "Mpt/s");
        kernel = s.median;
        efficiency = ratio(job.jacobi_points() / run_s / 1e6, kernel);
    }
    m.set("apps.jacobi_kernel_mpts_s", kernel);
    m.set("apps.runtime_efficiency", efficiency);
    spans.close(probes);
    spans.close(root);

    print_summary("run_s (untraced)", &Summary::of(&run_times), "s");
    print_summary("run_s (traced)", &Summary::of(&traced_times), "s");
    report_spans(job, &spans.snapshot())?;
    Ok(m)
}

/// Print self time per span name and write every span out as JSON.
fn report_spans(job: &Job, all: &[spans::Span]) -> Result<(), String> {
    println!(
        "{:<28} {:>9} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in spans::totals(all) {
        println!(
            "{name:<28} {:>9} {:>14} {:>14}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        job.workload.name(),
        job.seed
    ));
    std::fs::write(&path, spans::to_json(all)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    let spans = Arc::new(SpanLog::default());
    let prep: SpanId = spans.open("prepare", ROOT);
    // A build child needs no reference results.
    let references = args.child != Some(Child::Build);
    let job = Job::prepare(
        args.workload,
        args.seed,
        Shape::FULL,
        spans.clone(),
        references,
    );
    spans.close(prep);
    if let Some(child) = args.child {
        return run_child(&job, child);
    }
    println!(
        "pvrbench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&job, budget, &mut tally)?
    } else {
        end_to_end(args, &job, budget, &mut tally)?
    };
    for (name, value, unit) in metrics.entries() {
        println!("{name:<36} {value:>16} {unit}");
    }
    for (window, fp) in &tally.fingerprints {
        let shape = window.map_or(String::new(), |w| format!(" (window {w})"));
        println!("fingerprint{shape}: {fp}");
    }
    for p in &tally.problems {
        println!("FAILED: {p}");
    }
    println!(
        "correctness: attempted={} failed={} fail_frac={}",
        tally.attempted,
        tally.failed,
        ratio(tally.failed as f64, tally.attempted as f64)
    );
    let correct = tally.failed == 0 && tally.problems.is_empty();
    Ok(metrics::result_line(
        correct,
        tally.attempted,
        tally.failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pvrbench: {e}");
            eprintln!("usage: pvrbench --workload <pingpong|msgrate|jacobi|surge_ft> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pvrbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload msgrate --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Msgrate);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    /// The per-layer pass of `workload` at a tiny shape: its metric names
    /// and its correctness tally.
    fn tiny_per_layer(workload: Workload, seed: u64) -> (Vec<&'static str>, Tally) {
        let spans = Arc::new(SpanLog::default());
        let job = Job::prepare(workload, seed, Shape::TINY, spans, true);
        let mut tally = Tally::default();
        let m = per_layer(&job, Duration::ZERO, &mut tally).expect("per-layer pass completes");
        (
            m.entries().into_iter().map(|(name, _, _)| name).collect(),
            tally,
        )
    }

    #[test]
    fn the_seed_changes_inputs_but_not_the_metric_set() {
        let declared: Vec<&str> = metrics::PER_LAYER.iter().map(|(n, _)| *n).collect();
        for workload in [Workload::Pingpong, Workload::Msgrate] {
            let (names_a, tally_a) = tiny_per_layer(workload, 101);
            let (names_b, tally_b) = tiny_per_layer(workload, 102);
            assert_eq!(names_a, declared);
            assert_eq!(names_b, declared);
            for t in [tally_a, tally_b] {
                assert!(
                    t.attempted > 0 && t.failed == 0,
                    "{workload:?}: {:?}",
                    t.problems
                );
            }
        }
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload jacobi --seed x --seconds 1 --trace 0",
            "--workload jacobi --seed 1 --seconds 0 --trace 0",
            "--workload jacobi --seed 1 --seconds 1 --trace 2",
            "--workload jacobi --seed 1 --seconds 1",
            "--workload jacobi --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload jacobi --seed 1 --seconds 1 --trace 0 --child nope",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted: {bad}");
        }
    }
}
