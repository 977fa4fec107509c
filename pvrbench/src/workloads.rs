//! The four workloads, each driven through the public
//! `MachineBuilder::build` → `Machine::run` path.
//!
//! A workload is a fixed-size job: the same seed gives the same inputs,
//! the same run length and the same exact-count fingerprint. `main.rs`
//! repeats jobs until its time budget is spent; every job builds a fresh
//! machine, so no state carries from one run to the next.

use crate::spans::{SpanId, SpanLog};
use bytes::Bytes;
use parking_lot::Mutex;
use pvr_ampi::{Ampi, RecvReq, COMM_WORLD};
use pvr_apps::jacobi3d::{self, JacobiConfig};
use pvr_apps::surge::{self, SurgeConfig};
use pvr_des::{FaultParams, FaultPlan, HopClass, NetworkModel, Topology};
use pvr_privatize::Method;
use pvr_progimage::ProgramBinary;
use pvr_rts::lb::GreedyRefineLb;
use pvr_rts::{ClockMode, MachineBuilder, Parallelism, RankCtx, RunReport};
use pvr_trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pingpong,
    Msgrate,
    Jacobi,
    SurgeFt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pingpong,
        Workload::Msgrate,
        Workload::Jacobi,
        Workload::SurgeFt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pingpong => "pingpong",
            Workload::Msgrate => "msgrate",
            Workload::Jacobi => "jacobi",
            Workload::SurgeFt => "surge_ft",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one timed operation of `op_ref` is on this workload.
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::Pingpong => "round trip",
            Workload::Msgrate => "message (window time / window size)",
            Workload::Jacobi => "Jacobi iteration over the global grid (run time / iterations)",
            Workload::SurgeFt => "surge time step (run time / steps)",
        }
    }
}

/// Run lengths. [`Shape::FULL`] is the benchmark's; tests use a tiny one.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub pingpong_rtts: usize,
    pub msgrate_windows: usize,
    pub msgrate_window: usize,
    pub jacobi_iters: usize,
    pub surge_steps: usize,
}

impl Shape {
    pub const FULL: Shape = Shape {
        pingpong_rtts: 5_000,
        msgrate_windows: 10,
        msgrate_window: 1000,
        jacobi_iters: 8,
        surge_steps: 60,
    };

    /// A few operations per workload, for the benchmark's own tests.
    #[cfg(test)]
    pub const TINY: Shape = Shape {
        pingpong_rtts: 20,
        msgrate_windows: 2,
        msgrate_window: 16,
        jacobi_iters: 2,
        surge_steps: 40,
    };
}

/// Pingpong payload: 32 bytes, inside the 64-byte inline message limit.
pub const PINGPONG_BYTES: usize = 32;
const DATA_TAG: u32 = 0;
/// Tag of msgrate's "window posted" signal; data tags are `0..window`.
const GO_TAG: u32 = 1 << 20;

/// Jacobi per-rank block: 64 x 64 x 16 points, 16 ranks in z slabs.
pub const JACOBI_NX: usize = 64;
pub const JACOBI_NY: usize = 64;
pub const JACOBI_NZ: usize = 16;
pub const JACOBI_PES: usize = 4;
pub const JACOBI_VP: usize = 4;

const SURGE_PES: usize = 4;
const SURGE_VP: usize = 4;
const SURGE_CODE_BYTES: usize = 1 << 20;
/// `inject_pe_failure_at_lb_step(3, 3)`: PE 3 dies at the third LB step.
const SURGE_FAIL_AT: (u32, usize) = (3, 3);

pub fn surge_config(steps: usize) -> SurgeConfig {
    SurgeConfig {
        nx: 128,
        ny: 512,
        steps,
        lb_period: 10,
        storm_speed: 5.0,
        flops_per_wet_cell: 400.0,
    }
}

/// surge_ft's lossy interconnect: inter-node copies dropped 1 %,
/// duplicated 1 %, corrupted 0.5 %, decided by a plan keyed on the seed.
pub fn surge_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_class(
        HopClass::InterNode,
        FaultParams {
            drop_p: 0.01,
            dup_p: 0.01,
            corrupt_p: 0.005,
            ..FaultParams::CLEAN
        },
    )
}

/// splitmix64: the benchmark's only source of generated inputs.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The 32-byte pingpong payload of round trip `i`.
pub fn pingpong_payload(seed: u64, i: usize) -> Bytes {
    let mut buf = [0u8; PINGPONG_BYTES];
    for (k, word) in buf.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&splitmix(seed ^ ((i as u64) << 8 | k as u64)).to_le_bytes());
    }
    Bytes::copy_from_slice(&buf)
}

/// The msgrate payload of `tag` in window `w`: it names its own tag, so a
/// receive that completes with another tag's message is caught.
pub fn msgrate_payload(seed: u64, w: usize, tag: u32) -> Bytes {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&(((w as u64) << 32) | tag as u64).to_le_bytes());
    buf[8..].copy_from_slice(&splitmix(seed ^ tag as u64).to_le_bytes());
    Bytes::copy_from_slice(&buf)
}

/// A seeded permutation of the tags `0..n` (Fisher-Yates).
pub fn tag_permutation(seed: u64, n: usize) -> Vec<u32> {
    let mut tags: Vec<u32> = (0..n as u32).collect();
    let mut x = seed;
    for i in (1..n).rev() {
        x = splitmix(x);
        tags.swap(i, (x % (i as u64 + 1)) as usize);
    }
    tags
}

/// A distributed Jacobi residual agrees with the serial reference when it
/// is within 1e-12 of it, relative: the ranks' partial sums are reduced in
/// another order than the serial loop adds them, and at the workload's
/// residual (about 750) one ulp is already 1.1e-13.
pub fn jacobi_residual_ok(residual: f64, reference: f64) -> bool {
    (residual - reference).abs() <= 1e-12 * reference.abs()
}

/// Distinct tag orders the sender cycles through, one per window.
const PERMUTATIONS: usize = 8;

/// What rank bodies hand back to `run_once`.
#[derive(Debug, Default)]
struct Collected {
    /// Per-operation host times in microseconds (pingpong round trips,
    /// msgrate per-message window times).
    op_us: Vec<f64>,
    checked: u64,
    bad: u64,
    /// Per-rank results: Jacobi residual, or surge (max_eta, wet updates).
    jacobi: BTreeMap<usize, f64>,
    surge: BTreeMap<usize, (f64, u64)>,
}

/// RunReport counters the benchmark reads, copied out of the report.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub context_switches: u64,
    pub messages_delivered: u64,
    pub epochs: u64,
    pub barriers: u64,
    pub threads: usize,
    pub worker_wall_ns: u64,
    pub real_elapsed_ns: u64,
    pub lb_steps: u32,
    pub migrations: usize,
    pub migration_bytes: u64,
    pub migration_wall_ns: u64,
    pub ckpt_bases: u32,
    pub ckpt_deltas: u32,
    pub ckpt_delta_bytes: u64,
    pub ckpt_seals: u32,
    pub ckpt_compactions: u32,
    pub ckpt_pause_ns: u64,
    pub recoveries: u32,
    pub retransmits: u64,
    pub msgs_dropped: u64,
    pub dups_suppressed: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub req_posts: u64,
    pub req_completes: u64,
    pub req_wait_blocks: u64,
    pub cow_pages_privatized: u64,
    pub sim_elapsed_ns: u64,
    pub utilization: f64,
}

impl Counters {
    fn of(r: &RunReport) -> Counters {
        Counters {
            context_switches: r.context_switches,
            messages_delivered: r.messages_delivered,
            epochs: r.engine.epochs,
            barriers: r.engine.barriers,
            threads: r.engine.threads,
            worker_wall_ns: r
                .engine
                .worker_wall
                .iter()
                .map(|d| d.as_nanos() as u64)
                .sum(),
            real_elapsed_ns: r.real_elapsed.as_nanos() as u64,
            lb_steps: r.lb_steps,
            migrations: r.migrations.len(),
            migration_bytes: r.total_migration_bytes() as u64,
            migration_wall_ns: r
                .migrations
                .iter()
                .map(|m| m.real_time.as_nanos() as u64)
                .sum(),
            ckpt_bases: r.faults.checkpoints,
            ckpt_deltas: r.ckpt.deltas,
            ckpt_delta_bytes: r.ckpt.delta_bytes,
            ckpt_seals: r.ckpt.seals,
            ckpt_compactions: r.ckpt.compactions,
            ckpt_pause_ns: r.ckpt.pause_ns,
            recoveries: r.faults.recoveries,
            retransmits: r.faults.retransmits,
            msgs_dropped: r.faults.msgs_dropped,
            dups_suppressed: r.faults.duplicates_suppressed,
            pool_hits: r.engine.pool_hits,
            pool_misses: r.engine.pool_misses,
            req_posts: r.req.send_posts + r.req.recv_posts,
            req_completes: r.req.send_completes + r.req.recv_completes,
            req_wait_blocks: r.req.wait_blocks,
            cow_pages_privatized: r.cow.pages_privatized,
            sim_elapsed_ns: r.sim_elapsed.nanos(),
            utilization: r.mean_utilization(),
        }
    }

    /// The exact-count fingerprint: two runs of one seed must agree on
    /// every field, or the program is nondeterministic.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            context_switches: self.context_switches,
            messages_delivered: self.messages_delivered,
            epochs: self.epochs,
            lb_steps: self.lb_steps,
            migrations: self.migrations,
            ckpt_bases: self.ckpt_bases,
            ckpt_deltas: self.ckpt_deltas,
            retransmits: self.retransmits,
            sim_elapsed_ns: self.sim_elapsed_ns,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub context_switches: u64,
    pub messages_delivered: u64,
    pub epochs: u64,
    pub lb_steps: u32,
    pub migrations: usize,
    pub ckpt_bases: u32,
    pub ckpt_deltas: u32,
    pub retransmits: u64,
    pub sim_elapsed_ns: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "context_switches={} messages_delivered={} epochs={} lb_steps={} migrations={} \
             ckpt_bases={} ckpt_deltas={} retransmits={} sim_elapsed_ns={}",
            self.context_switches,
            self.messages_delivered,
            self.epochs,
            self.lb_steps,
            self.migrations,
            self.ckpt_bases,
            self.ckpt_deltas,
            self.retransmits,
            self.sim_elapsed_ns
        )
    }
}

/// The outcome of one build + run.
#[derive(Debug)]
pub struct RunOutcome {
    pub run: Duration,
    /// `None` when the run failed with an `RtsError`.
    pub counters: Option<Counters>,
    pub error: Option<String>,
    /// Checked operations, and how many of them failed. An error fails
    /// every operation of its run.
    pub attempted: u64,
    pub failed: u64,
    /// Host time per timed operation, in microseconds: the median over
    /// the run's own samples where the body times each operation.
    pub op_us: f64,
    /// `Machine::per_rank_copied_bytes` of the built machine.
    pub copied_bytes_per_rank: usize,
}

/// Options of one run beyond the workload itself.
#[derive(Clone, Default)]
pub struct RunOpts {
    pub tracer: Option<Arc<Tracer>>,
    /// Record `build` and `run` spans under this parent.
    pub spans_under: Option<SpanId>,
    /// Rank bodies record their step spans under the `run` span.
    pub body_spans: bool,
    /// msgrate only: the window size (default: the shape's). The number
    /// of windows scales so that a run sends the same messages.
    pub window: Option<usize>,
}

/// Per-invocation state: the seed, the linked binary and the reference
/// results every run is checked against.
pub struct Job {
    pub workload: Workload,
    pub seed: u64,
    pub shape: Shape,
    pub binary: Arc<ProgramBinary>,
    pub spans: Arc<SpanLog>,
    jacobi_reference: f64,
    surge_reference: BTreeMap<usize, (f64, u64)>,
}

impl Job {
    /// Link the workload's binary and, with `references`, compute the
    /// reference results runs are checked against.
    pub fn prepare(
        workload: Workload,
        seed: u64,
        shape: Shape,
        spans: Arc<SpanLog>,
        references: bool,
    ) -> Job {
        let binary = match workload {
            Workload::Pingpong | Workload::Msgrate | Workload::Jacobi => jacobi3d::binary(),
            Workload::SurgeFt => surge::binary_with_code(SURGE_CODE_BYTES),
        };
        let mut job = Job {
            workload,
            seed,
            shape,
            binary,
            spans,
            jacobi_reference: 0.0,
            surge_reference: BTreeMap::new(),
        };
        if !references {
            return job;
        }
        match workload {
            Workload::Jacobi => job.jacobi_reference = job.jacobi_serial_reference(),
            Workload::SurgeFt => {
                // The same job on a fault-free network with no PE failure:
                // the physics must come out identical.
                let sink = Arc::new(Mutex::new(Collected::default()));
                let mut m = job
                    .builder(&RunOpts::default(), false)
                    .build(job.body(sink.clone(), &RunOpts::default()))
                    .expect("fault-free surge reference builds");
                m.run().expect("fault-free surge reference runs");
                drop(m);
                job.surge_reference = std::mem::take(&mut sink.lock().surge);
            }
            Workload::Pingpong | Workload::Msgrate => {}
        }
        job
    }

    pub fn method(&self) -> Method {
        match self.workload {
            Workload::Pingpong | Workload::Msgrate => Method::TlsGlobals,
            Workload::Jacobi => Method::PieGlobals,
            Workload::SurgeFt => Method::CowGlobals,
        }
    }

    pub fn ranks(&self) -> usize {
        match self.workload {
            Workload::Pingpong | Workload::Msgrate => 2,
            Workload::Jacobi => JACOBI_PES * JACOBI_VP,
            Workload::SurgeFt => SURGE_PES * SURGE_VP,
        }
    }

    pub fn pes(&self) -> usize {
        match self.workload {
            Workload::Pingpong | Workload::Msgrate => 2,
            Workload::Jacobi => JACOBI_PES,
            Workload::SurgeFt => SURGE_PES,
        }
    }

    pub fn stack_size(&self) -> usize {
        match self.workload {
            Workload::Pingpong | Workload::Msgrate | Workload::Jacobi => 256 * 1024,
            Workload::SurgeFt => 192 * 1024,
        }
    }

    /// Grid-point updates of one Jacobi run.
    pub fn jacobi_points(&self) -> f64 {
        (JACOBI_NX * JACOBI_NY * JACOBI_NZ * self.ranks() * self.shape.jacobi_iters) as f64
    }

    /// `jacobi3d::serial_reference` on the workload's global grid.
    pub fn jacobi_serial_reference(&self) -> f64 {
        jacobi3d::serial_reference(
            JACOBI_NX,
            JACOBI_NY,
            JACOBI_NZ * self.ranks(),
            self.shape.jacobi_iters,
        )
    }

    /// Timed operations per run.
    pub fn ops(&self) -> u64 {
        let s = &self.shape;
        match self.workload {
            Workload::Pingpong => s.pingpong_rtts as u64,
            Workload::Msgrate => (s.msgrate_windows * s.msgrate_window) as u64,
            Workload::Jacobi => s.jacobi_iters as u64,
            Workload::SurgeFt => s.surge_steps as u64,
        }
    }

    /// Checked operations per run.
    pub fn checks(&self) -> u64 {
        match self.workload {
            Workload::Pingpong | Workload::Msgrate => self.ops(),
            Workload::Jacobi => self.ranks() as u64,
            // every rank's physics, plus the run's one recovery
            Workload::SurgeFt => self.ranks() as u64 + 1,
        }
    }

    fn window(&self, opts: &RunOpts) -> usize {
        opts.window.unwrap_or(self.shape.msgrate_window).max(1)
    }

    fn windows(&self, opts: &RunOpts) -> usize {
        self.shape.msgrate_windows * self.shape.msgrate_window / self.window(opts)
    }

    /// The machine configuration. `faulty` selects surge_ft's lossy
    /// network and PE failure (off only for its fault-free reference).
    fn builder(&self, opts: &RunOpts, faulty: bool) -> MachineBuilder {
        let mut b = MachineBuilder::new(self.binary.clone())
            .method(self.method())
            .clock(ClockMode::Virtual)
            .stack_size(self.stack_size());
        b = match self.workload {
            Workload::Pingpong | Workload::Msgrate => b
                .topology(Topology::non_smp(2))
                .vp_ratio(1)
                .parallelism(Parallelism::Serial),
            Workload::Jacobi => b
                .topology(Topology::non_smp(JACOBI_PES))
                .vp_ratio(JACOBI_VP)
                .network(NetworkModel::ideal())
                .parallelism(Parallelism::Threads(2)),
            Workload::SurgeFt => {
                let b = b
                    .topology(Topology::non_smp(SURGE_PES))
                    .vp_ratio(SURGE_VP)
                    .balancer(Box::new(GreedyRefineLb::default()))
                    .parallelism(Parallelism::Threads(2))
                    .checkpoint_period(1)
                    .ckpt_incremental(true);
                if faulty {
                    b.network(NetworkModel::infiniband().with_faults(surge_fault_plan(self.seed)))
                        .inject_pe_failure_at_lb_step(SURGE_FAIL_AT.0, SURGE_FAIL_AT.1)
                } else {
                    b.network(NetworkModel::infiniband())
                }
            }
        };
        if let Some(t) = &opts.tracer {
            b = b.tracer(t.clone());
        }
        b
    }

    /// Build the machine once and drop it unrun: `setup_s` in a fresh
    /// process.
    pub fn build_cold(&self) -> Result<Duration, String> {
        let sink = Arc::new(Mutex::new(Collected::default()));
        let builder = self.builder(&RunOpts::default(), true);
        let body = self.body(sink, &RunOpts::default());
        let t0 = Instant::now();
        let built = builder.build(body);
        let setup = t0.elapsed();
        built.map(|_| setup).map_err(|e| format!("build: {e:?}"))
    }

    /// Build a fresh machine and run it once, timing the run.
    pub fn run_once(&self, opts: &RunOpts) -> RunOutcome {
        let sink = Arc::new(Mutex::new(Collected::default()));
        let builder = self.builder(opts, true);
        let body = self.body(sink.clone(), opts);
        let span = |name| opts.spans_under.map(|parent| self.spans.open(name, parent));
        let close = |id: Option<SpanId>| id.map(|id| self.spans.close(id));
        let build_span = span("build");
        let built = builder.build(body);
        close(build_span);
        let attempted = self.checks();
        let mut out = RunOutcome {
            run: Duration::ZERO,
            counters: None,
            error: None,
            attempted,
            failed: attempted,
            op_us: 0.0,
            copied_bytes_per_rank: 0,
        };
        let mut machine = match built {
            Ok(m) => m,
            Err(e) => {
                out.error = Some(format!("build: {e:?}"));
                return out;
            }
        };
        out.copied_bytes_per_rank = machine.per_rank_copied_bytes();
        let run_span = span(if opts.tracer.is_some() {
            "run.traced"
        } else {
            "run"
        });
        if let Some(id) = run_span {
            self.spans.set_body_parent(id);
        }
        let t0 = Instant::now();
        let result = machine.run();
        out.run = t0.elapsed();
        close(run_span);
        drop(machine);
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                out.error = Some(format!("run: {e:?}"));
                return out;
            }
        };
        let counters = Counters::of(&report);
        let got = std::mem::take(&mut *sink.lock());
        out.failed = self.failures(&got, &counters, attempted);
        out.op_us = match self.workload {
            Workload::Pingpong | Workload::Msgrate => crate::stats::median(&got.op_us),
            Workload::Jacobi | Workload::SurgeFt => out.run.as_secs_f64() * 1e6 / self.ops() as f64,
        };
        out.counters = Some(counters);
        out
    }

    /// Failed checked operations of a completed run.
    fn failures(&self, got: &Collected, c: &Counters, attempted: u64) -> u64 {
        match self.workload {
            // operations that never reported back count as failed too
            Workload::Pingpong | Workload::Msgrate => {
                got.bad + attempted.saturating_sub(got.checked)
            }
            Workload::Jacobi => (0..self.ranks())
                .filter(|r| {
                    got.jacobi
                        .get(r)
                        .is_none_or(|res| !jacobi_residual_ok(*res, self.jacobi_reference))
                })
                .count() as u64,
            Workload::SurgeFt => {
                let bad_ranks = (0..self.ranks())
                    .filter(|r| match (got.surge.get(r), self.surge_reference.get(r)) {
                        (Some(&(eta, wet)), Some(&(ref_eta, ref_wet))) => {
                            eta.to_bits() != ref_eta.to_bits() || wet != ref_wet
                        }
                        _ => true,
                    })
                    .count() as u64;
                bad_ranks + u64::from(c.recoveries != 1)
            }
        }
    }

    fn body(
        &self,
        sink: Arc<Mutex<Collected>>,
        opts: &RunOpts,
    ) -> Arc<dyn Fn(RankCtx) + Send + Sync + 'static> {
        let seed = self.seed;
        let spans = self.spans.clone();
        let record = opts.body_spans;
        match self.workload {
            Workload::Pingpong => {
                let n = self.shape.pingpong_rtts;
                Arc::new(move |ctx: RankCtx| {
                    let mpi = Ampi::init(ctx);
                    if mpi.rank() == 0 {
                        pingpong_client(&mpi, seed, n, &spans, record, &sink);
                    } else {
                        for _ in 0..n {
                            let (data, _) = mpi.recv_bytes(COMM_WORLD, Some(0), Some(DATA_TAG));
                            mpi.send_bytes(COMM_WORLD, 0, DATA_TAG, data);
                        }
                    }
                })
            }
            Workload::Msgrate => {
                let windows = self.windows(opts);
                let window = self.window(opts);
                Arc::new(move |ctx: RankCtx| {
                    let mpi = Ampi::init(ctx);
                    if mpi.rank() == 0 {
                        msgrate_sender(&mpi, seed, windows, window);
                    } else {
                        msgrate_receiver(&mpi, seed, windows, window, &spans, record, &sink);
                    }
                })
            }
            Workload::Jacobi => {
                let cfg = JacobiConfig {
                    nx: JACOBI_NX,
                    ny: JACOBI_NY,
                    nz: JACOBI_NZ,
                    iters: self.shape.jacobi_iters,
                };
                Arc::new(move |ctx: RankCtx| {
                    let mpi = Ampi::init(ctx);
                    let stats = jacobi3d::run(&mpi, cfg);
                    let ok = stats.iters_done == cfg.iters as u64;
                    let residual = if ok { stats.residual } else { f64::NAN };
                    sink.lock().jacobi.insert(mpi.rank(), residual);
                })
            }
            Workload::SurgeFt => {
                let cfg = surge_config(self.shape.surge_steps);
                Arc::new(move |ctx: RankCtx| {
                    let mpi = Ampi::init(ctx);
                    let stats = surge::run(&mpi, cfg);
                    sink.lock()
                        .surge
                        .insert(mpi.rank(), (stats.max_eta, stats.total_wet_updates));
                })
            }
        }
    }
}

/// Rank 0 of pingpong: a closed loop of blocking round trips, each timed
/// around `send_bytes` + `recv_bytes`, the echo compared to what was sent.
fn pingpong_client(
    mpi: &Ampi,
    seed: u64,
    n: usize,
    spans: &SpanLog,
    record: bool,
    sink: &Mutex<Collected>,
) {
    let mut rtt_us = Vec::with_capacity(n);
    let mut steps: Vec<[u64; 3]> = Vec::with_capacity(if record { n } else { 0 });
    let mut bad = 0;
    for i in 0..n {
        let payload = pingpong_payload(seed, i);
        let t0 = spans.now_ns();
        mpi.send_bytes(COMM_WORLD, 1, DATA_TAG, payload.clone());
        let t1 = spans.now_ns();
        let (echo, _) = mpi.recv_bytes(COMM_WORLD, Some(1), Some(DATA_TAG));
        let t2 = spans.now_ns();
        rtt_us.push((t2 - t0) as f64 / 1e3);
        if record {
            steps.push([t0, t1, t2]);
        }
        bad += u64::from(echo != payload);
    }
    if record {
        let parent = spans.body_parent();
        for [t0, t1, t2] in steps {
            let rtt = spans.push("pingpong.rtt", t0, t2, parent);
            spans.push("ampi.send", t0, t1, rtt);
            spans.push("ampi.recv", t1, t2, rtt);
        }
    }
    let mut g = sink.lock();
    g.op_us = rtt_us;
    g.checked = n as u64;
    g.bad = bad;
}

/// msgrate's sender: per window, wait for the receiver's signal, then
/// `isend_bytes` the whole window in a seeded tag order and `waitall`.
fn msgrate_sender(mpi: &Ampi, seed: u64, windows: usize, window: usize) {
    let perms: Vec<Vec<u32>> = (0..PERMUTATIONS)
        .map(|k| tag_permutation(splitmix(seed ^ k as u64), window))
        .collect();
    for w in 0..windows {
        mpi.recv_bytes(COMM_WORLD, Some(1), Some(GO_TAG));
        let reqs = perms[w % PERMUTATIONS]
            .iter()
            .map(|&tag| mpi.isend_bytes(COMM_WORLD, 1, tag, msgrate_payload(seed, w, tag)))
            .collect();
        mpi.waitall_sends(reqs);
    }
}

/// msgrate's receiver: per window, post one tag-specific `irecv` per tag,
/// signal the sender, `waitall`, and check that every receive carries its
/// own tag's payload. The window is timed from the first post to the end
/// of `waitall`.
fn msgrate_receiver(
    mpi: &Ampi,
    seed: u64,
    windows: usize,
    window: usize,
    spans: &SpanLog,
    record: bool,
    sink: &Mutex<Collected>,
) {
    let mut per_msg_us = Vec::with_capacity(windows);
    let mut steps: Vec<[u64; 3]> = Vec::new();
    let mut bad = 0;
    for w in 0..windows {
        let t0 = spans.now_ns();
        let reqs: Vec<RecvReq> = (0..window as u32)
            .map(|tag| mpi.irecv(COMM_WORLD, Some(0), Some(tag)))
            .collect();
        let t1 = spans.now_ns();
        mpi.send_bytes(COMM_WORLD, 0, GO_TAG, Bytes::new());
        let got = mpi.waitall(reqs);
        let t2 = spans.now_ns();
        per_msg_us.push((t2 - t0) as f64 / 1e3 / window as f64);
        if record {
            steps.push([t0, t1, t2]);
        }
        for (tag, (data, status)) in got.iter().enumerate() {
            let ok = status.tag == tag as u32 && *data == msgrate_payload(seed, w, tag as u32);
            bad += u64::from(!ok);
        }
    }
    if record {
        let parent = spans.body_parent();
        for [t0, t1, t2] in steps {
            let win = spans.push("msgrate.window", t0, t2, parent);
            spans.push("ampi.irecv_post", t0, t1, win);
            spans.push("ampi.waitall", t1, t2, win);
        }
    }
    let mut g = sink.lock();
    g.op_us = per_msg_us;
    g.checked = (windows * window) as u64;
    g.bad = bad;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_fault_plan_and_the_tag_permutation() {
        assert_ne!(surge_fault_plan(1), surge_fault_plan(2));
        assert_eq!(surge_fault_plan(7), surge_fault_plan(7));
        assert_ne!(tag_permutation(1, 1000), tag_permutation(2, 1000));
        assert_eq!(tag_permutation(7, 1000), tag_permutation(7, 1000));
        assert_ne!(pingpong_payload(1, 0), pingpong_payload(2, 0));
    }

    #[test]
    fn tag_permutation_is_a_permutation() {
        let mut p = tag_permutation(42, 1000);
        assert_ne!(p, (0..1000).collect::<Vec<u32>>());
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn payloads_fit_the_inline_message_limit() {
        assert!(pingpong_payload(3, 9).len() <= 64);
        assert!(msgrate_payload(3, 9, 999).len() <= 64);
        assert_ne!(msgrate_payload(3, 0, 1), msgrate_payload(3, 0, 2));
    }

    #[test]
    fn jacobi_residuals_agree_to_a_relative_1e_12() {
        assert!(jacobi_residual_ok(750.3594073978475, 750.3594073976207));
        assert!(!jacobi_residual_ok(750.36, 750.3594073976207));
        assert!(!jacobi_residual_ok(f64::NAN, 750.0));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
