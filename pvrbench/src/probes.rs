//! Isolated layer probes: the benchmark times its own calls into each
//! crate's public functions, shaped by the workload's own counters.
//!
//! Every probe warms up, then takes [`SAMPLES`] samples, each a batch of
//! calls, and reports the median with its quartiles. Nothing is rounded.

use crate::spans::{SpanId, SpanLog};
use crate::stats::Summary;
use crate::workloads::splitmix;
use bytes::Bytes;
use pvr_des::{EventQueue, SimTime};
use pvr_isomalloc::RankMemory;
use pvr_privatize::methods::Options;
use pvr_privatize::{create_privatizer, regs, Method, PrivatizeEnv};
use pvr_progimage::ProgramBinary;
use pvr_rts::lb::GreedyRefineLb;
use pvr_rts::{LbStats, LoadBalancer, RtsMessage};
use pvr_ult::Ult;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Samples per probe, after one untimed warm-up batch.
pub const SAMPLES: usize = 21;

/// Time `SAMPLES` batches of `f` under spans named `name`, returning the
/// per-unit cost of each batch: `f` does its work and returns how many
/// units it did.
fn sample(
    spans: &SpanLog,
    parent: SpanId,
    name: &'static str,
    mut f: impl FnMut() -> u64,
) -> Summary {
    f();
    let mut per_unit = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let id = spans.open(name, parent);
        let t0 = Instant::now();
        let units = f();
        let ns = t0.elapsed().as_nanos() as f64;
        spans.close(id);
        per_unit.push(ns / units.max(1) as f64);
    }
    Summary::of(&per_unit)
}

/// `ult`: one `resume` + `yield_now` pair on a fresh ULT, in ns.
pub fn ult_switch_ns(spans: &SpanLog, parent: SpanId) -> Summary {
    const PAIRS: u64 = 20_000;
    sample(spans, parent, "probe.ult", || {
        let mut u = Ult::new(64 * 1024, || {
            for _ in 0..PAIRS {
                pvr_ult::yield_now();
            }
        });
        for _ in 0..PAIRS {
            u.resume();
        }
        u.resume(); // runs the closure to completion
        PAIRS
    })
}

/// `rts` message: `RtsMessage::new` + clone + `seal` + `intact` on a
/// 32-byte payload, in ns per message.
pub fn msg_lifecycle_ns(spans: &SpanLog, parent: SpanId, seed: u64) -> Summary {
    const MSGS: u64 = 100_000;
    let data = splitmix(seed).to_le_bytes().repeat(4);
    sample(spans, parent, "probe.msg", || {
        let mut ok = 0u64;
        for i in 0..MSGS {
            let m = RtsMessage::new(0, 1, i, Bytes::copy_from_slice(black_box(&data)));
            let mut wire = m.clone();
            wire.seal();
            ok += u64::from(wire.intact());
        }
        assert_eq!(ok, MSGS, "a sealed, untouched message must verify");
        MSGS
    })
}

/// `des`: `EventQueue::schedule` + `drain_until` with `per_epoch` events
/// per epoch, in ns per event.
pub fn des_drain_ns(spans: &SpanLog, parent: SpanId, seed: u64, per_epoch: usize) -> Summary {
    let per_epoch = per_epoch.max(1);
    let epochs = (100_000 / per_epoch).max(1);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(per_epoch);
    let mut out: Vec<(SimTime, u64)> = Vec::with_capacity(per_epoch);
    let mut x = seed;
    sample(spans, parent, "probe.des", || {
        for _ in 0..epochs {
            let now = q.now().0;
            for i in 0..per_epoch {
                x = splitmix(x);
                q.schedule(SimTime(now + 1 + x % 1000), i as u64);
            }
            out.clear();
            q.drain_until(SimTime(now + 2000), &mut out);
            black_box(&out);
        }
        (epochs * per_epoch) as u64
    })
}

/// `rts` LB: one `GreedyRefineLb::rebalance` over `ranks` ranks on `pes`
/// PEs with seeded loads, in µs.
pub fn lb_rebalance_us(
    spans: &SpanLog,
    parent: SpanId,
    seed: u64,
    ranks: usize,
    pes: usize,
) -> Summary {
    const CALLS: u64 = 2_000;
    let mut x = seed;
    let loads = (0..ranks)
        .map(|_| {
            x = splitmix(x);
            0.5 + (x % 1000) as f64 / 1000.0
        })
        .collect();
    let stats = LbStats {
        loads,
        placement: (0..ranks).map(|r| r * pes / ranks).collect(),
        n_pes: pes,
        migration_bytes: vec![1 << 20; ranks],
        comm_bytes: (0..ranks.saturating_sub(1))
            .map(|r| (r, r + 1, 4096))
            .collect(),
    };
    let lb = GreedyRefineLb::default();
    let s = sample(spans, parent, "probe.lb", || {
        for _ in 0..CALLS {
            black_box(lb.rebalance(black_box(&stats)));
        }
        CALLS
    });
    scale(s, 1e-3)
}

/// `isomalloc`: `RankMemory::pack` and `unpack_into` on an image of about
/// `bytes`, in GB/s (pack, unpack).
pub fn pack_unpack_gb_s(
    spans: &SpanLog,
    parent: SpanId,
    seed: u64,
    bytes: usize,
) -> (Summary, Summary) {
    let bytes = bytes.max(4096);
    let mut mem = RankMemory::new();
    let p = mem.heap().alloc(bytes, 8).expect("probe image allocates");
    // SAFETY: `p` is a live `bytes`-byte allocation of `mem`'s heap, which
    // outlives the slice; nothing else aliases it.
    let image = unsafe { std::slice::from_raw_parts_mut(p.ptr, bytes) };
    let mut x = seed;
    for chunk in image.chunks_mut(8) {
        x = splitmix(x);
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
    }
    let reps = (256usize << 20).div_ceil(bytes).clamp(1, 64) as u64;
    let buf = mem.pack();
    let len = buf.len() as f64;
    let pack = sample(spans, parent, "probe.pack", || {
        for _ in 0..reps {
            black_box(mem.pack());
        }
        reps
    });
    let unpack = sample(spans, parent, "probe.unpack", || {
        for _ in 0..reps {
            mem.unpack_into(black_box(&buf))
                .expect("image unpacks into its own layout");
        }
        reps
    });
    // ns per image -> GB/s
    let gb_s = |s: Summary| Summary {
        q1: len / s.q3,
        median: len / s.median,
        q3: len / s.q1,
        n: s.n,
    };
    (gb_s(pack), gb_s(unpack))
}

/// `privatize`: `create_privatizer` + `instantiate_rank` for the
/// workload's binary and method, in µs per rank, after a warm-up rank.
pub fn instantiate_us_per_rank(
    spans: &SpanLog,
    parent: SpanId,
    binary: &Arc<ProgramBinary>,
    method: Method,
    ranks: usize,
) -> Summary {
    let ranks = ranks.max(2);
    let mut per_rank = Vec::new();
    while per_rank.len() < 4 * SAMPLES {
        let id = spans.open("probe.privatize", parent);
        let env = PrivatizeEnv::new(binary.clone());
        let mut p = create_privatizer(method, env, Options::default())
            .expect("privatizer for the workload's method");
        let mut mems: Vec<RankMemory> = (0..ranks).map(|_| RankMemory::new()).collect();
        drop(
            p.instantiate_rank(0, &mut mems[0])
                .expect("warm-up rank instantiates"),
        );
        for (r, mem) in mems.iter_mut().enumerate().skip(1) {
            let t0 = Instant::now();
            let inst = p.instantiate_rank(r, mem).expect("rank instantiates");
            per_rank.push(t0.elapsed().as_nanos() as f64 / 1e3);
            drop(inst);
        }
        drop(mems);
        drop(p);
        regs::clear();
        spans.close(id);
    }
    Summary::of(&per_rank)
}

/// `apps`: `jacobi3d::serial_reference` on the workload's global grid,
/// one thread and no runtime, in Mpt/s.
pub fn jacobi_kernel_mpts(
    spans: &SpanLog,
    parent: SpanId,
    points: f64,
    reference: impl Fn() -> f64,
) -> Summary {
    let mut mpts = Vec::new();
    for _ in 0..3 {
        let id = spans.open("probe.jacobi_kernel", parent);
        let t0 = Instant::now();
        black_box(reference());
        mpts.push(points / t0.elapsed().as_secs_f64() / 1e6);
        spans.close(id);
    }
    Summary::of(&mpts)
}

fn scale(s: Summary, k: f64) -> Summary {
    Summary {
        q1: s.q1 * k,
        median: s.median * k,
        q3: s.q3 * k,
        n: s.n,
    }
}
