//! `translate`: the Fig. 13/14 hot loop. The paper's five workloads are
//! installed and populated in nested VMs with CA paging in both dimensions
//! (set-up); the measured phase steps a seeded access trace per workload
//! through `MemorySim` with `SpotPredictor` on the miss path, in a few
//! identical passes over the same VMs. Buddy and the fault path run only
//! during set-up.

use std::cell::Cell;
use std::time::Instant;

use contig_buddy::{Machine, NodeId};
use contig_core::{CaPaging, SpotConfig, SpotPredictor, SpotStats};
use contig_metrics::PerfModel;
use contig_mm::Pid;
use contig_sim::{install_in_vm, populate_vm, Env, PolicyKind};
use contig_tlb::{
    Access, MemorySim, MissHandler, MissHandling, SimReport, TranslationBackend, WalkResult,
};
use contig_types::VirtAddr;
use contig_virt::{VirtualMachine, VmBackend, VmConfig};
use contig_workloads::{Scale, TraceGenerator, Workload, WorkloadSpec};

use crate::harness::{elapsed_ns, splitmix64, sub_seed, Layer, Layers, PhaseClock, Probe};
use crate::Rep;

/// Footprint, machine and TLB scale divisor (the paper's 256 GiB machine
/// becomes 1 GiB of guest memory per VM).
pub const SCALE: u64 = 256;
/// Accesses simulated per paper workload in one pass.
pub const ACCESSES_PER_WORKLOAD: usize = 1_000_000;
/// Passes of the measured phase per rep: set-up is paid once per rep, and
/// each pass gives every segment one more timing.
pub const PASSES: usize = 4;
/// Accesses generated per batch before they are stepped; the traced run
/// reads the clock once per batch for generation and stepping.
const BATCH: usize = 1024;
/// Batches in one segment of the measured phase (65536 accesses, about
/// 2 ms); each paper workload's trace also ends a segment.
const SEGMENT_BATCHES: usize = 64;

/// One populated VM running one paper workload.
struct Guest {
    vm: VirtualMachine,
    pid: Pid,
    spec: WorkloadSpec,
}

/// Builds the five VMs: age both machines, install, populate.
fn setup(seed: u64, layers: &mut Layers, rep: &mut Rep) -> Vec<Guest> {
    let env = Env::new(Scale(SCALE));
    let mut guests = Vec::new();
    for (i, workload) in Workload::ALL.iter().enumerate() {
        let spec = workload.spec(env.scale);
        let mut vm = VirtualMachine::new(
            VmConfig {
                guest: PolicyKind::Ca.system_config(env.guest_machine()),
                host: PolicyKind::Ca.system_config(env.host_machine()),
                host_vma_base: VirtAddr::new(0x7f00_0000_0000),
            },
            Box::new(CaPaging::new()),
            Box::new(CaPaging::new()),
        );
        let age_seed = sub_seed(seed, 100 + i as u64);
        layers.time(Layer::BuddyAge, || {
            age(vm.guest_mut().machine_mut(), age_seed);
            age(vm.host_mut().machine_mut(), age_seed ^ 1);
        });
        let instance = install_in_vm(&spec, &mut vm);
        let populated = layers.time(Layer::VirtPopulateVm, || {
            populate_vm(&mut vm, &instance, &mut Vec::new())
        });
        if let Err(e) = populated {
            rep.errors += 1;
            rep.check(false, || format!("populate {}: {e}", workload.name()));
            continue;
        }
        guests.push(Guest {
            vm,
            pid: instance.pid,
            spec,
        });
    }
    guests
}

/// Ages a machine as the paper's translation runs do: every top-order
/// block is allocated, then freed back in seeded shuffled order. Under CA
/// paging's address-sorted top-order list the resulting state is the same
/// as a fresh boot; the cost is the buddy allocator's.
fn age(machine: &mut Machine, seed: u64) {
    let mut blocks = Vec::new();
    for n in 0..machine.nodes() {
        let zone = machine.zone_mut(NodeId(n));
        let top = zone.config().top_order;
        while let Ok(b) = zone.alloc(top) {
            blocks.push((b, top));
        }
    }
    let mut rng = seed;
    for i in (1..blocks.len()).rev() {
        blocks.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
    }
    for (b, top) in blocks {
        machine.free(b, top);
    }
}

/// [`VmBackend`] with its walks timed.
struct TimedBackend<'a> {
    inner: &'a VmBackend<'a>,
    ns: Cell<u64>,
}

impl TranslationBackend for TimedBackend<'_> {
    fn walk(&self, va: VirtAddr) -> Option<WalkResult> {
        let start = Instant::now();
        let out = self.inner.walk(va);
        self.ns.set(self.ns.get() + elapsed_ns(start));
        out
    }
}

/// [`SpotPredictor`] with its miss handling timed.
struct TimedHandler<'a> {
    inner: &'a mut SpotPredictor,
    ns: u64,
}

impl MissHandler for TimedHandler<'_> {
    fn on_miss(&mut self, access: Access, walk: &WalkResult) -> MissHandling {
        let start = Instant::now();
        let out = self.inner.on_miss(access, walk);
        self.ns += elapsed_ns(start);
        out
    }
}

/// Fills `buf` with the next `n` accesses of `gen`.
fn generate(buf: &mut Vec<Access>, gen: &mut TraceGenerator, n: usize) {
    buf.clear();
    buf.extend((0..n).map(|_| {
        let a = gen.next_access();
        Access {
            pc: a.pc,
            va: a.va,
            write: a.write,
        }
    }));
}

/// One pass of the measured phase: each guest's seeded trace stepped
/// through a fresh `MemorySim` and `SpotPredictor`. Passes read the VMs and
/// never change them, so every pass of a rep does the same work.
fn pass(
    seed: u64,
    guests: &[Guest],
    traced: bool,
    layers: &mut Layers,
    clock: &mut PhaseClock,
) -> (SimReport, SpotStats) {
    let env = Env::new(Scale(SCALE));
    let mut report = SimReport::default();
    let mut spot_stats = SpotStats::default();
    let mut buf = Vec::with_capacity(BATCH);
    for (i, g) in guests.iter().enumerate() {
        let backend = VmBackend::new(&g.vm, g.pid);
        let mut sim = MemorySim::new(env.tlb(), env.walk_cost());
        let mut spot = SpotPredictor::new(SpotConfig::default());
        let mut gen = TraceGenerator::new(&g.spec, sub_seed(seed, i as u64));
        let mut left = ACCESSES_PER_WORKLOAD;
        if traced {
            let timed_backend = TimedBackend {
                inner: &backend,
                ns: Cell::new(0),
            };
            let mut timed_spot = TimedHandler {
                inner: &mut spot,
                ns: 0,
            };
            let mut step_ns = 0;
            for batch in 1.. {
                let n = left.min(BATCH);
                layers.time(Layer::NextAccess, || generate(&mut buf, &mut gen, n));
                let start = Instant::now();
                for &a in &buf {
                    sim.step(&timed_backend, &mut timed_spot, a);
                }
                step_ns += elapsed_ns(start);
                left -= n;
                if left == 0 || batch % SEGMENT_BATCHES == 0 {
                    clock.mark();
                }
                if left == 0 {
                    break;
                }
            }
            let (walk_ns, spot_ns) = (timed_backend.ns.get(), timed_spot.ns);
            layers.add(Layer::VirtWalk, walk_ns);
            layers.add(Layer::SpotOnMiss, spot_ns);
            layers.add(
                Layer::TlbStepSelf,
                step_ns.saturating_sub(walk_ns + spot_ns),
            );
        } else {
            for batch in 1.. {
                let n = left.min(BATCH);
                generate(&mut buf, &mut gen, n);
                for &a in &buf {
                    sim.step(&backend, &mut spot, a);
                }
                left -= n;
                if left == 0 || batch % SEGMENT_BATCHES == 0 {
                    clock.mark();
                }
                if left == 0 {
                    break;
                }
            }
        }
        accumulate(&mut report, &sim.report());
        let s = spot.stats();
        spot_stats.correct += s.correct;
        spot_stats.mispredicted += s.mispredicted;
        spot_stats.no_prediction += s.no_prediction;
    }
    (report, spot_stats)
}

/// Runs one rep: set-up, then [`PASSES`] passes.
pub fn rep(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let mut layers = Layers::default();
    let setup_start = Instant::now();
    let guests = setup(seed, &mut layers, &mut rep);
    rep.setup_ns = elapsed_ns(setup_start);

    let mut clock = PhaseClock::default();
    clock.resume();
    let passes: Vec<_> = (0..PASSES)
        .map(|_| pass(seed, &guests, traced, &mut layers, &mut clock))
        .collect();
    clock.pause();
    rep.wall_ns = clock.wall_ns();
    rep.cpu_ns = clock.cpu_ns();
    rep.segments = clock.segments().to_vec();
    rep.passes = PASSES;
    rep.layers = layers;

    let (report, spot_stats) = passes[0];
    for (p, other) in passes.iter().enumerate().skip(1) {
        rep.check(*other == passes[0], || {
            format!("pass {p} gave {other:?}, pass 0 gave {:?}", passes[0])
        });
    }
    rep.ops = passes.iter().map(|(r, _)| r.accesses).sum();
    let r = report;
    rep.check(
        r.accesses == (Workload::ALL.len() * ACCESSES_PER_WORKLOAD) as u64,
        || format!("{} accesses simulated", r.accesses),
    );
    rep.check(
        r.predicted + r.mispredicted + r.exposed + r.hidden == r.walks,
        || format!("miss outcomes {r:?} do not sum to the walks"),
    );
    rep.check(r.l1_hits + r.l2_hits + r.walks == r.accesses, || {
        format!("hits and walks {r:?} do not sum to the accesses")
    });
    rep.check(
        spot_stats.correct == r.predicted
            && spot_stats.mispredicted == r.mispredicted
            && spot_stats.total() == r.walks,
        || format!("SpOT stats {spot_stats:?} disagree with the simulator {r:?}"),
    );
    rep.digest = contig_check::fold_digests(
        &guests
            .iter()
            .map(|g| contig_check::digest_vm(&g.vm.snapshot()))
            .collect::<Vec<_>>(),
    );
    let overhead = PerfModel::default().scheme_overhead(&r);
    rep.counts = vec![
        ("tlb.accesses", r.accesses as f64),
        ("tlb.l1_hits", r.l1_hits as f64),
        ("tlb.l2_hits", r.l2_hits as f64),
        ("tlb.walks", r.walks as f64),
        ("tlb.walk_refs", r.walk_refs as f64),
        ("tlb.miss_ratio", r.miss_rate()),
        ("core.spot.predicted", r.predicted as f64),
        ("core.spot.mispredicted", r.mispredicted as f64),
        ("core.spot.correct_ratio", spot_stats.correct_rate()),
        ("sim.walk_cycles", r.walk_cycles as f64),
        ("sim.overhead_ppm", (overhead * 1e6).round()),
    ];
    rep
}

fn accumulate(total: &mut SimReport, r: &SimReport) {
    total.accesses += r.accesses;
    total.l1_hits += r.l1_hits;
    total.l2_hits += r.l2_hits;
    total.walks += r.walks;
    total.walk_refs += r.walk_refs;
    total.walk_cycles += r.walk_cycles;
    total.exposed += r.exposed;
    total.hidden += r.hidden;
    total.predicted += r.predicted;
    total.mispredicted += r.mispredicted;
}
