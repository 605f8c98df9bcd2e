//! `fault`: the allocation path on its own — no TLB, no checks in the
//! timed region. A native system with CA paging and per-CPU page caches is
//! fragmented by a hog (set-up); the measured phase is a seeded stream of
//! process lifetimes: map anon VMAs, demand-fault them VMA by VMA or
//! interleaved in random order (mostly 4 KiB, some 2 MiB), fork one VMA,
//! break COW on a slice of it in the child, exit both.

use std::time::Instant;

use contig_buddy::{Hog, MachineConfig, PcpConfig};
use contig_core::CaPaging;
use contig_mm::{FaultStats, System, VmaKind};
use contig_sim::PolicyKind;
use contig_types::{VirtAddr, VirtRange};

use crate::harness::{
    elapsed_ns, splitmix64, sub_seed, Layer, Layers, PhaseClock, Probe, Untraced,
};
use crate::Rep;

/// Physical memory of the system.
pub const MACHINE_MIB: u64 = 256;
/// Share of physical memory the hog pins in scattered 4 MiB blocks.
pub const HOG_FRACTION: f64 = 0.5;
/// Process lifetimes in one rep.
pub const PROCESSES: usize = 500;
/// Small anonymous VMAs per process (never 2 MiB-aligned: 4 KiB faults).
const SMALL_VMAS: u64 = 4;
/// Largest small VMA, in 4 KiB pages.
const SMALL_MAX_PAGES: u64 = 192;
/// Every `HUGE_EVERY`-th process also maps a 2 MiB-aligned VMA, large
/// enough to outgrow some of the free runs the hog leaves.
const HUGE_EVERY: u64 = 2;
/// Huge pages in that VMA.
const HUGE_PAGES: u64 = 12;
/// The child breaks COW on one page in `COW_EVERY` of the forked VMA.
const COW_EVERY: u64 = 4;

const SMALL_BASE: u64 = 0x1000_0000;
const HUGE_BASE: u64 = 0x4000_0000;
const PAGE: u64 = 4096;
const HUGE: u64 = 2 << 20;

/// One generated process lifetime.
struct Lifetime {
    /// VMA ranges to map.
    vmas: Vec<VirtRange>,
    /// Addresses to touch in fault order, in runs timed as one batch each.
    touches: Vec<Vec<VirtAddr>>,
    /// Addresses the child writes in the forked (first) VMA.
    cow_writes: Vec<VirtAddr>,
}

/// Generates the rep's op stream from the seed (set-up work).
fn generate(seed: u64) -> Vec<Lifetime> {
    let mut rng = sub_seed(seed, 0xFA);
    let mut next = move |n: u64| splitmix64(&mut rng) % n;
    (0..PROCESSES as u64)
        .map(|p| {
            let mut vmas = Vec::new();
            let mut touches = Vec::new();
            let mut small = Vec::new();
            for v in 0..SMALL_VMAS {
                let pages = 16 + next(SMALL_MAX_PAGES - 15);
                // One page past a 16 MiB slot boundary: never 2 MiB-aligned.
                let start = SMALL_BASE + v * (16 << 20) + PAGE;
                vmas.push(VirtRange::new(VirtAddr::new(start), pages * PAGE));
                small.extend((0..pages).map(|i| VirtAddr::new(start + i * PAGE)));
            }
            // Sequential processes fault VMA after VMA; random ones interleave
            // all their small VMAs, so CA targets of one VMA can be taken by
            // another's faults before they are reached.
            if next(2) == 1 {
                for i in (1..small.len()).rev() {
                    small.swap(i, next(i as u64 + 1) as usize);
                }
            }
            touches.push(small);
            if p % HUGE_EVERY == 0 {
                vmas.push(VirtRange::new(VirtAddr::new(HUGE_BASE), HUGE_PAGES * HUGE));
                // One touch anywhere inside each 2 MiB region faults it whole.
                touches.push(
                    (0..HUGE_PAGES)
                        .map(|i| VirtAddr::new(HUGE_BASE + i * HUGE + next(512) * PAGE))
                        .collect(),
                );
            }
            let forked = vmas[0];
            let cow_writes = (0..forked.len() / PAGE)
                .filter(|i| i % COW_EVERY == next(COW_EVERY))
                .map(|i| VirtAddr::new(forked.start().raw() + i * PAGE))
                .collect();
            Lifetime {
                vmas,
                touches,
                cow_writes,
            }
        })
        .collect()
}

/// Fault counters gathered from each process before it exits.
#[derive(Default)]
struct FaultTotals {
    faults_4k: u64,
    faults_2m: u64,
    cow_faults: u64,
    target_hits: u64,
    target_misses: u64,
}

impl FaultTotals {
    fn add(&mut self, s: &FaultStats) {
        self.faults_4k += s.faults_4k;
        self.faults_2m += s.faults_2m;
        self.cow_faults += s.cow_faults;
        self.target_hits += s.ca_target_hits;
        self.target_misses += s.ca_target_misses;
    }
}

/// The measured phase: every lifetime, op by op, each lifetime one
/// segment of `clock`.
fn phase<P: Probe>(
    sys: &mut System,
    policy: &mut CaPaging,
    lifetimes: &[Lifetime],
    probe: &mut P,
    clock: &mut PhaseClock,
    rep: &mut Rep,
    totals: &mut FaultTotals,
) {
    for life in lifetimes {
        let (pid, vma_ids) = probe.time(Layer::MmMapVma, || {
            let pid = sys.spawn();
            let ids: Vec<_> = life
                .vmas
                .iter()
                .map(|&r| sys.aspace_mut(pid).map_vma(r, VmaKind::Anon))
                .collect();
            (pid, ids)
        });
        for run in &life.touches {
            let errors = probe.time(Layer::MmTouch, || {
                run.iter()
                    .filter(|&&va| sys.touch(policy, pid, va).is_err())
                    .count()
            });
            rep.ops += run.len() as u64;
            rep.errors += errors as u64;
        }
        let child = probe.time(Layer::MmForkVma, || sys.fork_vma(pid, vma_ids[0]));
        let errors = probe.time(Layer::MmTouch, || {
            life.cow_writes
                .iter()
                .filter(|&&va| sys.touch_write(policy, child, va).is_err())
                .count()
        });
        rep.ops += 1 + life.cow_writes.len() as u64;
        rep.errors += errors as u64;
        for p in [child, pid] {
            totals.add(sys.aspace(p).stats());
            probe.time(Layer::MmExit, || sys.exit(p));
            rep.ops += 1;
        }
        clock.mark();
    }
}

/// Runs one rep.
pub fn rep(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let mut layers = Layers::default();
    let setup_start = Instant::now();
    let lifetimes = generate(seed);
    let machine = MachineConfig::single_node_mib(MACHINE_MIB);
    let mut sys = System::new(PolicyKind::Ca.system_config(machine));
    sys.enable_pcp(PcpConfig::default());
    let hog_seed = sub_seed(seed, 0x40);
    let hog = layers.time(Layer::BuddyHog, || {
        Hog::occupy(sys.machine_mut(), HOG_FRACTION, hog_seed)
    });
    let mut policy = CaPaging::new();
    rep.setup_ns = elapsed_ns(setup_start);

    let before = sys.machine().counters();
    let placements_before = policy.stats().placements;
    let mut totals = FaultTotals::default();
    let mut clock = PhaseClock::default();
    clock.resume();
    if traced {
        phase(
            &mut sys,
            &mut policy,
            &lifetimes,
            &mut layers,
            &mut clock,
            &mut rep,
            &mut totals,
        );
    } else {
        phase(
            &mut sys,
            &mut policy,
            &lifetimes,
            &mut Untraced,
            &mut clock,
            &mut rep,
            &mut totals,
        );
    }
    clock.pause();
    rep.wall_ns = clock.wall_ns();
    rep.cpu_ns = clock.cpu_ns();
    rep.segments = clock.segments().to_vec();
    rep.passes = 1;
    rep.layers = layers;

    let audit = sys.audit();
    rep.check(audit.is_clean(), || {
        format!("audit after the last exit: {audit}")
    });
    let (free, total, pinned) = (
        sys.machine().free_frames(),
        sys.machine().total_frames(),
        hog.pinned_frames(),
    );
    rep.check(free == total - pinned, || {
        format!("{free} free frames, expected {total} total minus {pinned} hogged")
    });
    rep.digest = contig_check::digest_system(&sys.snapshot());

    let after = sys.machine().counters();
    let placements = policy.stats().placements - placements_before;
    let hits = totals.target_hits;
    let misses = totals.target_misses;
    rep.counts = vec![
        ("buddy.allocs", (after.allocs - before.allocs) as f64),
        ("buddy.frees", (after.frees - before.frees) as f64),
        ("buddy.splits", (after.splits - before.splits) as f64),
        (
            "buddy.coalesces",
            (after.coalesces - before.coalesces) as f64,
        ),
        (
            "buddy.targeted_allocs",
            (after.targeted_allocs - before.targeted_allocs) as f64,
        ),
        (
            "buddy.targeted_misses",
            (after.targeted_misses - before.targeted_misses) as f64,
        ),
        ("core.ca.placements", placements as f64),
        ("core.ca.target_hits", hits as f64),
        ("core.ca.target_misses", misses as f64),
        (
            "core.ca.hit_ratio",
            crate::harness::ratio(hits as f64, (hits + misses) as f64),
        ),
        ("mm.faults_4k", totals.faults_4k as f64),
        ("mm.faults_2m", totals.faults_2m as f64),
        ("mm.cow_faults", totals.cow_faults as f64),
    ];
    rep
}
