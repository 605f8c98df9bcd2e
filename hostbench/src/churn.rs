//! `churn`: nested faults beside frees, the host daemon, and
//! crash-consistency checkpoints. A base-pages VM (THP off in both
//! dimensions, so the daemon is the only collapser) with its host daemon
//! armed is built in set-up; in the measured phase transient host processes
//! fault pages and exit between guest writes (a sequential sweep plus
//! seeded random writes), the host daemon ticks at fixed boundaries, and
//! every few rounds a checkpoint snapshots the VM, digests it, round-trips
//! it through the snapshot codec and audits it.

use std::time::Instant;

use contig_audit::audit_vm;
use contig_check::{decode_vm_file, digest_vm, encode_vm_file};
use contig_mm::{BasePagesPolicy, DaemonConfig, FaultStats, Pid, SystemConfig, VmaKind};
use contig_types::{VirtAddr, VirtRange};
use contig_virt::{contig_profile, VirtualMachine, VmConfig};

use crate::harness::{
    elapsed_ns, splitmix64, sub_seed, Layer, Layers, PhaseClock, Probe, Untraced,
};
use crate::Rep;

/// Guest memory, MiB.
const GUEST_MIB: u64 = 32;
/// Host memory, MiB.
const HOST_MIB: u64 = 128;
/// Guest pages the measured phase writes (16 MiB: eight 2 MiB promotion
/// windows of host backing).
const GUEST_PAGES: u64 = 4096;
/// Pages each transient host process faults (4 MiB).
const PROC_PAGES: u64 = 1024;
/// Transient host processes in one rep.
pub const ROUNDS: u64 = 48;
/// A checkpoint follows every `CHECKPOINT_EVERY`-th round.
const CHECKPOINT_EVERY: u64 = 4;
/// Host pages faulted between two runs of guest writes; each run writes
/// twice as many guest pages (one sequential, one random per host page).
const CHUNK: u64 = 8;
/// The host daemon ticks once per `TICK_EVERY` host pages.
const TICK_EVERY: u64 = 128;
/// Daemon ticks after the last round: the convergence tail.
const TAIL_TICKS: u64 = 16;

/// Guest pages faulted in during set-up: the booted guest's resident
/// memory, which every checkpoint carries.
const RESIDENT_PAGES: u64 = 1024;

const RESIDENT_BASE: u64 = 0x2000_0000;
const GUEST_BASE: u64 = 0x4000_0000;
const HOST_PROC_BASE: u64 = 0x4000_0000;
const PAGE: u64 = 4096;

/// Builds the VM, arms the host daemon, faults in the guest's resident
/// memory and maps the VMA the phase writes.
fn setup(rep: &mut Rep) -> (VirtualMachine, Pid) {
    let mut config = VmConfig::with_mib(GUEST_MIB, HOST_MIB);
    config.guest = SystemConfig {
        thp: false,
        ..config.guest
    };
    config.host = SystemConfig {
        thp: false,
        ..config.host
    };
    let mut vm = VirtualMachine::new(config, Box::new(BasePagesPolicy), Box::new(BasePagesPolicy));
    vm.host_mut().enable_daemon(DaemonConfig {
        aggressiveness: 2,
        epoch_budget: 128,
        ..DaemonConfig::default()
    });
    let pid = vm.guest_mut().spawn();
    vm.guest_mut().aspace_mut(pid).map_vma(
        VirtRange::new(VirtAddr::new(RESIDENT_BASE), RESIDENT_PAGES * PAGE),
        VmaKind::Anon,
    );
    for i in 0..RESIDENT_PAGES {
        if vm
            .touch_write(pid, VirtAddr::new(RESIDENT_BASE + i * PAGE))
            .is_err()
        {
            rep.errors += 1;
            rep.check(false, || format!("resident guest page {i} failed to fault"));
        }
    }
    vm.guest_mut().aspace_mut(pid).map_vma(
        VirtRange::new(VirtAddr::new(GUEST_BASE), GUEST_PAGES * PAGE),
        VmaKind::Anon,
    );
    (vm, pid)
}

/// Running totals the phase collects for the checks and counts.
#[derive(Default)]
struct Totals {
    faults: [u64; 3],
    checkpoints: u64,
}

impl Totals {
    fn add(&mut self, s: &FaultStats) {
        self.faults[0] += s.faults_4k;
        self.faults[1] += s.faults_2m;
        self.faults[2] += s.cow_faults;
    }
}

/// The measured phase. `clock` is paused around each checkpoint's output
/// checks; each daemon tick and each round's end close a segment.
fn phase<P: Probe>(
    vm: &mut VirtualMachine,
    pid: Pid,
    seed: u64,
    probe: &mut P,
    clock: &mut PhaseClock,
    rep: &mut Rep,
    totals: &mut Totals,
) {
    let mut rng = sub_seed(seed, 0xC4);
    let mut cursor = 0u64;
    let mut host_policy = BasePagesPolicy;
    let mut writes = Vec::with_capacity(2 * CHUNK as usize);
    for round in 0..ROUNDS {
        let churn_pid = probe.time(Layer::MmMapVma, || {
            let churn_pid = vm.host_mut().spawn();
            vm.host_mut().aspace_mut(churn_pid).map_vma(
                VirtRange::new(VirtAddr::new(HOST_PROC_BASE), PROC_PAGES * PAGE),
                VmaKind::Anon,
            );
            churn_pid
        });
        for chunk in 0..PROC_PAGES / CHUNK {
            let first = chunk * CHUNK;
            let errors = probe.time(Layer::MmHostTouch, || {
                (first..first + CHUNK)
                    .filter(|i| {
                        let va = VirtAddr::new(HOST_PROC_BASE + i * PAGE);
                        vm.host_mut()
                            .touch(&mut host_policy, churn_pid, va)
                            .is_err()
                    })
                    .count()
            });
            writes.clear();
            for _ in 0..CHUNK {
                writes.push(cursor % GUEST_PAGES);
                cursor += 1;
                writes.push(splitmix64(&mut rng) % GUEST_PAGES);
            }
            let errors = errors
                + probe.time(Layer::VirtTouchWrite, || {
                    writes
                        .iter()
                        .filter(|&&page| {
                            vm.touch_write(pid, VirtAddr::new(GUEST_BASE + page * PAGE))
                                .is_err()
                        })
                        .count()
                });
            rep.ops += 3 * CHUNK;
            rep.errors += errors as u64;
            if (first + CHUNK).is_multiple_of(TICK_EVERY) {
                probe.time(Layer::MmDaemonTick, || vm.host_mut().daemon_tick());
                rep.ops += 1;
                clock.mark();
            }
        }
        totals.add(vm.host().aspace(churn_pid).stats());
        probe.time(Layer::MmExit, || vm.host_mut().exit(churn_pid));
        rep.ops += 1;
        if (round + 1) % CHECKPOINT_EVERY == 0 {
            checkpoint(vm, probe, clock, rep);
            totals.checkpoints += 1;
            rep.ops += 1;
        }
        clock.mark();
    }
    for _ in 0..TAIL_TICKS {
        probe.time(Layer::MmDaemonTick, || vm.host_mut().daemon_tick());
        rep.ops += 1;
    }
    clock.mark();
}

/// One checkpoint op: snapshot, digest, codec round trip, audit. The op is
/// timed; its output checks run with the phase clock paused.
fn checkpoint<P: Probe>(vm: &VirtualMachine, probe: &mut P, clock: &mut PhaseClock, rep: &mut Rep) {
    let snap = probe.time(Layer::MmSnapshot, || vm.snapshot());
    let digest = probe.time(Layer::CheckDigest, || digest_vm(&snap));
    let decoded = probe.time(Layer::CheckCodec, || decode_vm_file(&encode_vm_file(&snap)));
    let audit = probe.time(Layer::AuditAudit, || audit_vm(vm));
    clock.pause();
    match decoded {
        Ok(back) => {
            let again = digest_vm(&back);
            rep.check(again == digest, || {
                format!("decoded snapshot digest {again:#x} differs from live {digest:#x}")
            });
        }
        Err(e) => {
            rep.errors += 1;
            rep.check(false, || format!("snapshot codec round trip: {e}"));
        }
    }
    rep.check(audit.is_clean(), || format!("checkpoint audit: {audit}"));
    clock.resume();
}

/// Runs one rep.
pub fn rep(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let mut layers = Layers::default();
    let setup_start = Instant::now();
    let (mut vm, pid) = setup(&mut rep);
    rep.setup_ns = elapsed_ns(setup_start);

    let buddy_before = [
        vm.guest().machine().counters(),
        vm.host().machine().counters(),
    ];
    let mut totals = Totals::default();
    let mut clock = PhaseClock::default();
    clock.resume();
    if traced {
        phase(
            &mut vm,
            pid,
            seed,
            &mut layers,
            &mut clock,
            &mut rep,
            &mut totals,
        );
    } else {
        phase(
            &mut vm,
            pid,
            seed,
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

    rep.check(totals.checkpoints == ROUNDS / CHECKPOINT_EVERY, || {
        format!("{} checkpoints taken", totals.checkpoints)
    });
    let audit = audit_vm(&vm);
    rep.check(audit.is_clean(), || format!("final audit: {audit}"));
    rep.digest = digest_vm(&vm.snapshot());

    totals.add(vm.guest().aspace(pid).stats());
    totals.add(vm.host().aspace(vm.host_pid()).stats());
    let buddy_after = [
        vm.guest().machine().counters(),
        vm.host().machine().counters(),
    ];
    let delta = |f: fn(&contig_buddy::ZoneCounters) -> u64| -> f64 {
        buddy_after
            .iter()
            .zip(&buddy_before)
            .map(|(a, b)| f(a) - f(b))
            .sum::<u64>() as f64
    };
    let daemon = vm.host().daemon_stats();
    let profile = contig_profile(&vm);
    rep.counts = vec![
        ("buddy.allocs", delta(|c| c.allocs)),
        ("buddy.frees", delta(|c| c.frees)),
        ("buddy.splits", delta(|c| c.splits)),
        ("buddy.coalesces", delta(|c| c.coalesces)),
        ("buddy.targeted_allocs", delta(|c| c.targeted_allocs)),
        ("buddy.targeted_misses", delta(|c| c.targeted_misses)),
        ("mm.faults_4k", totals.faults[0] as f64),
        ("mm.faults_2m", totals.faults[1] as f64),
        ("mm.cow_faults", totals.faults[2] as f64),
        ("mm.daemon.epochs", daemon.epochs as f64),
        ("mm.daemon.compact_moves", daemon.compact_moves as f64),
        ("mm.daemon.promoted", daemon.promoted as f64),
        (
            "sim.mean_run_pages",
            crate::harness::ratio(profile.backed_pages as f64, profile.runs as f64),
        ),
    ];
    rep
}
