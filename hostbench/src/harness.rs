//! Timing primitives shared by the workloads: per-layer host-time
//! accumulators, a pausable measured-phase clock with per-thread CPU time,
//! and the small statistics the report needs.

use std::time::Instant;

/// The layers the traced run attributes host time to. Each is a set of
/// public calls into one module of the simulator, timed from the
/// benchmark's own code; nothing inside the simulator is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `TraceGenerator::next_access` (contig-workloads), timed per batch.
    NextAccess,
    /// `MemorySim::step` (contig-tlb) minus the walk and miss-handler time
    /// it calls out to.
    TlbStepSelf,
    /// `VmBackend::walk` (contig-virt), the 2D page walk.
    VirtWalk,
    /// `SpotPredictor::on_miss` (contig-core).
    SpotOnMiss,
    /// `System::touch`/`touch_write` on a native system (contig-mm).
    MmTouch,
    /// `System::fork_vma`.
    MmForkVma,
    /// `System::exit`.
    MmExit,
    /// `System::spawn` plus `AddressSpace::map_vma`.
    MmMapVma,
    /// `VirtualMachine::touch_write`: guest writes, nested faults included.
    VirtTouchWrite,
    /// `System::touch` by a transient process on a VM's host.
    MmHostTouch,
    /// `System::daemon_tick` on a VM's host.
    MmDaemonTick,
    /// `VirtualMachine::snapshot`.
    MmSnapshot,
    /// `digest_vm` (contig-check).
    CheckDigest,
    /// `encode_vm_file` plus `decode_vm_file` (contig-check).
    CheckCodec,
    /// `audit_vm` (contig-audit).
    AuditAudit,
    /// Set-up: `populate_vm` (contig-sim) faulting a workload into a VM.
    VirtPopulateVm,
    /// Set-up: buddy `Zone::alloc`/`Machine::free` of every top-order
    /// block, ageing the free lists as the paper's translation runs do.
    BuddyAge,
    /// Set-up: `Hog::occupy` (contig-buddy) fragmenting physical memory.
    BuddyHog,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 18] = [
        Layer::NextAccess,
        Layer::TlbStepSelf,
        Layer::VirtWalk,
        Layer::SpotOnMiss,
        Layer::MmTouch,
        Layer::MmForkVma,
        Layer::MmExit,
        Layer::MmMapVma,
        Layer::VirtTouchWrite,
        Layer::MmHostTouch,
        Layer::MmDaemonTick,
        Layer::MmSnapshot,
        Layer::CheckDigest,
        Layer::CheckCodec,
        Layer::AuditAudit,
        Layer::VirtPopulateVm,
        Layer::BuddyAge,
        Layer::BuddyHog,
    ];

    /// The per-layer metric this layer reports as.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::NextAccess => "workloads.next_access_ns",
            Layer::TlbStepSelf => "tlb.step_self_ns",
            Layer::VirtWalk => "virt.walk_ns",
            Layer::SpotOnMiss => "core.spot_on_miss_ns",
            Layer::MmTouch => "mm.touch_ns",
            Layer::MmForkVma => "mm.fork_vma_ns",
            Layer::MmExit => "mm.exit_ns",
            Layer::MmMapVma => "mm.map_vma_ns",
            Layer::VirtTouchWrite => "virt.touch_write_ns",
            Layer::MmHostTouch => "mm.host_touch_ns",
            Layer::MmDaemonTick => "mm.daemon_tick_ns",
            Layer::MmSnapshot => "mm.snapshot_ns",
            Layer::CheckDigest => "check.digest_ns",
            Layer::CheckCodec => "check.codec_ns",
            Layer::AuditAudit => "audit.audit_ns",
            Layer::VirtPopulateVm => "virt.populate_vm_ns",
            Layer::BuddyAge => "buddy.age_ns",
            Layer::BuddyHog => "buddy.hog_ns",
        }
    }

    /// Whether the layer runs during set-up rather than the measured phase
    /// (set-up layers do not count towards measured-phase coverage).
    pub fn is_setup(self) -> bool {
        matches!(
            self,
            Layer::VirtPopulateVm | Layer::BuddyAge | Layer::BuddyHog
        )
    }
}

/// Something that may time a call on behalf of a layer. The untraced run
/// uses [`Untraced`], which compiles to the bare call.
pub trait Probe {
    /// Runs `f`, attributing its host time to `layer` when tracing.
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
}

/// The probe of the untraced run: no clock reads at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn time<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Host nanoseconds accumulated per layer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Layers {
    ns: [u64; Layer::ALL.len()],
}

impl Layers {
    /// Adds `ns` nanoseconds to `layer`.
    pub fn add(&mut self, layer: Layer, ns: u64) {
        self.ns[layer as usize] += ns;
    }

    /// Nanoseconds attributed to `layer`.
    pub fn get(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Nanoseconds attributed to measured-phase layers.
    pub fn phase_total(&self) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| !l.is_setup())
            .map(|&l| self.get(l))
            .sum()
    }
}

impl Probe for Layers {
    #[inline]
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(layer, elapsed_ns(start));
        out
    }
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Wall and per-thread CPU time of a measured phase that may be paused
/// around output checks, so checks never land inside the timed region.
/// The phase is also cut into segments at fixed points of its work
/// ([`PhaseClock::mark`]), so reps of one seed can be compared segment by
/// segment.
#[derive(Debug, Default)]
pub struct PhaseClock {
    wall_ns: u64,
    cpu_ns: u64,
    running: Option<(Instant, u64)>,
    segment_ns: u64,
    segments: Vec<u64>,
}

impl PhaseClock {
    /// Starts (or restarts) timing.
    pub fn resume(&mut self) {
        let cpu = thread_cpu_ns();
        self.running = Some((Instant::now(), cpu));
    }

    /// Stops timing; the interval since [`PhaseClock::resume`] is added.
    pub fn pause(&mut self) {
        let (start, cpu) = self
            .running
            .take()
            .expect("phase clock paused while stopped");
        let ns = elapsed_ns(start);
        self.wall_ns += ns;
        self.segment_ns += ns;
        self.cpu_ns += thread_cpu_ns().saturating_sub(cpu);
    }

    /// Ends the current segment: the wall time timed since the previous
    /// mark (or the start) becomes one segment.
    pub fn mark(&mut self) {
        if let Some((start, _)) = &mut self.running {
            let now = Instant::now();
            let ns = now.duration_since(*start).as_nanos() as u64;
            self.wall_ns += ns;
            self.segment_ns += ns;
            *start = now;
        }
        self.segments.push(std::mem::take(&mut self.segment_ns));
    }

    /// Wall nanoseconds of each segment marked so far.
    pub fn segments(&self) -> &[u64] {
        &self.segments
    }

    /// Wall nanoseconds timed so far.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// CPU nanoseconds the thread ran while timed.
    pub fn cpu_ns(&self) -> u64 {
        self.cpu_ns
    }
}

/// Nanoseconds the calling thread has spent on a CPU, from the first field
/// of `/proc/thread-self/schedstat` (0 where the file is unavailable).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Words of the CPU masks passed to the affinity calls (1024 CPUs).
const CPU_MASK_WORDS: usize = 16;

/// CPUs the calling thread may run on, from `sched_getaffinity`; empty
/// where the call fails or is not available.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    if affinity_syscall(SCHED_GETAFFINITY, &mut mask) <= 0 {
        return Vec::new();
    }
    (0..CPU_MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Moves the calling thread onto `cpu` alone with `sched_setaffinity`.
/// Returns whether the kernel accepted the mask.
pub fn pin_to_cpu(cpu: usize) -> bool {
    if cpu >= CPU_MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; CPU_MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    affinity_syscall(SCHED_SETAFFINITY, &mut mask) == 0
}

const SCHED_SETAFFINITY: isize = 203;
const SCHED_GETAFFINITY: isize = 204;

/// `sched_setaffinity`/`sched_getaffinity` on the calling thread with
/// `mask`, as raw Linux x86-64 system calls (the package has no libc
/// binding). Returns the kernel's result: negative on error.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(number: isize, mask: &mut [u64; CPU_MASK_WORDS]) -> isize {
    let ret: isize;
    // SAFETY: both calls take (pid 0 = this thread, mask length in bytes,
    // mask pointer); `mask` is a live, exclusively borrowed buffer of
    // exactly that length, which the get call may write and the set call
    // only reads. The `syscall` instruction clobbers rcx and r11 only,
    // which are declared, and touches no stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Elsewhere the affinity calls are unavailable: every call fails.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn affinity_syscall(_number: isize, _mask: &mut [u64; CPU_MASK_WORDS]) -> isize {
    -1
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One step of the splitmix64 generator: the benchmark derives every input
/// stream from the command-line seed through it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent sub-seed `index` of `seed`.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut s = seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pinning_moves_the_thread_onto_an_allowed_cpu() {
        let cpus = allowed_cpus();
        if let Some(&last) = cpus.last() {
            assert!(pin_to_cpu(last));
            assert_eq!(allowed_cpus(), vec![last]);
        }
        assert!(!pin_to_cpu(CPU_MASK_WORDS * 64));
    }

    #[test]
    fn layer_metrics_are_distinct() {
        let mut names: Vec<_> = Layer::ALL.iter().map(|l| l.metric()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Layer::ALL.len());
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(*l as usize, i, "Layer::ALL must follow declaration order");
        }
    }
}
