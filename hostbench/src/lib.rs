//! Host-time benchmark of the contig simulator.
//!
//! Three single-threaded, closed-loop workloads (one client; each op is
//! issued after the previous one returns) time the two loops the paper's
//! results come from — CA-paging allocation (§III) and 2D translation with
//! SpOT (§IV) — plus the background daemon and the crash-consistency
//! checks:
//!
//! - [`translate`]: a seeded access trace stepped through `MemorySim` over
//!   nested VMs populated under CA paging, SpOT on the miss path;
//! - [`fault`]: process lifetimes demand-faulting, forking, breaking COW
//!   and exiting on a hog-fragmented native system with CA paging and pcp;
//! - [`churn`]: transient host processes beside guest writes on a VM whose
//!   host daemon is armed, with periodic snapshot/digest/codec/audit
//!   checkpoints.
//!
//! A run repeats one workload at a fixed size ("rep") until its time budget
//! is spent; every rep sets up from scratch, so set-up time is a median
//! too. The untraced rep reports the end-to-end metrics; the traced rep
//! times calls into each module's public functions from this crate (see
//! [`harness::Layer`]) and never instruments the simulator itself.

pub mod churn;
pub mod fault;
pub mod harness;
pub mod report;
pub mod translate;

use harness::Layers;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 2D translation hot loop with SpOT.
    Translate,
    /// Native allocation path: fault, fork, COW, exit under fragmentation.
    Fault,
    /// Nested faults beside frees, the host daemon, and checkpoints.
    Churn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Translate, Workload::Fault, Workload::Churn];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Translate => "translate",
            Workload::Fault => "fault",
            Workload::Churn => "churn",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one rep: set-up, then the measured phase, then output checks.
    pub fn rep(self, seed: u64, traced: bool) -> Rep {
        match self {
            Workload::Translate => translate::rep(seed, traced),
            Workload::Fault => fault::rep(seed, traced),
            Workload::Churn => churn::rep(seed, traced),
        }
    }
}

/// What one rep of a workload measured and produced.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host nanoseconds before the first measured op.
    pub setup_ns: u64,
    /// Host wall nanoseconds of the measured phase, checks excluded.
    pub wall_ns: u64,
    /// Per-thread CPU nanoseconds over the same intervals.
    pub cpu_ns: u64,
    /// Wall nanoseconds of each segment of the measured phase; segments
    /// cut the same work at the same points in every rep of a seed.
    /// [`report::Run::push`] takes them.
    pub segments: Vec<u64>,
    /// Identical passes the measured phase made over the same state; the
    /// segments of each pass line up with those of the first.
    pub passes: usize,
    /// Ops attempted in the measured phase.
    pub ops: u64,
    /// Ops that returned an error.
    pub errors: u64,
    /// Output checks that failed, described.
    pub failures: Vec<String>,
    /// Digest of the final simulated state.
    pub digest: u64,
    /// Simulated counts of the measured phase; they must repeat exactly
    /// for a seed, traced or not.
    pub counts: Vec<(&'static str, f64)>,
    /// Host time per layer (measured-phase layers only when traced).
    pub layers: Layers,
}

impl Rep {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}
