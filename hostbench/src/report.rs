//! Running a workload for its time budget, the metric catalog, output
//! checks across reps, and the result line.

use std::time::{Duration, Instant};

use crate::harness::{allowed_cpus, median, peak_rss_mib, pin_to_cpu, ratio, Layer};
use crate::{Rep, Workload};

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, from the untraced reps (`--trace 0`). `ops_per_s`
/// divides a rep's ops by its best time: the sum over segments of each
/// segment's fastest time across the run's timed untraced reps (see
/// [`Run::best_ns`]). `setup_s` is the median set-up time of those reps.
pub const END_TO_END: [Metric; 3] = [
    m("ops_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
];

/// Per-layer metrics beside the layer timings (`--trace 1`): simulated
/// counts, which must repeat exactly for a seed, then the harness's health.
pub const COUNTS: [Metric; 35] = [
    m("tlb.accesses", "count"),
    m("tlb.l1_hits", "count"),
    m("tlb.l2_hits", "count"),
    m("tlb.walks", "count"),
    m("tlb.walk_refs", "count"),
    m("tlb.miss_ratio", "ratio"),
    m("core.spot.predicted", "count"),
    m("core.spot.mispredicted", "count"),
    m("core.spot.correct_ratio", "ratio"),
    m("sim.walk_cycles", "cycles"),
    m("sim.overhead_ppm", "ppm"),
    m("buddy.allocs", "count"),
    m("buddy.frees", "count"),
    m("buddy.splits", "count"),
    m("buddy.coalesces", "count"),
    m("buddy.targeted_allocs", "count"),
    m("buddy.targeted_misses", "count"),
    m("core.ca.placements", "count"),
    m("core.ca.target_hits", "count"),
    m("core.ca.target_misses", "count"),
    m("core.ca.hit_ratio", "ratio"),
    m("mm.faults_4k", "count"),
    m("mm.faults_2m", "count"),
    m("mm.cow_faults", "count"),
    m("mm.daemon.epochs", "count"),
    m("mm.daemon.compact_moves", "count"),
    m("mm.daemon.promoted", "count"),
    m("sim.mean_run_pages", "pages"),
    m("bench.trace_overhead_ratio", "ratio"),
    m("bench.layer_coverage_ratio", "ratio"),
    m("bench.cpu_wall_ratio", "ratio"),
    m("bench.best_to_median_ratio", "ratio"),
    m("bench.untraced_reps", "count"),
    m("bench.traced_reps", "count"),
    m("error_ratio", "ratio"),
];

/// Every per-layer metric: the layer timings, then [`COUNTS`].
pub fn per_layer() -> Vec<Metric> {
    Layer::ALL
        .iter()
        .map(|l| m(l.metric(), "ns"))
        .chain(COUNTS)
        .collect()
}

/// Reps run before the clock-sensitive ones: the first rep of a process
/// pays allocator growth and cold caches, so it is checked but not timed.
const WARMUP_REPS: usize = 1;
/// Timed reps a run makes at least, whatever its budget.
const MIN_TIMED_REPS: usize = 3;

/// A finished run: every rep, in order, with whether it was traced.
#[derive(Debug, Default)]
pub struct Run {
    /// `(traced, rep)` in execution order; the first [`WARMUP_REPS`] are
    /// warm-up. Segment times are folded into the run as reps are pushed,
    /// so each rep's own list is left empty.
    pub reps: Vec<(bool, Rep)>,
    /// Segments in each rep's measured phase (those of the first rep).
    segments: usize,
    /// Per segment of one pass, the fastest time of any pass of any timed
    /// untraced rep.
    best: Vec<u64>,
    /// Passes per rep (those of the first rep).
    passes: usize,
}

/// Runs `workload` rep after rep until `seconds` have passed. With `trace`,
/// timed reps alternate untraced and traced so drift hits both alike.
///
/// The one thread moves to the next of the CPUs it may use before each
/// rep. On a shared host each CPU is slowed by other tenants in spells of
/// seconds to a minute, largely independently of the others; rotating
/// lets every segment meet an undisturbed spell on some CPU (see
/// [`Run::best_ns`]) instead of sitting out a slow spell on one.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Run {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let cpus = allowed_cpus();
    let mut run = Run::default();
    loop {
        if let Some(&cpu) = cpus.get(run.reps.len() % cpus.len().max(1)) {
            pin_to_cpu(cpu);
        }
        let timed = run.reps.len().saturating_sub(WARMUP_REPS);
        let per_kind = if trace { timed / 2 } else { timed };
        if per_kind >= MIN_TIMED_REPS && start.elapsed() >= budget {
            break;
        }
        let traced = trace && run.reps.len() >= WARMUP_REPS && timed % 2 == 1;
        run.push(traced, workload.rep(seed, traced));
    }
    run
}

/// The result of a run: metrics, ops attempted, and failures.
#[derive(Debug)]
pub struct Outcome {
    /// `(metric, value)` in catalog order.
    pub metrics: Vec<(Metric, f64)>,
    /// Ops attempted over every rep.
    pub attempted: u64,
    /// Ops that failed plus output checks that failed.
    pub failed: u64,
    /// Descriptions of the failures.
    pub failures: Vec<String>,
}

impl Run {
    fn timed(&self, traced: bool) -> impl Iterator<Item = &Rep> {
        self.reps
            .iter()
            .skip(WARMUP_REPS)
            .filter(move |(t, _)| *t == traced)
            .map(|(_, r)| r)
    }

    /// Appends the next rep. Its segment times are checked against the
    /// first rep's segment and pass counts and, for a timed untraced rep,
    /// folded into the per-segment best times; the rep keeps none of them,
    /// so memory does not grow with the number of reps.
    pub fn push(&mut self, traced: bool, mut rep: Rep) {
        let segments = std::mem::take(&mut rep.segments);
        let shape = (segments.len(), rep.passes);
        if self.reps.is_empty() {
            (self.segments, self.passes) = shape;
            rep.check(shape.1 > 0 && shape.0.is_multiple_of(shape.1), || {
                format!("{} segments in {} passes", shape.0, shape.1)
            });
        } else if shape != (self.segments, self.passes) {
            let expected = (self.segments, self.passes);
            rep.check(false, || {
                format!("(segments, passes) {shape:?}, rep 0 had {expected:?}")
            });
        }
        if !traced && self.reps.len() >= WARMUP_REPS && rep.failures.is_empty() {
            let per_pass = self.segments / self.passes.max(1);
            if self.best.is_empty() {
                self.best = vec![u64::MAX; per_pass];
            }
            for (i, s) in segments.into_iter().enumerate() {
                let b = &mut self.best[i % per_pass];
                *b = (*b).min(s);
            }
        }
        self.reps.push((traced, rep));
    }

    /// Segments in each rep's measured phase.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Host nanoseconds of one rep's measured phase at its best: for each
    /// segment, the fastest time any pass of any timed untraced rep took
    /// for it, summed, times the passes per rep. Every pass of every rep
    /// of a seed does the same work segment by segment, so this drops the
    /// time a segment lost to other tenants of a shared host whenever one
    /// pass ran it undisturbed; a median over reps keeps whatever share of
    /// contended time the run happened to get.
    pub fn best_ns(&self) -> u64 {
        self.best.iter().sum::<u64>() * self.passes as u64
    }

    /// Output checks over the whole run plus every rep's own checks: all
    /// reps, traced or not, must reach the same digest and the same
    /// simulated counts, in the same ops.
    fn failures(&self) -> (u64, Vec<String>) {
        let mut failures = Vec::new();
        let mut errors = 0;
        let (_, first) = &self.reps[0];
        for (i, (traced, rep)) in self.reps.iter().enumerate() {
            errors += rep.errors;
            let kind = if *traced { "traced" } else { "untraced" };
            failures.extend(
                rep.failures
                    .iter()
                    .map(|f| format!("rep {i} ({kind}): {f}")),
            );
            if rep.digest != first.digest {
                failures.push(format!(
                    "rep {i} ({kind}): final digest {:#x} differs from rep 0's {:#x}",
                    rep.digest, first.digest
                ));
            }
            if rep.ops != first.ops {
                failures.push(format!(
                    "rep {i} ({kind}): {} ops, rep 0 had {}",
                    rep.ops, first.ops
                ));
            }
            if rep.counts != first.counts {
                failures.push(format!(
                    "rep {i} ({kind}): simulated counts {:?} differ from rep 0's {:?}",
                    rep.counts, first.counts
                ));
            }
        }
        (errors, failures)
    }

    /// Aggregates the run: end-to-end metrics without `trace`, per-layer
    /// metrics with it.
    pub fn outcome(&self, trace: bool) -> Outcome {
        let (errors, failures) = self.failures();
        let attempted: u64 = self.reps.iter().map(|(_, r)| r.ops).sum();
        let failed = errors + failures.len() as u64;
        let med = |traced: bool, f: &dyn Fn(&Rep) -> f64| -> f64 {
            median(&self.timed(traced).map(f).collect::<Vec<_>>())
        };
        let best_ops_per_s = ratio(self.reps[0].1.ops as f64, self.best_ns() as f64 / 1e9);
        let values: Vec<(&str, f64)> = if trace {
            let untraced_wall = med(false, &|r| r.wall_ns as f64);
            let traced_wall = med(true, &|r| r.wall_ns as f64);
            let mut v: Vec<(&str, f64)> = Layer::ALL
                .iter()
                .map(|&l| (l.metric(), med(true, &|r| r.layers.get(l) as f64)))
                .collect();
            v.extend(self.reps[0].1.counts.iter().copied());
            v.extend([
                (
                    "bench.trace_overhead_ratio",
                    ratio(traced_wall, untraced_wall),
                ),
                (
                    "bench.layer_coverage_ratio",
                    med(true, &|r| {
                        ratio(r.layers.phase_total() as f64, r.wall_ns as f64)
                    }),
                ),
                (
                    "bench.cpu_wall_ratio",
                    med(false, &|r| ratio(r.cpu_ns as f64, r.wall_ns as f64)),
                ),
                (
                    "bench.best_to_median_ratio",
                    ratio(
                        best_ops_per_s,
                        med(false, &|r| ratio(r.ops as f64, r.wall_ns as f64 / 1e9)),
                    ),
                ),
                ("bench.untraced_reps", self.timed(false).count() as f64),
                ("bench.traced_reps", self.timed(true).count() as f64),
                ("error_ratio", ratio(failed as f64, attempted as f64)),
            ]);
            v
        } else {
            vec![
                ("ops_per_s", best_ops_per_s),
                ("setup_s", med(false, &|r| r.setup_ns as f64 / 1e9)),
                ("peak_rss_mib", peak_rss_mib()),
            ]
        };
        let catalog = if trace {
            per_layer()
        } else {
            END_TO_END.to_vec()
        };
        let metrics = catalog
            .into_iter()
            .map(|m| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map_or(0.0, |&(_, v)| v);
                (m, value)
            })
            .collect();
        Outcome {
            metrics,
            attempted,
            failed,
            failures,
        }
    }
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(*v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
