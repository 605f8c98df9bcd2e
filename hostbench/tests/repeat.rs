//! The benchmark's own test: a short run per workload must pass its output
//! checks, repeat its simulated counts and final digest exactly (traced or
//! not), and print only well-formed metric names — the ones
//! `BENCHMARK.json` declares. Run it in release mode:
//! `cargo test --release --manifest-path hostbench/Cargo.toml`.

use contig_hostbench::report::{per_layer, Run, COUNTS, END_TO_END};
use contig_hostbench::Workload;

/// Whether `s` is non-empty and made only of ASCII letters, digits and
/// the characters in `extra`.
fn made_of(s: &str, extra: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn short_runs_repeat_exactly() {
    for w in Workload::ALL {
        let reps = vec![
            (false, w.rep(7, false)),
            (false, w.rep(7, false)),
            (true, w.rep(7, true)),
        ];
        for (traced, rep) in &reps {
            assert!(
                rep.failures.is_empty(),
                "{} traced={traced}: {:?}",
                w.name(),
                rep.failures
            );
            assert_eq!(rep.errors, 0, "{} traced={traced}", w.name());
            assert!(
                rep.ops > 0 && rep.wall_ns > 0,
                "{} measured nothing",
                w.name()
            );
            assert_eq!(
                rep.counts,
                reps[0].1.counts,
                "{}: counts moved between reps",
                w.name()
            );
            assert_eq!(
                rep.digest,
                reps[0].1.digest,
                "{}: digest moved between reps",
                w.name()
            );
            for (name, _) in &rep.counts {
                assert!(
                    COUNTS.iter().any(|m| m.name == *name),
                    "{name} is not in the catalog"
                );
            }
        }
        let traced = &reps[2].1;
        assert!(
            traced.layers.phase_total() > 0,
            "{}: traced rep timed no layer",
            w.name()
        );

        let mut run = Run::default();
        for (traced, rep) in reps {
            run.push(traced, rep);
        }
        assert!(run.segments() > 0, "{}: no segments marked", w.name());
        for trace in [false, true] {
            let outcome = run.outcome(trace);
            assert_eq!(outcome.failed, 0, "{}: {:?}", w.name(), outcome.failures);
            let expected = if trace {
                per_layer().len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(outcome.metrics.len(), expected);
            for (m, v) in &outcome.metrics {
                assert!(made_of(m.name, "_.-"), "metric name {}", m.name);
                assert!(made_of(m.unit, "_/%.-"), "unit {}", m.unit);
                assert!(v.is_finite(), "{} = {v}", m.name);
            }
            let json = outcome.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
        let e2e = run.outcome(false);
        for (m, v) in &e2e.metrics {
            assert!(*v > 0.0, "{}: end-to-end metric {} is 0", w.name(), m.name);
        }
    }
}

/// `(name, unit)` of every metric object in one array of `BENCHMARK.json`.
fn declared(text: &str, key: &str) -> Vec<(String, String)> {
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let section = &text[start..];
    let section = &section[..section.find(']').expect("unterminated array")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj
            .find(&format!("\"{f}\": \""))
            .unwrap_or_else(|| panic!("no {f} in {obj}"));
        let rest = &obj[at + f.len() + 5..];
        rest[..rest.find('"').unwrap()].to_string()
    };
    section
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let own = |metrics: Vec<contig_hostbench::report::Metric>| -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(declared(&text, "end_to_end"), own(END_TO_END.to_vec()));
    assert_eq!(declared(&text, "per_layer"), own(per_layer()));
    let workloads: Vec<String> = text[text.find("\"workloads\"").unwrap()..]
        .split("\"name\": \"")
        .skip(1)
        .take(Workload::ALL.len())
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect();
    let own_workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, own_workloads);
}
