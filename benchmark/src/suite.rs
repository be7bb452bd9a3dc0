//! `suite`: every workload, each run in a process of its own, gathered
//! into one JSON document. `compare`: two such documents judged per
//! workload and end-to-end metric against the benchmark's own bounds.

use crate::report::RunError;
use crate::spec::{self, Better, MetricSpec, END_TO_END, PER_LAYER};
use crate::{host, stats, Flags};
use sigma_daemon::{json, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// One finished `run`: its seed and the metrics of its result line.
#[derive(Debug, Clone)]
struct RunResult {
    seed: u64,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// All runs of one pass over the workloads.
#[derive(Debug, Clone, Default)]
struct Set {
    timed: BTreeMap<String, Vec<RunResult>>,
    traced: BTreeMap<String, RunResult>,
}

fn parse_result(seed: u64, line: &str) -> Result<RunResult, RunError> {
    let bad = |why: &str| RunError::Setup(format!("result line {why}: {line}"));
    let doc = json::parse(line.as_bytes()).map_err(|e| bad(&e.to_string()))?;
    let count = |key: &str| doc.get(key).and_then(Json::as_index).map(|v| v as u64);
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_num)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| bad("has a metric without a value"))
            })
            .collect::<Result<_, _>>()?,
        _ => return Err(bad("has no metrics object")),
    };
    Ok(RunResult {
        seed,
        attempted: count("attempted").ok_or_else(|| bad("has no attempted count"))?,
        failed: count("failed").ok_or_else(|| bad("has no failed count"))?,
        metrics,
    })
}

/// Runs one workload once in a child process of this same binary.
fn child_run(
    flags: &Flags,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, RunError> {
    let exe = std::env::current_exe().map_err(|e| RunError::Setup(format!("own path: {e}")))?;
    let output = Command::new(exe)
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--daemon")
        .arg(flags.path("--daemon")?)
        .arg("--out")
        .arg(flags.path("--out")?)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| RunError::Setup(format!("running {workload}: {e}")))?;
    if !output.status.success() {
        // The child already said why on stderr; carry its verdict up.
        let why = format!("{workload} seed {seed} ended with {}", output.status);
        return Err(match output.status.code() {
            Some(3) => RunError::Gate(why),
            Some(4) => RunError::Noisy(why),
            _ => RunError::Setup(why),
        });
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| RunError::Setup(format!("{workload} printed no result")))?;
    parse_result(seed, line)
}

fn values(runs: &[RunResult], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn summary_json(specs: &[MetricSpec], runs: &[RunResult]) -> String {
    let entries: Vec<String> = specs
        .iter()
        .filter_map(|spec| {
            let v = values(runs, spec.name);
            if v.is_empty() {
                return None;
            }
            let (q1, median, q3) = stats::quartiles(&v);
            Some(format!(
                "\"{}\": {{\"unit\": \"{}\", \"median\": {median}, \"q1\": {q1}, \"q3\": {q3}, \"samples\": {}}}",
                spec.name,
                spec.unit,
                v.len()
            ))
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn runs_json(runs: &[RunResult]) -> String {
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            format!(
                "{{\"seed\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                r.seed,
                r.attempted,
                r.failed,
                metrics.join(", ")
            )
        })
        .collect();
    format!("[{}]", entries.join(", "))
}

fn set_json(set: &Set) -> String {
    let workloads: Vec<String> = set
        .timed
        .iter()
        .map(|(name, runs)| {
            let mut fields = vec![
                format!("\"end_to_end\": {}", summary_json(END_TO_END, runs)),
                format!("\"runs\": {}", runs_json(runs)),
            ];
            if let Some(traced) = set.traced.get(name) {
                let traced = std::slice::from_ref(traced);
                fields.push(format!(
                    "\"per_layer\": {}",
                    summary_json(PER_LAYER, traced)
                ));
                // Tracing overhead: the traced run's p50 against the timed runs'.
                let timed_p50 = stats::median(&values(runs, "lat_p50_us"));
                if let Some(traced_p50) = traced[0].metrics.get("trace.lat_p50_us") {
                    fields.push(format!(
                        "\"trace_overhead_pct\": {}",
                        100.0 * (traced_p50 - timed_p50) / timed_p50
                    ));
                }
            }
            format!("\"{name}\": {{{}}}", fields.join(", "))
        })
        .collect();
    format!("{{\"workloads\": {{{}}}}}", workloads.join(", "))
}

/// One row of a comparison: a workload, an end-to-end metric, the verdict.
struct Row {
    workload: String,
    spec: MetricSpec,
    a: (f64, f64, f64),
    b: (f64, f64, f64),
    /// Share of A's median by which B is worse (negative: better).
    worse_by: f64,
    spread: f64,
    verdict: &'static str,
}

fn compare_sets(a: &Set, b: &Set) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, runs_a) in &a.timed {
        let Some(runs_b) = b.timed.get(workload) else {
            continue;
        };
        for spec in END_TO_END {
            let (va, vb) = (values(runs_a, spec.name), values(runs_b, spec.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
            let change = (qb.1 - qa.1) / qa.1;
            let worse_by = match spec.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let spread_of = |q: (f64, f64, f64)| (q.2 - q.0) / q.1.abs();
            let spread = spread_of(qa).max(spread_of(qb));
            // Set-up time is exempt from the spread rule: it is judged on
            // its medians alone.
            let verdict = if spread > spec.bound && spec.name != "setup_s" {
                "unresolved"
            } else if worse_by > spec.bound {
                "regressed"
            } else if -worse_by > spread {
                "improved"
            } else {
                "unchanged"
            };
            rows.push(Row {
                workload: workload.clone(),
                spec: *spec,
                a: qa,
                b: qb,
                worse_by,
                spread,
                verdict,
            });
        }
    }
    rows
}

fn rows_json(rows: &[Row]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \
                 \"a\": {{\"q1\": {}, \"median\": {}, \"q3\": {}}}, \
                 \"b\": {{\"q1\": {}, \"median\": {}, \"q3\": {}}}, \
                 \"worse_by\": {}, \"base\": {}, \"spread\": {}, \"bound\": {}, \"verdict\": \"{}\"}}",
                r.workload, r.spec.name, r.spec.unit, r.a.0, r.a.1, r.a.2, r.b.0, r.b.1, r.b.2,
                r.worse_by, r.a.1, r.spread, r.spec.bound, r.verdict
            )
        })
        .collect();
    format!("[{}]", entries.join(", "))
}

fn print_table(rows: &[Row]) {
    eprintln!(
        "{:<13} {:<12} {:>30} {:>30} {:>9} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A q1 / median / q3",
        "B q1 / median / q3",
        "worse by",
        "spread",
        "bound"
    );
    for r in rows {
        let q = |q: (f64, f64, f64)| format!("{:.4} / {:.4} / {:.4}", q.0, q.1, q.2);
        eprintln!(
            "{:<13} {:<12} {:>30} {:>30} {:>8.2}% {:>7.2}% {:>5.0}%  {} (base {:.4} {})",
            r.workload,
            r.spec.name,
            q(r.a),
            q(r.b),
            100.0 * r.worse_by,
            100.0 * r.spread,
            100.0 * r.spec.bound,
            r.verdict,
            r.a.1,
            r.spec.unit
        );
    }
}

/// Regressed or unresolved rows fail the comparison.
fn judge(rows: &[Row]) -> Result<(), RunError> {
    let bad: Vec<String> = rows
        .iter()
        .filter(|r| matches!(r.verdict, "regressed" | "unresolved"))
        .map(|r| format!("{} {} {}", r.workload, r.spec.name, r.verdict))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(RunError::Gate(format!(
            "comparison failed: {}",
            bad.join("; ")
        )))
    }
}

fn host_json() -> String {
    format!(
        "{{\"host_cores\": {}, \"load_threads\": {}, \"compute_threads\": {}, \"load1_at_start\": {}}}",
        host::cores(),
        host::load_threads(),
        host::compute_threads(),
        host::load1()
    )
}

pub fn run(flags: &Flags) -> Result<(), RunError> {
    // `--held-out` runs on the seed no one tuned against.
    let default_seed = if flags.has("--held-out") {
        spec::HELD_OUT_SEED
    } else {
        spec::DEFAULT_SEED
    };
    let seed = flags.parsed("--seed")?.unwrap_or(default_seed);
    let seconds = flags
        .parsed("--seconds")?
        .unwrap_or(spec::RUN_SECONDS as f64);
    let runs: u64 = flags.parsed("--runs")?.unwrap_or(5);
    let sets: usize = flags.parsed("--sets")?.unwrap_or(1);
    let workloads: Vec<&str> = match flags.value("--workload") {
        Some(one) => vec![one],
        None => spec::workload_names(),
    };
    let host = host_json();
    let mut done = Vec::new();
    for _ in 0..sets {
        let mut set = Set::default();
        for workload in &workloads {
            for r in 0..runs {
                let result = child_run(flags, workload, seed + r, seconds, false)?;
                set.timed
                    .entry(workload.to_string())
                    .or_default()
                    .push(result);
            }
            if flags.has("--traced") {
                let result = child_run(flags, workload, seed, seconds, true)?;
                set.traced.insert(workload.to_string(), result);
            }
        }
        done.push(set);
    }
    let rows = (done.len() == 2).then(|| compare_sets(&done[0], &done[1]));
    let sets_json: Vec<String> = done.iter().map(set_json).collect();
    let compare_json = rows.as_ref().map_or(String::new(), |rows| {
        format!("\"compare\": {}, ", rows_json(rows))
    });
    // This benchmark measures; it claims nothing.
    println!(
        "{{\"benchmark\": \"sigma-benchmark\", \"host\": {host}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"runs_per_workload\": {runs}, \"sets\": [{}], {compare_json}\"claim\": null}}",
        sets_json.join(", ")
    );
    match rows {
        Some(rows) => {
            print_table(&rows);
            judge(&rows)
        }
        None => Ok(()),
    }
}

/// Reads the first set of a document `suite` printed.
fn load_set(path: &Path) -> Result<Set, RunError> {
    let bad = |why: &str| RunError::Setup(format!("{}: {why}", path.display()));
    let text = std::fs::read(path).map_err(|e| bad(&e.to_string()))?;
    let doc = json::parse(&text).map_err(|e| bad(&e.to_string()))?;
    let workloads = doc
        .get("sets")
        .and_then(Json::as_arr)
        .and_then(|sets| sets.first())
        .and_then(|set| set.get("workloads"));
    let Some(Json::Obj(workloads)) = workloads else {
        return Err(bad("no sets[0].workloads object"));
    };
    let mut set = Set::default();
    for (name, workload) in workloads {
        let runs = workload
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("a workload without runs"))?;
        for run in runs {
            let Some(Json::Obj(metrics)) = run.get("metrics") else {
                return Err(bad("a run without metrics"));
            };
            set.timed.entry(name.clone()).or_default().push(RunResult {
                seed: run.get("seed").and_then(Json::as_index).unwrap_or(0) as u64,
                attempted: 0,
                failed: 0,
                metrics: metrics
                    .iter()
                    .filter_map(|(k, v)| v.as_num().map(|v| (k.clone(), v)))
                    .collect(),
            });
        }
    }
    Ok(set)
}

pub fn compare(args: &[String]) -> Result<(), RunError> {
    let [a, b] = args else {
        return Err(RunError::Setup(
            "usage: sigma-benchmark compare A.json B.json".into(),
        ));
    };
    let rows = compare_sets(&load_set(Path::new(a))?, &load_set(Path::new(b))?);
    println!("{}", rows_json(&rows));
    print_table(&rows);
    judge(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_line, Outcome};

    fn run_with(values: &[(&str, f64)]) -> RunResult {
        RunResult {
            seed: 0,
            attempted: 1,
            failed: 0,
            metrics: values.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn set_of(workload: &str, metric: &str, values: &[f64]) -> Set {
        let mut set = Set::default();
        set.timed.insert(
            workload.into(),
            values.iter().map(|&v| run_with(&[(metric, v)])).collect(),
        );
        set
    }

    fn verdict(a: &[f64], b: &[f64], metric: &str) -> &'static str {
        compare_sets(&set_of("w", metric, a), &set_of("w", metric, b))[0].verdict
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 100.5, 99.5, 100.2];
        // lat_p50_us: lower is better, bound 25 %.
        assert_eq!(verdict(&steady, &steady, "lat_p50_us"), "unchanged");
        assert_eq!(
            verdict(&steady, &steady.map(|v| v * 1.2), "lat_p50_us"),
            "unchanged"
        );
        assert_eq!(
            verdict(&steady, &steady.map(|v| v * 1.4), "lat_p50_us"),
            "regressed"
        );
        assert_eq!(
            verdict(&steady, &steady.map(|v| v * 0.8), "lat_p50_us"),
            "improved"
        );
        // nodes_per_s: higher is better, so the same factors swap.
        assert_eq!(
            verdict(&steady, &steady.map(|v| v * 0.6), "nodes_per_s"),
            "regressed"
        );
        assert_eq!(
            verdict(&steady, &steady.map(|v| v * 1.2), "nodes_per_s"),
            "improved"
        );
        // Runs that disagree among themselves by more than the bound settle nothing.
        let wild = [100.0, 140.0, 70.0, 120.0, 90.0];
        assert_eq!(verdict(&wild, &steady, "lat_p50_us"), "unresolved");
        // ... except for set-up time, judged on medians alone.
        assert_eq!(verdict(&wild, &wild, "setup_s"), "unchanged");
    }

    #[test]
    fn result_lines_round_trip_and_name_exactly_the_spec() {
        let mut timed = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        for spec in END_TO_END {
            timed.set(spec.name, 1.5);
        }
        let parsed = parse_result(9, &result_line(false, &timed)).unwrap();
        assert_eq!((parsed.seed, parsed.attempted, parsed.failed), (9, 12, 0));
        let names: Vec<&str> = parsed.metrics.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected);

        // A traced line carries every layer metric; unexercised layers read 0.
        let traced = parse_result(9, &result_line(true, &Outcome::default())).unwrap();
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert!(traced.metrics.values().all(|&v| v == 0.0));
    }

    /// `BENCHMARK.json` and the spec name the same workloads and metrics,
    /// with the same units, directions and bounds, in legal characters.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let doc = json::parse(include_bytes!("../../BENCHMARK.json")).unwrap();
        let legal = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.chars().next().unwrap().is_ascii_alphanumeric()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), spec::workload_names());
        for (entry, (_, why)) in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(spec::WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(*why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(entries.len(), specs.len(), "{key}");
            for (entry, spec) in entries.iter().zip(specs) {
                assert!(legal(spec.name), "{}", spec.name);
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(spec.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
                let better = match spec.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
                if key == "end_to_end" {
                    assert_eq!(entry.get("bound").and_then(Json::as_num), Some(spec.bound));
                    assert!(spec.bound > 0.0 && spec.bound <= 0.25);
                }
            }
        }
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(all.len(), unique.len(), "a metric name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_index),
            Some(spec::RUN_SECONDS as usize)
        );
    }
}
