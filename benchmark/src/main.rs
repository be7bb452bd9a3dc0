//! `sigma-benchmark` — the repository benchmark.
//!
//! ```text
//! sigma-benchmark run --workload W --seed N --seconds S --trace 0|1 --daemon PATH --out DIR
//! sigma-benchmark suite [--workload W] [--seed N] [--seconds S] [--runs R] [--sets K] [--traced]
//!                       --daemon PATH --out DIR
//! sigma-benchmark compare A.json B.json
//! ```
//!
//! `run` measures one workload in this process and prints one JSON object
//! as the last line of standard output; `suite` runs every workload, each
//! run in a process of its own, and prints one document; `compare` judges
//! two such documents. `benchmark/run.sh` builds and dispatches.

mod engine_bulk;
mod gen;
mod host;
mod learn_pokec;
mod obs;
mod repair_churn;
mod report;
mod spec;
mod stats;
mod suite;
mod trace;
mod wire_point;

use report::{RunArgs, RunError};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--name value` pairs and bare flags, in any order.
pub(crate) struct Flags(Vec<String>);

impl Flags {
    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub(crate) fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, RunError> {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| RunError::Setup(format!("{name} {raw}: not a valid value"))),
        }
    }

    pub(crate) fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub(crate) fn path(&self, name: &str) -> Result<PathBuf, RunError> {
        self.value(name)
            .map(PathBuf::from)
            .ok_or_else(|| RunError::Setup(format!("{name} PATH is required")))
    }
}

fn run_one(flags: &Flags) -> Result<(), RunError> {
    let workload = flags
        .value("--workload")
        .ok_or_else(|| RunError::Setup("--workload NAME is required".into()))?
        .to_string();
    let args = RunArgs {
        workload,
        seed: flags.parsed("--seed")?.unwrap_or(spec::DEFAULT_SEED),
        seconds: flags
            .parsed("--seconds")?
            .unwrap_or(spec::RUN_SECONDS as f64),
        trace: flags.parsed::<u8>("--trace")?.unwrap_or(0) != 0,
        daemon: flags.path("--daemon")?,
        out: flags.path("--out")?,
    };
    if !args.seconds.is_finite() || args.seconds < 1.0 {
        return Err(RunError::Setup("--seconds must be at least 1".into()));
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| RunError::Setup(format!("creating {}: {e}", args.out.display())))?;
    eprintln!(
        "sigma-benchmark: workload {} seed {} seconds {} trace {} host_cores {} load_threads {} compute_threads {} load1 {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        host::cores(),
        host::load_threads(),
        host::compute_threads(),
        host::load1(),
    );

    let mut tracer = trace::Tracer::new(args.trace, std::time::Instant::now());
    let mut outcome = match args.workload.as_str() {
        "learn_pokec" => learn_pokec::run(&args, &mut tracer),
        "wire_point" => wire_point::run(&args, &mut tracer),
        "engine_bulk" => engine_bulk::run(&args, &mut tracer),
        "repair_churn" => repair_churn::run(&args, &mut tracer),
        other => Err(RunError::Setup(format!(
            "unknown workload {other}; the workloads are {}",
            spec::workload_names().join(", ")
        ))),
    }?;
    if args.trace {
        let path = args.out.join(format!("{}.trace.jsonl", args.workload));
        trace::write_jsonl(&path, tracer.spans())
            .map_err(|e| RunError::Setup(format!("writing {}: {e}", path.display())))?;
        outcome.set("trace.spans", tracer.spans().len() as f64);
        for (name, self_ns, count) in trace::median_self_by_name(tracer.spans()) {
            eprintln!("sigma-benchmark: span {name}: median self {self_ns:.0} ns over {count}");
        }
    }
    println!("{}", report::result_line(args.trace, &outcome));
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let flags = Flags(argv);
    let result = match command.as_str() {
        "run" => run_one(&flags),
        "suite" => suite::run(&flags),
        "compare" => suite::compare(&flags.0),
        _ => Err(RunError::Setup(
            "usage: sigma-benchmark run|suite|compare ... (see benchmark/README.md)".into(),
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sigma-benchmark: {e}");
            ExitCode::from(match e {
                RunError::Gate(_) => 3,
                RunError::Noisy(_) => 4,
                RunError::Setup(_) => 2,
            })
        }
    }
}
