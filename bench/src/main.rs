//! `stackbench`: one client-to-disk benchmark of the chimera stack.
//! See `bench/README.md`.

mod compare;
mod e2e;
mod json;
mod proc;
mod serve;
mod stats;
mod trace;
mod workload;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Spec, INSTANCES, WORKLOADS};

/// The contract the names, units and bounds are checked against; every
/// command runs from the repository root (`bench/run.sh` sees to that).
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// Command-line options after the subcommand: `--key value` pairs.
struct Opts(Vec<(String, String)>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Opts(out))
    }

    /// Refuse an option the command does not take, so that a mistyped or
    /// retired one is not silently ignored.
    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option `--{k}`")),
            None => Ok(()),
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
        }
    }
}

/// Where builds, scratch data, traces and result records go: the cargo
/// target directory the benchmark was built into (created if missing).
fn build_dir() -> Result<PathBuf, String> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The part of a result record that says where its numbers came from.
fn provenance(dir: &Path) -> Vec<(String, Json)> {
    vec![
        ("schema".into(), Json::str("stackbench-1")),
        (
            "git_rev".into(),
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".into(),
            Json::str(command_line("rustc", &["--version"])),
        ),
        (
            "host_parallelism".into(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("data_dir_fs".into(), Json::str(proc::fs_type(dir))),
    ]
}

/// One run, as the line the driver reads and as a record entry.
fn run_one(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    instances: usize,
    traced: bool,
    dir: &Path,
) -> Result<(Json, Json), String> {
    let out = if traced {
        trace::run(spec, seed, seconds, dir)?
    } else {
        e2e::run(spec, seed, seconds, instances, dir)?
    };
    let metrics = Json::obj(out.metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));
    let line = Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ]);
    if !out.correct {
        eprintln!(
            "INCORRECT: {} of {} jobs failed; details: {}",
            out.failed,
            out.attempted,
            out.details.render()
        );
    }
    let mut entry = vec![
        ("workload".to_string(), Json::str(spec.name)),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("trace".to_string(), Json::Num(f64::from(traced))),
    ];
    entry.extend(line.as_obj().iter().cloned());
    entry.push(("details".into(), out.details));
    Ok((line, Json::Obj(entry)))
}

fn write_record(path: &Path, dir: &Path, runs: Vec<Json>) -> Result<(), String> {
    let mut record = provenance(dir);
    record.push(("runs".into(), Json::Arr(runs)));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, Json::Obj(record).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `run`: the driver's entry point. One line per run on standard output
/// (the last line is the last run's), and a self-describing record of
/// all of them in `--out`.
fn cmd_run(opts: &Opts) -> Result<bool, String> {
    opts.only(&["workload", "seed", "seconds", "trace", "repeat", "out"])?;
    let dir = build_dir()?;
    let seed: u64 = opts.num("seed", 1)?;
    let seconds: f64 = opts.num("seconds", 22.0)?;
    let repeat: u64 = opts.num("repeat", 1)?;
    let traced = opts.num::<u8>("trace", 0)? != 0;
    let specs: Vec<&Spec> = match opts.get("workload") {
        Some(name) => vec![workload::spec(name).ok_or_else(|| format!("no workload `{name}`"))?],
        None => WORKLOADS.iter().collect(),
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for spec in specs {
        for r in 0..repeat {
            eprintln!(
                "{} seed {} trace {}:",
                spec.name,
                seed + r,
                u8::from(traced)
            );
            let (line, entry) = run_one(spec, seed + r, seconds, INSTANCES, traced, &dir)?;
            all_correct &= line.get("correct") == Some(&Json::Bool(true));
            println!("{}", line.render());
            runs.push(entry);
        }
    }
    let out = opts
        .get("out")
        .map_or_else(|| dir.join("bench-results/last.json"), PathBuf::from);
    write_record(&out, &dir, runs)?;
    Ok(all_correct)
}

/// What `BENCHMARK.json` lists under `key`, as `(name, second field)`.
fn declared(benchmark: &Json, key: &str, second: &str) -> Vec<(String, String)> {
    let field = |item: &Json, k: &str| {
        item.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    benchmark
        .get(key)
        .map_or(&[][..], Json::as_arr)
        .iter()
        .map(|item| (field(item, "name"), field(item, second)))
        .collect()
}

/// The names a run emitted must be the names `BENCHMARK.json` declares:
/// each once, with its unit and a finite value.
fn check_names(line: &Json, declared: &[(String, String)]) -> Result<(), String> {
    let emitted = line.get("metrics").map_or(&[][..], Json::as_obj);
    for (name, unit) in declared {
        let mut found = emitted.iter().filter(|(n, _)| n == name);
        let (Some((_, metric)), None) = (found.next(), found.next()) else {
            return Err(format!("metric `{name}` is not emitted exactly once"));
        };
        if metric.get("unit").and_then(Json::as_str) != Some(unit) {
            return Err(format!("metric `{name}`: unit differs from BENCHMARK.json"));
        }
        if !metric
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
        {
            return Err(format!("metric `{name}` has no finite value"));
        }
    }
    match emitted
        .iter()
        .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
    {
        Some((extra, _)) => Err(format!("metric `{extra}` is not in BENCHMARK.json")),
        None => Ok(()),
    }
}

/// `smoke`: every workload at 1/100 size, both modes, and the name
/// self-check against `BENCHMARK.json`.
fn cmd_smoke() -> Result<bool, String> {
    let dir = build_dir()?;
    let benchmark = compare::read_json(Path::new(BENCHMARK_JSON))?;
    let workloads: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|s| (s.name.to_string(), s.why()))
        .collect();
    if workloads != declared(&benchmark, "workloads", "why") {
        return Err(format!(
            "BENCHMARK.json's workloads differ from the workload table, which says {workloads:#?}"
        ));
    }
    let mut all_correct = true;
    for spec in &WORKLOADS {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (line, _) = run_one(spec, 1, 0.16, 1, traced, &dir)?;
            check_names(&line, &declared(&benchmark, key, "unit"))
                .map_err(|e| format!("{} ({key}): {e}", spec.name))?;
            let correct = line.get("correct") == Some(&Json::Bool(true));
            eprintln!(
                "{:<16} {key:<10} {}",
                spec.name,
                if correct { "ok" } else { "INCORRECT" }
            );
            all_correct &= correct;
        }
    }
    Ok(all_correct)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: stackbench compare A.json B.json".into());
    };
    Ok(compare::compare(
        &compare::read_json(Path::new(BENCHMARK_JSON))?,
        &compare::read_json(Path::new(a))?,
        &compare::read_json(Path::new(b))?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: stackbench run|trace|smoke|compare|serve ...  (see bench/README.md)");
        return ExitCode::from(2);
    };
    if cmd == "compare" {
        return finish(cmd_compare(rest));
    }
    finish(Opts::parse(rest).and_then(|mut opts| match cmd.as_str() {
        "run" => cmd_run(&opts),
        "trace" => {
            opts.0.insert(0, ("trace".into(), "1".into()));
            cmd_run(&opts)
        }
        "smoke" => opts.only(&[]).and_then(|()| cmd_smoke()),
        "serve" => {
            opts.only(&["workload", "dir"])?;
            let name = opts.get("workload").ok_or("serve needs --workload")?;
            let spec = workload::spec(name).ok_or_else(|| format!("no workload `{name}`"))?;
            serve::serve(spec, opts.get("dir").map(Path::new)).map(|()| true)
        }
        other => Err(format!("unknown command `{other}`")),
    }))
}

fn finish(result: Result<bool, String>) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::from(2)
        }
    }
}
