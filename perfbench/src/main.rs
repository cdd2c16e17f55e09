//! `perfbench`: the fuleak benchmark driver.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--miss-every N]
//! ```
//!
//! Runs one workload in this process on single-worker engines: its
//! set-up `SETUP_REPS` times, then rounds of fixed work until `S`
//! seconds have passed, then the set-up `SETUP_REPS` times more
//! (`setup_s` is the median of all set-ups). Every round's output is
//! checked and its work counters must match the first round's.
//! A round is cut into laps that do the same work in every round;
//! `wall_s` and `cpu_s` are the sums over the laps of each lap's
//! fastest wall and CPU time in the run. On a shared host a
//! neighbour slows the program for stretches of a fraction of a
//! second to a minute; a lap's fastest time needs one quiet moment
//! of the lap's length, where the fastest whole round needs a whole
//! quiet round. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). A traced run alternates
//! untraced and traced rounds, so it can state its own tracing
//! overhead, and writes its spans as Chrome trace-event JSON under
//! `.perfbench/`. `--miss-every` changes the share of `serve_mixed`
//! requests that miss the response cache.

mod common;
mod explore_grid;
mod paper_quick;
mod serve_mixed;
mod sweep_store;
mod sys;
mod trace;

use common::{median, Checked, Counters, Laps, Options, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Layer, RoundAccount, Tracer};

/// Set-ups per run before the rounds and after them; `setup_s` is
/// the median of all of them. Set-ups at both ends sample the host's
/// speed at two moments a run apart, not one.
const SETUP_REPS: usize = 3;

/// Rounds a run makes in each recorded mode however short `--seconds`.
const MIN_ROUNDS: usize = 3;

const WORKLOADS: [&str; 4] = ["paper_quick", "explore_grid", "sweep_store", "serve_mixed"];

const FLAGS: [&str; 5] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--miss-every",
];

const USAGE: &str =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--miss-every N]";

struct Args {
    workload: String,
    opts: Options,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let (flag, value) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), v.to_string()),
            None => {
                let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                (arg, v)
            }
        };
        if !FLAGS.contains(&flag.as_str()) {
            return Err(format!("unknown flag `{flag}`"));
        }
        flags.insert(flag, value);
    }
    let get = |f: &str| flags.get(f).ok_or_else(|| format!("missing {f}"));
    let number = |f: &str| -> Result<u64, String> {
        get(f)?
            .parse()
            .map_err(|_| format!("{f} needs a whole number"))
    };
    let workload = get("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; known: {}",
            WORKLOADS.join(" ")
        ));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let miss_every = match flags.get("--miss-every") {
        None => serve_mixed::MISS_EVERY,
        Some(_) => number("--miss-every")? as usize,
    };
    Ok(Args {
        workload,
        opts: Options {
            seed: number("--seed")?,
            miss_every,
        },
        seconds,
        trace,
    })
}

/// Rounds run in one tracing mode.
#[derive(Default)]
struct Mode {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    ops: u64,
    failed: u64,
    counters: Option<Counters>,
    unsteady_rounds: u64,
    /// Each lap's fastest wall and CPU time so far.
    best_wall_s: Vec<f64>,
    best_cpu_s: Vec<f64>,
    figures: BTreeMap<&'static str, Vec<f64>>,
    latencies_us: Vec<f64>,
}

impl Mode {
    fn add(&mut self, wall_s: f64, cpu_s: f64, laps: &Laps, c: Checked) {
        self.wall_s.push(wall_s);
        self.cpu_s.push(cpu_s);
        self.ops += c.ops;
        let first_round = self.counters.is_none();
        if first_round {
            self.best_wall_s.clone_from(&laps.wall_s);
            self.best_cpu_s.clone_from(&laps.cpu_s);
        } else if laps.wall_s.len() == self.best_wall_s.len() {
            for (best, &t) in self.best_wall_s.iter_mut().zip(&laps.wall_s) {
                *best = best.min(t);
            }
            for (best, &t) in self.best_cpu_s.iter_mut().zip(&laps.cpu_s) {
                *best = best.min(t);
            }
        }
        match &self.counters {
            None => self.counters = Some(c.counters),
            // The same seed must do the same work: a round whose
            // counters or laps moved fails every operation it made.
            Some(first) if *first != c.counters || laps.wall_s.len() != self.best_wall_s.len() => {
                self.unsteady_rounds += 1;
                self.failed += c.ops - c.failed.min(c.ops);
            }
            Some(_) => {}
        }
        self.failed += c.failed;
        for (name, v) in c.figures {
            self.figures.entry(name).or_default().push(v);
        }
        self.latencies_us.extend(c.latencies_us);
    }

    fn rounds(&self) -> usize {
        self.wall_s.len()
    }

    /// The sum of each lap's fastest wall time.
    fn lap_wall_s(&self) -> f64 {
        self.best_wall_s.iter().sum()
    }

    /// The sum of each lap's fastest CPU time.
    fn lap_cpu_s(&self) -> f64 {
        self.best_cpu_s.iter().sum()
    }
}

/// Nearest-rank percentile of `v`; 0 for an empty slice.
fn percentile(v: &[f64], pct: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The smallest of `v`; infinite for an empty slice.
fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median, quartiles and relative spread of `v`, for the report.
fn summary(v: &[f64]) -> String {
    let (q1, med, q3) = (percentile(v, 25.0), median(v), percentile(v, 75.0));
    let spread = if med > 0.0 { (q3 - q1) / med } else { 0.0 };
    format!(
        "median {med:.6}  q1 {q1:.6}  q3 {q3:.6}  spread {:.1}%  (n={})",
        100.0 * spread,
        v.len()
    )
}

/// Sets `W` up `SETUP_REPS` times, appending each time to `setup_s`;
/// the last set-up. Each is freed before the next is timed.
fn set_up<W: Workload>(args: &Args, tr: &mut Tracer, setup_s: &mut Vec<f64>) -> Result<W, String> {
    let mut state: Option<W> = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let token = tr.begin_setup();
        let t0 = Instant::now();
        let w = W::setup(&args.opts, tr)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        tr.end(token);
        state = Some(w);
    }
    Ok(state.expect("SETUP_REPS is at least 1"))
}

fn run<W: Workload>(args: &Args) -> Result<String, String> {
    let mut tr = Tracer::new(args.trace);
    let mut setup_s = Vec::with_capacity(2 * SETUP_REPS);
    let mut w: W = set_up(args, &mut tr, &mut setup_s)?;
    w.prepare()?;

    let (mut plain, mut traced) = (Mode::default(), Mode::default());
    let mut laps = Laps::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    for i in 0.. {
        let record = args.trace && i % 2 == 1;
        tr.set_recording(record);
        laps.clear();
        let cpu0 = sys::cpu_s();
        let t0 = Instant::now();
        let token = tr.begin_round();
        let out = w.round(&mut tr, &mut laps);
        tr.end(token);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = sys::cpu_s() - cpu0;
        tr.set_recording(false);
        let checked = w.check(out, wall);
        if record { &mut traced } else { &mut plain }.add(wall, cpu, &laps, checked);
        let enough = plain.rounds() >= MIN_ROUNDS && (!args.trace || traced.rounds() >= MIN_ROUNDS);
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss_mb = sys::peak_rss_mb();
    let exec_records = w.exec_records();
    drop(w);
    drop(set_up::<W>(args, &mut tr, &mut setup_s)?);
    let attempted = plain.ops + traced.ops;
    let failed = plain.failed + traced.failed;

    println!(
        "perfbench {} seed={} trace={}: {} rounds + {} traced of {} laps, {} set-ups, {attempted} operations checked, {failed} failed",
        args.workload,
        args.opts.seed,
        u8::from(args.trace),
        plain.rounds(),
        traced.rounds(),
        plain.best_wall_s.len(),
        setup_s.len()
    );
    println!("  setup_s      {}", summary(&setup_s));
    println!(
        "  wall_s       {:.6}  (sum of each lap's fastest)",
        plain.lap_wall_s()
    );
    println!(
        "  cpu_s        {:.6}  (sum of each lap's fastest)",
        plain.lap_cpu_s()
    );
    println!("  round wall_s {}", summary(&plain.wall_s));
    println!("  round cpu_s  {}", summary(&plain.cpu_s));
    println!(
        "  fastest round {:.6} s wall, {:.6} s CPU",
        min(&plain.wall_s),
        min(&plain.cpu_s)
    );
    println!("  peak_rss_mb  {peak_rss_mb:.1}");
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  each setup_s {}", list(&setup_s));
    println!("  each wall_s  {}", list(&plain.wall_s));
    for (name, v) in &plain.figures {
        println!("  {name:<12} {}", summary(v));
    }
    for (label, mode) in [("counters", &plain), ("traced counters", &traced)] {
        if let Some(c) = &mode.counters {
            let list: Vec<String> = c.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!(
                "  {label} (per round, {} rounds differed): {}",
                mode.unsteady_rounds,
                list.join(" ")
            );
        }
    }

    let metrics = if args.trace {
        let acc = tr.round_account();
        let counters = traced.counters.clone().unwrap_or_default();
        let exec_ms = median(&tr.setup_ms(Layer::Exec));
        let overhead_pct = 100.0 * (median(&tr.round_ms()) / (1e3 * median(&plain.wall_s)) - 1.0);
        let path = PathBuf::from(format!(
            ".perfbench/{}-seed{}.trace.json",
            args.workload, args.opts.seed
        ));
        tr.write_chrome(&path)
            .map_err(|e| format!("cannot write the trace `{}`: {e}", path.display()))?;
        print_layers(&acc, exec_ms, overhead_pct);
        println!("  trace file: {}", path.display());
        layer_metrics(
            &acc,
            &counters,
            exec_ms,
            exec_records,
            overhead_pct,
            &plain.latencies_us,
        )
    } else {
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("wall_s", plain.lap_wall_s(), "s"),
            ("cpu_s", plain.lap_cpu_s(), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    Ok(json_line(failed == 0, attempted, failed, &metrics))
}

fn print_layers(acc: &RoundAccount, exec_ms: f64, overhead_pct: f64) {
    let w = acc.workload_ms();
    println!(
        "  per-layer self time, per traced round ({} rounds, workload {w:.3} ms):",
        acc.rounds
    );
    println!("    {:<12} {exec_ms:>12.3} ms   (set-up)", "exec");
    for layer in &Layer::ALL[1..] {
        let ms = acc.ms(*layer);
        println!(
            "    {:<12} {ms:>12.3} ms  {:>6.1}%  {} spans",
            layer.name(),
            100.0 * ms / w.max(f64::MIN_POSITIVE),
            acc.calls[*layer as usize]
        );
    }
    let r = acc.residual_ms();
    println!(
        "    {:<12} {r:>12.3} ms  {:>6.1}%",
        "residual",
        100.0 * r / w.max(f64::MIN_POSITIVE)
    );
    println!(
        "  tracing overhead: {overhead_pct:.1}% (median traced workload vs median untraced round)"
    );
}

/// Every per-layer metric, named as `BENCHMARK.json` lists them.
fn layer_metrics(
    acc: &RoundAccount,
    c: &Counters,
    exec_ms: f64,
    exec_records: u64,
    overhead_pct: f64,
    latencies_us: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let n = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let w = acc.workload_ms();
    let share = |l: Layer| ratio(acc.ms(l), w);
    use Layer::*;
    vec![
        ("workload.ms", w, "ms"),
        ("exec.ms", exec_ms, "ms"),
        ("exec.records", exec_records as f64, "count"),
        ("annotate.ms", acc.ms(Annotate), "ms"),
        ("annotate.bytes", n("annotate.bytes"), "bytes"),
        ("annotate.share", share(Annotate), "ratio"),
        ("timing.points", n("timing.points"), "count"),
        ("timing.ms", acc.ms(Timing), "ms"),
        (
            "timing.ns_per_record",
            ratio(acc.ms(Timing) * 1e6, n("timing.records")),
            "ns",
        ),
        ("timing.batched_lanes", n("timing.batched_lanes"), "count"),
        (
            "timing.scalar_fallbacks",
            n("timing.scalar_fallbacks"),
            "count",
        ),
        ("timing.share", share(Timing), "ratio"),
        ("policy.points", n("policy.points"), "count"),
        ("policy.ms", acc.ms(Policy), "ms"),
        (
            "policy.hit_ratio",
            ratio(n("policy.hits"), n("policy.hits") + n("policy.points")),
            "ratio",
        ),
        ("policy.share", share(Policy), "ratio"),
        ("policy_eval.points", n("policy_eval.points"), "count"),
        ("policy_eval.ms", acc.ms(PolicyEval), "ms"),
        (
            "policy_eval.ns_per_point",
            ratio(acc.ms(PolicyEval) * 1e6, n("policy_eval.points")),
            "ns",
        ),
        ("policy_eval.share", share(PolicyEval), "ratio"),
        ("scenario.ms", acc.ms(Scenario), "ms"),
        (
            "scenario.sim_hit_ratio",
            ratio(n("scenario.sim_hits"), n("scenario.sim_lookups")),
            "ratio",
        ),
        ("scenario.flight_waits", n("scenario.flight_waits"), "count"),
        ("scenario.disk_hits", n("scenario.disk_hits"), "count"),
        ("scenario.share", share(Scenario), "ratio"),
        ("render.calls", n("render.calls"), "count"),
        ("render.ms", acc.ms(Render), "ms"),
        ("render.bytes", n("render.bytes"), "bytes"),
        ("render.share", share(Render), "ratio"),
        ("store.write_entries", n("store.write_entries"), "count"),
        ("store.write_ms", acc.named_ms("store.write"), "ms"),
        ("store.read_entries", n("store.read_entries"), "count"),
        ("store.read_ms", acc.named_ms("store.read"), "ms"),
        ("store.bytes", n("store.bytes"), "bytes"),
        ("store.corrupt", n("store.corrupt"), "count"),
        ("store.share", share(Store), "ratio"),
        ("respcache.ms", acc.ms(Respcache), "ms"),
        (
            "respcache.hit_ratio",
            ratio(n("respcache.hits"), n("respcache.lookups")),
            "ratio",
        ),
        ("respcache.bytes", n("respcache.bytes"), "bytes"),
        ("respcache.share", share(Respcache), "ratio"),
        ("serve.ms", acc.ms(Serve), "ms"),
        ("serve.requests", n("serve.requests"), "count"),
        ("serve.errors", n("serve.errors"), "count"),
        ("serve.rejected_503", n("serve.rejected_503"), "count"),
        ("serve.latency_samples", latencies_us.len() as f64, "count"),
        ("serve.p90_us", percentile(latencies_us, 90.0), "us"),
        ("serve.p99_us", percentile(latencies_us, 99.0), "us"),
        ("serve.max_us", percentile(latencies_us, 100.0), "us"),
        ("serve.share", share(Serve), "ratio"),
        ("residual.ms", acc.residual_ms(), "ms"),
        ("residual.share", ratio(acc.residual_ms(), w), "ratio"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a value with its unit.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    // Errors go to stdout: the wrapper discards stderr, where the
    // in-process server logs every request.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        println!("perfbench: {info}");
        default_hook(info);
    }));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            println!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper_quick" => run::<paper_quick::PaperQuick>(&args),
        "explore_grid" => run::<explore_grid::ExploreGrid>(&args),
        "sweep_store" => run::<sweep_store::SweepStore>(&args),
        "serve_mixed" => run::<serve_mixed::ServeMixed>(&args),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
