//! `wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Replays the workload's seeded capture through `Engine::ingest_bytes_into`
//! for `--seconds` of whole capture cycles and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).  The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.  Exit code 1 means no trustworthy result (set-up failed or the
//! reference failed its validation), 2 means bad arguments.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use borderpatrol::core::enforcer::EnforcerStats;
use borderpatrol::core::flow::FlowTableConfig;
use borderpatrol::netsim::netfilter::Verdict;
use borderpatrol::Engine;
use wirebench::trace::{Layer, Spans, TracedPlane};
use wirebench::{
    churn_commit, proc_status_kb, quantile, ratio, reset_peak_rss, thread_usage, Capture,
    Deployment, Reference, SetupTimes, Tally, Workload, SHARDS,
};

/// One slice of the timed window (see [`Sliced`]).
const SLICE: Duration = Duration::from_secs(1);

/// Bring-ups timed at the end of every slice.
const SETUP_PER_SLICE: usize = 3;

/// Churn transactions timed on the idle engine at the end of every slice, on
/// the workloads that commit nothing while serving.
const IDLE_PER_SLICE: usize = 3;

/// Whole capture cycles the traced mode times (after one warm cycle).
const TRACE_CYCLES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// What one run reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    spans: Option<Spans>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Samples taken slice by slice.
///
/// The host alternates between fast and slow phases lasting a few seconds.
/// A median over a whole window lands in whichever phase held the majority
/// of its samples, so it flips from run to run; the mean over the slices of
/// each slice's median follows the share of time spent in each phase.
#[derive(Default)]
struct Sliced {
    current: Vec<f64>,
    medians: Vec<f64>,
    /// Every sample, kept for the tails only in the traced mode.
    all: Option<Vec<f64>>,
    count: usize,
}

impl Sliced {
    fn new(keep_all: bool) -> Sliced {
        Sliced {
            all: keep_all.then(Vec::new),
            ..Sliced::default()
        }
    }

    fn push(&mut self, value: f64) {
        self.current.push(value);
        self.count += 1;
        if let Some(all) = &mut self.all {
            all.push(value);
        }
    }

    /// Close the slice, returning its median.
    fn close(&mut self) -> Option<f64> {
        if self.current.is_empty() {
            return None;
        }
        let median = median(&mut self.current);
        self.medians.push(median);
        self.current.clear();
        Some(median)
    }

    /// The mean of the slice medians.
    fn value(&self) -> f64 {
        ratio(self.medians.iter().sum(), self.medians.len() as f64)
    }

    /// The `q`-quantile over every sample (traced mode only).
    fn quantile(&mut self, q: f64) -> f64 {
        self.all.as_mut().map_or(0.0, |all| quantile(all, q))
    }
}

/// What the timed window measured.
#[derive(Default)]
struct Window {
    cycles: u64,
    /// Time inside every `ingest_bytes_into` call.
    ingest: Duration,
    /// Frames and ingest time of the open slice.
    slice_frames: usize,
    slice_ingest: Duration,
    /// Frames ÷ ingest time of each closed slice.
    rates: Vec<f64>,
    checked: Checked,
    batch: Sliced,
    commit: Sliced,
    setup: Sliced,
    setups: Vec<SetupTimes>,
    /// Start of the open slice; `None` outside the timed window.
    slice_start: Option<Instant>,
}

/// The timed cycles' verdicts, checked against the reference cycle by cycle.
///
/// Every timed cycle replays the same frames with the churn transactions at
/// the same positions, so it must fail on the same frames as the first one.
/// `attempted` and `failed` report that first cycle: how many cycles fit in
/// the window depends on the host's speed, and counts summed over them would
/// weight each seed's failed share by it.
#[derive(Default)]
struct Checked {
    first: Option<Tally>,
    /// Frames verdicted over every timed cycle.
    frames: u64,
    short_batches: u64,
    /// Timed cycles that failed on other frames than the first.
    diverged: u64,
}

impl Checked {
    fn record(&mut self, cycle: Tally) {
        self.frames += cycle.frames;
        self.short_batches += cycle.short_batches;
        match self.first {
            None => self.first = Some(cycle),
            Some(first) => self.diverged += u64::from(first != cycle),
        }
    }
}

/// The timed replay of one engine, cycle by cycle.
struct Replay<'c> {
    workload: Workload,
    deployment: &'c Deployment,
    capture: &'c Capture,
    reference: &'c Reference,
    frames: &'c [Vec<&'c [u8]>],
    verdicts: Vec<Verdict>,
    /// Churn transactions committed on the serving engine so far.
    commits: usize,
    /// An engine that serves no traffic: the workloads without churn time
    /// the churn transaction on it, so their data path sees no commit.
    idle: Option<Engine>,
    idle_commits: usize,
}

impl Replay<'_> {
    /// Replay one whole cycle, committing the churn transactions at their
    /// batch positions.
    fn cycle(&mut self, engine: &mut Engine, window: &mut Window) -> Result<(), String> {
        let mut tally = Tally::default();
        for (position, (range, batch)) in self.capture.batches.iter().zip(self.frames).enumerate() {
            if self.workload.commits_before(position) {
                let times = churn_commit(engine, self.commits, false)?;
                self.commits += 1;
                window.commit.push(times.commit.as_nanos() as f64);
            }
            let t = Instant::now();
            engine.ingest_bytes_into(batch, &mut self.verdicts);
            let elapsed = t.elapsed();
            window.ingest += elapsed;
            window.slice_ingest += elapsed;
            window.slice_frames += batch.len();
            window.batch.push(elapsed.as_nanos() as f64);
            tally.check(self.capture, self.reference, range.clone(), &self.verdicts);
            if window
                .slice_start
                .is_some_and(|start| start.elapsed() >= SLICE)
            {
                self.close_slice(window)?;
            }
        }
        window.cycles += 1;
        window.checked.record(tally);
        Ok(())
    }

    /// End the open slice: take its rate and medians, bring up fresh
    /// engines and, on the workloads without churn, commit on the idle
    /// engine.
    fn close_slice(&mut self, window: &mut Window) -> Result<(), String> {
        if window.slice_frames > 0 {
            let seconds = window.slice_ingest.as_secs_f64();
            window
                .rates
                .push(ratio(window.slice_frames as f64, seconds));
        }
        window.slice_frames = 0;
        window.slice_ingest = Duration::ZERO;
        window.batch.close();
        for _ in 0..SETUP_PER_SLICE {
            let (_, times) = self.deployment.bring_up(&self.frames[0])?;
            window.setup.push(times.total().as_secs_f64());
            window.setups.push(times);
        }
        window.setup.close();
        if let Some(idle) = &mut self.idle {
            for _ in 0..IDLE_PER_SLICE {
                let times = churn_commit(idle, self.idle_commits, false)?;
                self.idle_commits += 1;
                window.commit.push(times.commit.as_nanos() as f64);
            }
        }
        window.commit.close();
        window.slice_start = Some(Instant::now());
        Ok(())
    }
}

/// Median of `values` (sorting them).
fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the middle half of `values` (sorting them): the lowest and the
/// highest quarter are left out.
fn interquartile_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let quarter = values.len() / 4;
    let middle = &values[quarter..values.len() - quarter];
    ratio(middle.iter().sum(), middle.len() as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn host_notes() -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        format!(
            "host: available_parallelism={} cpu=\"{cpu}\"",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        format!(
            "build: {} git_rev={}",
            command_line("rustc", &["-V"]),
            command_line("git", &["rev-parse", "--short", "HEAD"])
        ),
    ]
}

/// The counters a run reads from `EnforcerStats`, by metric suffix.
fn counters(s: &EnforcerStats) -> [(&'static str, u64); 13] {
    [
        ("inspected", s.packets_inspected),
        ("hits", s.flow_hits),
        ("misses", s.flow_misses),
        ("evictions", s.flow_evictions),
        ("by_policy", s.dropped_by_policy),
        ("untagged", s.dropped_untagged),
        ("unknown_app", s.dropped_unknown_app),
        ("malformed", s.dropped_malformed),
        ("duplicate_context", s.dropped_duplicate_context),
        ("context_switch", s.dropped_context_switch),
        ("wire", s.dropped_wire),
        ("runtime_fault", s.dropped_runtime_fault),
        ("overload", s.dropped_overload),
    ]
}

/// Drop counters start after the four traffic counters.
const FIRST_DROP: usize = 4;

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let deployment = Deployment::new()?;
    let capture = Capture::record(workload, args.seed, &deployment)?;
    let reference = Reference::build(&capture, &deployment)?;
    let frames = capture.batch_frames();

    // The recording and the reference engine are the benchmark's own memory:
    // `peak_rss_mb` counts from here on.
    let baseline_mb = proc_status_kb("VmRSS") as f64 / 1024.0;
    reset_peak_rss();
    let (mut engine, _) = deployment.bring_up(&frames[0])?;
    let idle = match workload {
        Workload::PolicyChurn => None,
        _ => Some(deployment.fresh_engine(SHARDS, FlowTableConfig::default())?),
    };
    let mut replay = Replay {
        workload,
        deployment: &deployment,
        capture: &capture,
        reference: &reference,
        frames: &frames,
        verdicts: Vec::new(),
        commits: 0,
        idle,
        idle_commits: 0,
    };
    replay.cycle(&mut engine, &mut Window::default())?;

    let window_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut window = Window {
        batch: Sliced::new(args.trace),
        commit: Sliced::new(args.trace),
        slice_start: Some(Instant::now()),
        ..Window::default()
    };
    let usage = thread_usage();
    let start = Instant::now();
    while window.cycles == 0 || start.elapsed().as_secs_f64() < window_seconds {
        replay.cycle(&mut engine, &mut window)?;
    }
    replay.close_slice(&mut window)?;
    let window_elapsed = start.elapsed();
    let (cpu_ns, switches) = thread_usage();
    let (cpu_ns, switches) = (
        cpu_ns.saturating_sub(usage.0),
        switches.saturating_sub(usage.1),
    );
    drop(engine);

    let checked = window.checked;
    let first = checked.first.unwrap_or_default();
    let slices = window.rates.len();
    let throughput = interquartile_mean(&mut window.rates);
    let mut report = Report {
        correct: checked.short_batches == 0 && checked.diverged == 0,
        attempted: first.frames,
        failed: first.failed(),
        metrics: Vec::new(),
        notes: host_notes(),
        spans: None,
    };
    report.notes.push(format!(
        "run: workload={} seed={} trace={} window_s={:.3} cycles={} frames_per_cycle={} \
         batches_per_cycle={} diverged_cycles={} first_cycle_fail_open={} first_cycle_false_drop={} \
         rss_before_serving_mb={baseline_mb:.1}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        window_elapsed.as_secs_f64(),
        window.cycles,
        capture.len(),
        capture.batches.len(),
        checked.diverged,
        first.fail_open,
        first.false_drop
    ));
    if !args.trace {
        report.metric("throughput_pps", throughput, "frames/s", slices);
        report.metric(
            "batch_p50_us",
            us(window.batch.value()),
            "us",
            window.batch.count,
        );
        report.metric(
            "commit_p50_us",
            us(window.commit.value()),
            "us",
            window.commit.count,
        );
        report.metric("setup_s", window.setup.value(), "s", window.setup.count);
        report.metric(
            "peak_rss_mb",
            proc_status_kb("VmHWM") as f64 / 1024.0,
            "MB",
            1,
        );
        return Ok(report);
    }

    // Traced mode: the untraced half above gives the tails, the process
    // figures and the baseline of the tracing overhead; a fresh plane then
    // replays a fixed number of whole cycles with every layer call timed, so
    // every count depends on the seed alone.
    let mut plane = TracedPlane::new(&deployment)?;
    let mut spans = Spans::default();
    plane.drive(
        workload,
        &capture,
        &reference,
        &frames,
        frames.len(),
        &mut spans,
    )?;
    let before = counters(&plane.stats());
    let (builds, reuses) = (
        plane.engine.control().builds(),
        plane.engine.policy_index_reuses(),
    );
    spans.recording = true;
    let mut counts = plane.drive(
        workload,
        &capture,
        &reference,
        &frames,
        TRACE_CYCLES * frames.len(),
        &mut spans,
    )?;
    let after = counters(&plane.stats());
    let delta: Vec<(&str, f64)> = after
        .iter()
        .zip(&before)
        .map(|((name, a), (_, b))| (*name, (a - b) as f64))
        .collect();
    let count = |name: &str| {
        delta
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    // Only `policy_churn` commits on the traced plane; elsewhere the control
    // figures read 0 with 0 samples.
    let tx_builds = plane.engine.control().builds() - builds;
    let tx_reuses = plane.engine.policy_index_reuses() - reuses;
    let transactions = &counts.transactions;

    let traced = counts.tally;
    report.correct &= traced.short_batches == 0 && counts.mismatches == 0;
    let frames_traced = traced.frames as f64;
    let (ingest_ns, _) = spans.total(Layer::Ingest);
    let (inspect2_ns, _) = spans.total(Layer::Inspect2);
    let (inspect1_ns, _) = spans.total(Layer::Inspect1);
    let handoff_total = inspect2_ns as f64 - inspect1_ns as f64;
    let covered = spans.total(Layer::WireDecode).0
        + spans.total(Layer::Route).0
        + spans.total(Layer::Cached).0;
    let batches = counts.batches as usize;
    let n = traced.frames as usize;

    report.metric(
        "engine.ingest_ns",
        ratio(ingest_ns as f64, frames_traced),
        "ns",
        n,
    );
    for (name, layer) in [
        ("wire.decode_ns", Layer::WireDecode),
        ("wire.parse_ns", Layer::WireParse),
        ("enforcer.route_ns", Layer::Route),
        ("enforcer.cached_ns", Layer::Cached),
        ("enforcer.uncached_ns", Layer::Uncached),
        ("flow.probe_ns", Layer::FlowProbe),
        ("flow.insert_ns", Layer::FlowInsert),
        ("encoding.decode_ns", Layer::EncodingDecode),
        ("offline.resolve_ns", Layer::OfflineResolve),
        ("policy.eval_ns", Layer::PolicyEval),
        ("telemetry.read_ns", Layer::Telemetry),
    ] {
        let calls = spans.total(layer).1 as usize;
        report.metric(name, spans.ns_per_call(layer), "ns", calls);
    }
    report.metric("wire.errors", count("wire"), "count", n);
    report.metric(
        "engine.ingest_overhead_ns",
        ratio(ingest_ns as f64 - inspect2_ns as f64, frames_traced),
        "ns",
        n,
    );
    let mean_shard = counts.per_shard.iter().sum::<u64>() as f64 / counts.per_shard.len() as f64;
    let max_shard = counts.per_shard.iter().copied().max().unwrap_or(0) as f64;
    report.metric(
        "enforcer.shard_skew",
        ratio(max_shard, mean_shard),
        "ratio",
        n,
    );
    report.metric(
        "runtime.handoff_us",
        us(median(&mut counts.handoff_ns)),
        "us",
        batches,
    );
    let (hits, misses) = (count("hits"), count("misses"));
    report.metric(
        "flow.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        (hits + misses) as usize,
    );
    report.metric(
        "flow.evictions_per_miss",
        ratio(count("evictions"), misses),
        "ratio",
        misses as usize,
    );
    report.metric(
        "flow.misses_per_commit",
        ratio(misses, counts.transactions.len() as f64),
        "count",
        counts.transactions.len(),
    );
    let drops: f64 = delta[FIRST_DROP..].iter().map(|(_, v)| v).sum();
    report.metric(
        "enforcer.drop_share",
        ratio(drops, count("inspected")),
        "ratio",
        n,
    );
    for (name, value) in &delta[FIRST_DROP..] {
        report.metric(format!("enforcer.drops.{name}"), *value, "count", n);
    }
    for (name, step) in [
        (
            "setup.db_load_ms",
            (|s: &SetupTimes| s.db_load) as fn(&SetupTimes) -> Duration,
        ),
        ("setup.policy_parse_ms", |s| s.policy_parse),
        ("setup.build_ms", |s| s.build),
        ("setup.first_batch_ms", |s| s.first_batch),
    ] {
        let mut values: Vec<f64> = window.setups.iter().map(|s| ms(step(s))).collect();
        report.metric(name, median(&mut values), "ms", values.len());
    }
    let tx = transactions.len();
    let mut validate: Vec<f64> = transactions
        .iter()
        .map(|t| t.validate.as_nanos() as f64)
        .collect();
    let mut diff: Vec<f64> = transactions
        .iter()
        .map(|t| t.diff.as_nanos() as f64)
        .collect();
    report.metric("control.validate_us", us(median(&mut validate)), "us", tx);
    report.metric("control.diff_us", us(median(&mut diff)), "us", tx);
    report.metric(
        "control.builds_per_commit",
        ratio(tx_builds as f64, tx as f64),
        "ratio",
        tx,
    );
    report.metric("control.index_reuses", tx_reuses as f64, "count", tx);
    let untraced_batches = window.batch.count;
    report.metric(
        "batch_p99_us",
        us(window.batch.quantile(0.99)),
        "us",
        untraced_batches,
    );
    let commits = window.commit.count;
    report.metric(
        "commit_p99_us",
        us(window.commit.quantile(0.99)),
        "us",
        commits,
    );
    report.metric(
        "process.cpu_ns_per_frame",
        ratio(cpu_ns as f64, checked.frames as f64),
        "ns",
        checked.frames as usize,
    );
    report.metric(
        "process.cswitch_per_batch",
        ratio(switches as f64, untraced_batches as f64),
        "count",
        untraced_batches,
    );
    report.metric(
        "fail_open_frac",
        ratio(traced.fail_open as f64, frames_traced),
        "ratio",
        n,
    );
    report.metric(
        "false_drop_frac",
        ratio(traced.false_drop as f64, frames_traced),
        "ratio",
        n,
    );
    report.metric(
        "trace.coverage",
        ratio(covered as f64 + handoff_total, ingest_ns as f64),
        "ratio",
        n,
    );
    let traced_pps = ratio(frames_traced, ingest_ns as f64 / 1e9);
    let untraced_pps = ratio(checked.frames as f64, window.ingest.as_secs_f64());
    report.metric(
        "trace.overhead",
        ratio(traced_pps, untraced_pps),
        "ratio",
        n,
    );
    report.metric("trace.mismatches", counts.mismatches as f64, "count", n);
    report.notes.push(format!(
        "trace: cycles={TRACE_CYCLES} frames={} one_shard_twin_mismatches={}",
        traced.frames, counts.twin1_mismatches
    ));
    report.spans = Some(spans);
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!(
                "wirebench: {error}\nusage: wirebench --workload <steady_fleet|connect_storm|\
                 policy_churn> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("wirebench: {error}");
            return ExitCode::from(1);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!(
            "# {:<28} {:>16.4} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let json = report.json();
    if let Some(dir) = &args.out {
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        let mut record = report.notes.join("\n");
        record.push('\n');
        record.push_str(&json);
        record.push('\n');
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.txt")), record))
            .and_then(|()| match &report.spans {
                Some(spans) => std::fs::write(
                    dir.join(format!("{stem}.spans.jsonl")),
                    spans.to_json_lines(),
                ),
                None => Ok(()),
            });
        if let Err(error) = written {
            eprintln!("wirebench: writing {}: {error}", dir.display());
            return ExitCode::from(1);
        }
    }
    println!("{json}");
    ExitCode::SUCCESS
}
