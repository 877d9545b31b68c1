//! GinFlow end-to-end workflow benchmark.
//!
//! ```text
//! perfbench --workload <fanin|adaptive_mesh|chain_durable> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` repeats untraced runs of the workload (and of its
//! scaling companion) for `--seconds` and prints the end-to-end
//! metrics. `--trace 1` alternates untraced and traced runs, replays
//! the compiled agents through `SaCore`, re-times the recorded payloads
//! through the codec and the wire framing, and prints the per-layer
//! metrics plus the tracing overhead. Every run's output is checked
//! against the digest reference. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod digest;
mod layers;
mod replay;
mod stats;
mod sys;
mod trace;
mod workloads;

use stats::{batched_percentile, median, scaling_exp};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{run_rep, Rep, Workload};

/// Extra set-ups (without a run) per end-to-end run, so `setup_s` is a
/// median of many samples even where repetitions are few.
const SETUP_ONLY: u32 = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Attempted and failed repetitions, and every problem found: failed
/// output checks and, on traced runs, disagreements of the replay, the
/// codec/wire round trips or the wrappers.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, rep: &Rep, what: &str) {
        self.attempted += 1;
        if let Some(f) = &rep.failure {
            self.failed += 1;
            self.problems.push(format!("{what}: {f}"));
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let data_root = args.out.join(format!("data-{}", std::process::id()));
    let (metrics, tally, notes) = if args.trace {
        traced(&args, &data_root)
    } else {
        untraced(&args, &data_root)
    };
    let _ = std::fs::remove_dir_all(&data_root);

    let w = args.workload;
    println!(
        "workload {} seed {} trace {}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    for note in &notes {
        println!("  {note}");
    }
    for p in &tally.problems {
        println!("  FAILED {p}");
    }
    let failed = tally.failed;
    println!(
        "  {:<26} {:>14.6} ratio  ({failed} of {} repetitions)",
        "failed_frac",
        failed as f64 / tally.attempted.max(1) as f64,
        tally.attempted
    );
    for x in &metrics {
        println!("  {:<26} {:>14.6} {}", x.name, x.value, x.unit);
    }
    let finite = metrics.iter().all(|x| x.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        tally.problems.is_empty() && finite,
        tally.attempted,
        body.join(", ")
    );
}

/// End-to-end metrics: untraced repetitions of the measured instance,
/// each followed by one of the scaling companion, for `--seconds`.
fn untraced(args: &Args, data_root: &std::path::Path) -> (Vec<Metric>, Tally, Vec<String>) {
    let w = args.workload;
    let (full, small) = w.sizes();
    let mut tally = Tally::default();
    // Warm-up (allocator, reactor thread, page cache); checked, not timed.
    let warm = run_rep(w, small, args.seed, 0, None, data_root);
    tally.add(&warm, "warm-up");
    let started = Instant::now();
    let mut setups: Vec<f64> = (1..=SETUP_ONLY)
        .map(|i| workloads::setup_only(w, full, args.seed, 1_000_000 + i, data_root))
        .collect();
    let mut fulls: Vec<Rep> = Vec::new();
    let mut smalls: Vec<f64> = Vec::new();
    let mut rep = 1;
    while fulls.is_empty() || started.elapsed() < Duration::from_secs(args.seconds) {
        let r = run_rep(w, full, args.seed, rep, None, data_root);
        tally.add(&r, "full");
        let c = run_rep(w, small, args.seed, rep + 1, None, data_root);
        tally.add(&c, "companion");
        smalls.push(c.makespan_s);
        fulls.push(r);
        rep += 2;
    }
    setups.extend(fulls.iter().map(|r| r.setup_s));
    let col = |f: fn(&Rep) -> f64| fulls.iter().map(f).collect::<Vec<f64>>();
    let makespan = median(&col(|r| r.makespan_s));
    let delays: Vec<&[f64]> = fulls.iter().map(|r| r.coord_delay_us.as_slice()).collect();
    let samples: usize = delays.iter().map(|d| d.len()).sum();
    let companion_tasks = warm.tasks;
    let notes = vec![
        format!(
            "{} measured repetitions of {} tasks, {} of {companion_tasks} (companion); {} coordination samples",
            fulls.len(),
            fulls[0].tasks,
            smalls.len(),
            samples
        ),
        format!("companion makespan_s median {:.6}", median(&smalls)),
        format!("makespans_s {:.4?}", col(|r| r.makespan_s)),
        format!("companion makespans_s {smalls:.4?}"),
        format!("first_tasks_s {:.4?}", col(|r| r.first_task_s)),
        // Too unsteady between runs on a shared host to carry a bound;
        // the traced run reports both as per-layer metrics.
        format!(
            "first_task_s {:.6} s, coord_delay_p99_us {:.3} us (no bound: engine.first_task_s, engine.coord_delay_us_p99 with --trace 1)",
            median(&col(|r| r.first_task_s)),
            batched_percentile(&delays, 0.99)
        ),
    ];
    let metrics = vec![
        m("setup_s", "s", median(&setups)),
        m("makespan_s", "s", makespan),
        m("cpu_s", "s", median(&col(|r| r.cpu_s))),
        m(
            "coord_delay_p50_us",
            "us",
            batched_percentile(&delays, 0.50),
        ),
        m(
            "scaling_exp",
            "ratio",
            scaling_exp(makespan, median(&smalls), fulls[0].tasks, companion_tasks),
        ),
        m("peak_rss_mib", "MiB", sys::peak_rss_mib()),
    ];
    (metrics, tally, notes)
}

/// Per-layer metrics: untraced and traced repetitions alternate for
/// `--seconds`, then the replay and codec/wire passes run once.
fn traced(args: &Args, data_root: &std::path::Path) -> (Vec<Metric>, Tally, Vec<String>) {
    let w = args.workload;
    let (full, small) = w.sizes();
    let wf = w.workflow(full, args.seed);
    let sinks = digest::sinks(&wf);
    let spans = trace::Spans::new();
    let mut tally = Tally::default();
    let warm = run_rep(w, small, args.seed, 0, None, data_root);
    tally.add(&warm, "warm-up");
    let started = Instant::now();
    let (mut plain, mut traced, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    let (mut first_tasks, mut delays) = (Vec::new(), Vec::new());
    let mut last_publishes = Vec::new();
    let mut rep = 1;
    while traced.is_empty() || started.elapsed() < Duration::from_secs(args.seconds) {
        let p = run_rep(w, full, args.seed, rep, None, data_root);
        tally.add(&p, "untraced");
        let t = run_rep(w, full, args.seed, rep + 1, Some(&spans), data_root);
        tally.add(&t, "traced");
        // The wrappers must be transparent.
        if t.failure.is_none()
            && (t.sink_results != p.sink_results || t.adaptations != p.adaptations)
        {
            tally
                .problems
                .push("traced run disagrees with the untraced run".into());
        }
        let recorded = t.traced.as_ref().expect("a traced repetition records");
        samples.push(layers::sample(recorded, &sinks));
        last_publishes = recorded.client.take_publishes();
        plain.push(p.makespan_s);
        first_tasks.push(p.first_task_s);
        delays.push(p.coord_delay_us);
        traced.push(t.makespan_s);
        rep += 2;
    }
    let overhead = median(&traced) / median(&plain);
    let (mut metrics, mut problems) = layers::per_layer(w, &wf, &samples, last_publishes, &spans);
    metrics.push(m("trace.overhead_ratio", "ratio", overhead));
    // From the untraced repetitions, like the end-to-end metrics.
    let delays: Vec<&[f64]> = delays.iter().map(Vec::as_slice).collect();
    metrics.push(m("engine.first_task_s", "s", median(&first_tasks)));
    metrics.push(m(
        "engine.coord_delay_us_p99",
        "us",
        batched_percentile(&delays, 0.99),
    ));
    tally.problems.append(&mut problems);
    let path = args
        .out
        .join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    let notes = vec![
        format!(
            "{} untraced and {} traced repetitions of {} tasks",
            plain.len(),
            traced.len(),
            wf.dag().len()
        ),
        format!(
            "tracing overhead: traced makespan_s {:.6} / untraced makespan_s {:.6} = {overhead:.4}",
            median(&traced),
            median(&plain)
        ),
        match spans.write(&path) {
            Ok(()) => format!("spans written to {}", path.display()),
            Err(e) => format!("spans not written: {e}"),
        },
    ];
    metrics.sort_by_key(|x| x.name);
    (metrics, tally, notes)
}
