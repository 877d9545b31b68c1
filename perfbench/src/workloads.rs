//! The three workloads and one repetition of each: set up the stack,
//! launch, join, tear down, and check the output against the digest
//! reference.

use crate::digest;
use crate::sys::process_cpu;
use crate::trace::{BrokerLog, Spans, Tap, TracedService};
use ginflow_core::patterns::{self, AdaptiveDiamondSpec, Connectivity};
use ginflow_core::{Service, TaskState, Value, Workflow};
use ginflow_engine::{Engine, EventWait, RunEvent, RunId, RunReport};
use ginflow_mq::{Broker, DurabilityConfig, LogBroker};
use ginflow_net::{BrokerServer, RemoteBroker};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A repetition that has not finished by then counts as failed.
const DEADLINE: Duration = Duration::from_secs(40);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `src → W parallel → sink` on the in-process log: the sink's
    /// HOCL reduction dominates; no net or store layer runs.
    Fanin,
    /// The paper's largest Fig 12 cell plus the Fig 13 adaptation,
    /// over the loopback daemon with the in-memory log: publish, wire,
    /// reactor and scheduler throughput dominate.
    AdaptiveMesh,
    /// A 1000-task chain over the loopback daemon on the durable store:
    /// one message in flight, so broker latency and store appends
    /// dominate.
    ChainDurable,
}

/// Where the engine's messages go.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    InProcess,
    DaemonMemory,
    DaemonDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fanin,
        Workload::AdaptiveMesh,
        Workload::ChainDurable,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fanin => "fanin",
            Workload::AdaptiveMesh => "adaptive_mesh",
            Workload::ChainDurable => "chain_durable",
        }
    }

    /// Size parameter of the measured instance and of its scaling
    /// companion (fan-in width, mesh side, chain length).
    pub fn sizes(self) -> (usize, usize) {
        match self {
            Workload::Fanin => (1000, 250),
            Workload::AdaptiveMesh => (21, 11),
            Workload::ChainDurable => (400, 100),
        }
    }

    fn route(self) -> Route {
        match self {
            Workload::Fanin => Route::InProcess,
            Workload::AdaptiveMesh => Route::DaemonMemory,
            Workload::ChainDurable => Route::DaemonDurable,
        }
    }

    /// Does the workload rig a task to fail, so its adaptation fires?
    pub fn adaptive(self) -> bool {
        self == Workload::AdaptiveMesh
    }

    /// The workflow at `size`, its source payload set by `seed`.
    pub fn workflow(self, size: usize, seed: u64) -> Workflow {
        let shape = match self {
            Workload::Fanin => patterns::parallel(size, digest::MAIN),
            Workload::AdaptiveMesh => AdaptiveDiamondSpec {
                h: size,
                v: size,
                main: Connectivity::Full,
                replacement: Connectivity::Full,
            }
            .build(digest::MAIN, digest::FAILING),
            Workload::ChainDurable => patterns::sequence(size, digest::MAIN),
        };
        digest::reseed(
            &shape.expect("workload shapes are valid"),
            &digest::seeded_input(seed),
        )
    }
}

/// Per-rep recording of a traced repetition.
pub struct Traced {
    /// Engine-side publishes and subscribe time.
    pub client: Arc<BrokerLog>,
    /// Daemon-side publishes (store appends) and topic creation; empty
    /// on the in-process stack.
    pub daemon: Arc<BrokerLog>,
    pub service_us: Arc<Mutex<Vec<f64>>>,
    /// `gf_*` registry deltas over the repetition.
    pub counters: HashMap<String, u64>,
    pub joined: Instant,
    pub run_id: String,
}

/// One repetition's outcome.
pub struct Rep {
    pub tasks: usize,
    pub setup_s: f64,
    pub makespan_s: f64,
    pub cpu_s: f64,
    pub first_task_s: f64,
    /// Per executed task: its finish minus its latest predecessor's
    /// finish (launch for sources), microseconds.
    pub coord_delay_us: Vec<f64>,
    /// Why the output check failed, if it did.
    pub failure: Option<String>,
    pub adaptations: u32,
    pub sink_results: BTreeMap<String, Value>,
    pub traced: Option<Traced>,
}

/// Run `f` inside a span when tracing.
fn phase<R>(
    spans: Option<&Spans>,
    parent: u64,
    run: &str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some(s) => s.span(name, parent, run, f),
        None => f(),
    }
}

/// A set-up stack, ready to launch: the workflow, the engine, and the
/// daemon and data dir behind it, if any.
struct Stack {
    wf: Workflow,
    engine: Engine,
    server: Option<BrokerServer>,
    data_dir: Option<PathBuf>,
    run_id: String,
    /// Daemon bind, store open, connect, engine build and workflow
    /// build, seconds.
    setup_s: f64,
}

/// What the timing wrappers of a traced set-up record into.
#[derive(Default)]
struct Logs {
    client: Arc<BrokerLog>,
    daemon: Arc<BrokerLog>,
    service_us: Arc<Mutex<Vec<f64>>>,
}

/// Set up `w` at `size` for the run `pb-<seed>-<rep>`; `data_root`
/// holds the durable store's fresh data dir. With `trace` (the span
/// recorder, the repetition's root span and the logs), every layer is
/// wrapped for tracing and every phase is a span.
fn setup(
    w: Workload,
    size: usize,
    seed: u64,
    rep: u32,
    data_root: &Path,
    trace: Option<(&Spans, u64, &Logs)>,
) -> Stack {
    let run_id = format!("pb-{seed}-{rep}");
    let spans = trace.map(|(s, _, _)| s);
    let root = trace.map_or(0, |(_, root, _)| root);
    let started = Instant::now();
    let wf = phase(spans, root, &run_id, "core.build", || {
        w.workflow(size, seed)
    });
    let data_dir = (w.route() == Route::DaemonDurable).then(|| data_root.join(&run_id));
    let log: Arc<dyn Broker> = match &data_dir {
        Some(dir) => phase(spans, root, &run_id, "store.open", || {
            let _ = std::fs::remove_dir_all(dir);
            let (log, _) =
                LogBroker::open(dir, DurabilityConfig::default()).expect("open a fresh data dir");
            Arc::new(log) as Arc<dyn Broker>
        }),
        None => Arc::new(LogBroker::new()),
    };
    let (server, broker): (Option<BrokerServer>, Arc<dyn Broker>) = match w.route() {
        Route::InProcess => (None, log),
        Route::DaemonMemory | Route::DaemonDurable => {
            let inner: Arc<dyn Broker> = match trace {
                Some((_, _, logs)) => Arc::new(Tap {
                    inner: log,
                    log: logs.daemon.clone(),
                }),
                None => log,
            };
            let server = phase(spans, root, &run_id, "net.bind", || {
                BrokerServer::bind("127.0.0.1:0", inner).expect("bind a loopback daemon")
            });
            let addr = server.local_addr().to_string();
            let remote = phase(spans, root, &run_id, "net.connect", || {
                RemoteBroker::connect(&addr).expect("connect to the loopback daemon")
            });
            (Some(server), Arc::new(remote) as Arc<dyn Broker>)
        }
    };
    let (broker, registry): (Arc<dyn Broker>, _) = match trace {
        Some((_, _, logs)) => (
            Arc::new(Tap {
                inner: broker,
                log: logs.client.clone(),
            }),
            digest::registry(|s| {
                Arc::new(TracedService {
                    inner: s,
                    times_us: logs.service_us.clone(),
                }) as Arc<dyn Service>
            }),
        ),
        None => (broker, digest::registry(|s| s)),
    };
    let engine = phase(spans, root, &run_id, "engine.build", || {
        Engine::builder()
            .broker(broker)
            .registry(Arc::new(registry))
            .workers(std::thread::available_parallelism().map_or(1, |n| n.get()))
            .run_id(RunId::new(run_id.clone()).expect("valid run id"))
            .deadline(DEADLINE)
            .build()
    });
    Stack {
        wf,
        engine,
        server,
        data_dir,
        run_id,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

impl Stack {
    /// Stop the engine and the daemon, and remove the data dir.
    fn teardown(self) {
        drop(self.engine);
        if let Some(server) = self.server {
            server.stop();
        }
        if let Some(dir) = &self.data_dir {
            crate::sys::remove_and_sync(dir);
        }
    }
}

/// Set up and tear down without running: more set-up samples for the
/// workloads whose repetitions are few.
pub fn setup_only(w: Workload, size: usize, seed: u64, rep: u32, data_root: &Path) -> f64 {
    let stack = setup(w, size, seed, rep, data_root, None);
    let s = stack.setup_s;
    stack.teardown();
    s
}

/// One repetition of `w` at `size`: set up, run, tear down, check.
/// With `spans`, the repetition is traced: every layer call goes
/// through a timing wrapper and each phase is recorded as a span under
/// one `rep` span.
pub fn run_rep(
    w: Workload,
    size: usize,
    seed: u64,
    rep: u32,
    spans: Option<&Spans>,
    data_root: &Path,
) -> Rep {
    let logs = Logs::default();
    let root = spans.map_or(0, Spans::id);
    let counters_before = spans.map(|_| crate::sys::counters());
    let started = Instant::now();
    let stack = setup(
        w,
        size,
        seed,
        rep,
        data_root,
        spans.map(|s| (s, root, &logs)),
    );
    let run_id = stack.run_id.clone();

    // The compile the launch performs, timed on its own.
    if spans.is_some() {
        phase(spans, root, &run_id, "hoclflow.compile", || {
            ginflow_hoclflow::agent_programs(&stack.wf)
        });
    }

    let cpu0 = process_cpu();
    let launched = Instant::now();
    let run = phase(spans, root, &run_id, "engine.launch", || {
        stack.engine.launch(&stack.wf)
    });
    let mut first_running = None;
    let events = run.events();
    loop {
        let left = DEADLINE.saturating_sub(launched.elapsed());
        match events.recv_timeout(left) {
            EventWait::Event(RunEvent::TaskStateChanged {
                to: TaskState::Running,
                ..
            }) => {
                first_running.get_or_insert_with(|| launched.elapsed());
            }
            EventWait::Event(e) if e.is_terminal() => break,
            EventWait::Event(_) => {}
            EventWait::TimedOut | EventWait::Closed => break,
        }
    }
    let report = run.join();
    let joined = Instant::now();
    let cpu_s = process_cpu().saturating_sub(cpu0).as_secs_f64();
    if let Some(s) = spans {
        s.record(s.id(), "engine.run", root, &run_id, launched, joined);
    }

    let (failure, coord_delay_us) = check(w, &stack.wf, &report);
    let sink_results = digest::sinks(&stack.wf)
        .into_iter()
        .filter_map(|s| report.result_of(&s).cloned().map(|v| (s, v)))
        .collect();
    let tasks = stack.wf.dag().len();
    let setup_s = stack.setup_s;
    phase(spans, root, &run_id, "teardown", || stack.teardown());
    if let Some(s) = spans {
        s.record(root, "rep", 0, &run_id, started, Instant::now());
    }
    let traced = counters_before.map(|before| {
        let after = crate::sys::counters();
        Traced {
            client: logs.client,
            daemon: logs.daemon,
            service_us: logs.service_us,
            counters: after
                .keys()
                .map(|k| (k.clone(), crate::sys::delta(&before, &after, k)))
                .collect(),
            joined,
            run_id,
        }
    });
    Rep {
        tasks,
        setup_s,
        makespan_s: (joined - launched).as_secs_f64(),
        cpu_s,
        first_task_s: first_running.unwrap_or(DEADLINE).as_secs_f64(),
        coord_delay_us,
        failure,
        adaptations: report.adaptations_fired,
        sink_results,
        traced,
    }
}

/// Check a finished run against the reference. Returns the first
/// failure found and, for a run that passed, the coordination delays.
fn check(w: Workload, wf: &Workflow, report: &RunReport) -> (Option<String>, Vec<f64>) {
    if !report.completed || report.deadline_expired {
        return (
            Some(format!(
                "run did not complete (deadline expired: {})",
                report.deadline_expired
            )),
            vec![],
        );
    }
    if w.adaptive() && report.adaptations_fired != 1 {
        return (
            Some(format!(
                "{} adaptations fired, expected 1",
                report.adaptations_fired
            )),
            vec![],
        );
    }
    let expected = digest::expected(wf, w.adaptive());
    for (task, want) in &expected {
        let Some(got) = report.tasks.get(task) else {
            return (Some(format!("task {task} missing from the report")), vec![]);
        };
        if got.state != TaskState::Completed {
            return (Some(format!("task {task} ended {}", got.state)), vec![]);
        }
        if got.result.as_ref() != Some(want) {
            return (
                Some(format!(
                    "task {task} returned {:?}, expected {want}",
                    got.result
                )),
                vec![],
            );
        }
    }
    let finished = |t: &str| {
        report.tasks[t]
            .finished_at
            .expect("finished tasks have a time")
    };
    // A replacement task cannot start before its adaptation fires, so
    // the failure of a watched task counts among its predecessors.
    let dag = wf.dag();
    let mut triggers: HashMap<&str, Vec<&str>> = HashMap::new();
    if w.adaptive() {
        for a in wf.adaptations() {
            for &r in &a.replacement {
                triggers.insert(
                    dag.name_of(r),
                    a.watched.iter().map(|&t| dag.name_of(t)).collect(),
                );
            }
        }
    }
    let delays = digest::effective_preds(wf, w.adaptive())
        .iter()
        .map(|(task, preds)| {
            let trigger = triggers.get(task.as_str()).into_iter().flatten().copied();
            let ready = preds
                .iter()
                .map(String::as_str)
                .chain(trigger)
                .map(finished)
                .max();
            finished(task)
                .saturating_sub(ready.unwrap_or(Duration::ZERO))
                .as_secs_f64()
                * 1e6
        })
        .collect();
    (None, delays)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small instances of every workload: the wrapped (traced) stack
    /// must compute exactly what the plain one does, and both must pass
    /// the output check.
    #[test]
    fn wrappers_are_transparent() {
        let data_root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-data-{}", std::process::id()));
        for (w, size) in [
            (Workload::Fanin, 20),
            (Workload::AdaptiveMesh, 3),
            (Workload::ChainDurable, 12),
        ] {
            let spans = Spans::new();
            let plain = run_rep(w, size, 11, 1, None, &data_root);
            let traced = run_rep(w, size, 11, 2, Some(&spans), &data_root);
            for rep in [&plain, &traced] {
                assert_eq!(rep.failure, None, "{w:?}");
            }
            assert_eq!(plain.sink_results, traced.sink_results, "{w:?}");
            assert_eq!(plain.tasks, traced.tasks, "{w:?}");
            assert_eq!(plain.adaptations, traced.adaptations, "{w:?}");
            assert_eq!(plain.adaptations, u32::from(w.adaptive()), "{w:?}");
            assert!(!traced
                .traced
                .as_ref()
                .unwrap()
                .client
                .publishes
                .lock()
                .unwrap()
                .is_empty());
            assert!(plain.traced.is_none());
            // The sink digest is the reference's, and depends on the seed.
            let wf = w.workflow(size, 11);
            let expected = digest::expected(&wf, w.adaptive());
            for (sink, got) in &plain.sink_results {
                assert_eq!(got, &expected[sink], "{w:?}");
                assert_ne!(
                    got,
                    &digest::expected(&w.workflow(size, 12), w.adaptive())[sink]
                );
            }
            // The replay and the codec/wire round trips agree too.
            let recorded = traced.traced.as_ref().unwrap();
            let sample = crate::layers::sample(recorded, &digest::sinks(&wf));
            let (_, problems) = crate::layers::per_layer(
                w,
                &wf,
                &[sample],
                recorded.client.take_publishes(),
                &spans,
            );
            assert!(problems.is_empty(), "{w:?}: {problems:?}");
        }
        let _ = std::fs::remove_dir_all(&data_root);
    }

    #[test]
    fn adaptive_reference_comes_from_the_replacement_mesh() {
        let wf = Workload::AdaptiveMesh.workflow(3, 5);
        assert_ne!(
            digest::expected(&wf, true)["out"],
            digest::expected(&wf, false)["out"]
        );
    }
}
