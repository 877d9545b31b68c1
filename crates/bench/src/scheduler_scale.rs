//! Scheduler scaling benchmark: the event-driven worker pool on a wide
//! fan-out/fan-in workflow (see [`crate::workload`] for the workload
//! itself). The pool runs every agent on a bounded worker set woken by
//! broker deliveries.
//!
//! Emits `results/BENCH_scheduler.csv` with wall-clock and process CPU
//! time.

use crate::workload::{fan_out_fan_in, process_cpu, Sample};
use ginflow_core::ServiceRegistry;
use ginflow_engine::{Backend, Engine};
use ginflow_mq::BrokerKind;
use std::sync::Arc;
use std::time::Duration;

/// Run the pool once through the unified engine; timings come from the
/// structured [`ginflow_engine::RunReport`].
pub fn run_once(width: usize, workers: usize, timeout: Duration) -> Sample {
    let wf = fan_out_fan_in(width);
    let registry = Arc::new(ServiceRegistry::tracing_for(["s"]));
    let engine = Engine::builder()
        .broker(BrokerKind::Transient.build())
        .registry(registry)
        .workers(workers)
        .backend(Backend::Scheduler)
        .deadline(timeout)
        .build();

    let cpu_before = process_cpu();
    let run = engine.launch(&wf);
    let report = run.join();
    let cpu = process_cpu().saturating_sub(cpu_before);

    Sample::workflow(
        "pool",
        width + 2,
        workers,
        report.wall,
        cpu,
        report.completed,
    )
}

/// The campaign: the pool at the given scale.
pub fn run(quick: bool) -> Vec<Sample> {
    let width = if quick { 200 } else { 1000 };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    vec![run_once(width, workers, Duration::from_secs(300))]
}
