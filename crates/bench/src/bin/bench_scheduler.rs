//! The scheduler scaling run: the event-driven worker pool on a
//! 1000-task fan-out/fan-in workflow (200 tasks with `--quick`). Writes
//! `results/BENCH_scheduler.csv`.

use ginflow_bench::workload::{csv_rows, CSV_HEADER};
use ginflow_bench::{csv, quick_from_args, scheduler_scale};

fn main() {
    let quick = quick_from_args(
        "bench_scheduler",
        "event-driven scheduler on a wide fan-out/fan-in",
    );
    let samples = scheduler_scale::run(quick);
    println!(
        "{:<16} {:>6} {:>8} {:>10} {:>9} {:>10}",
        "mode", "tasks", "workers", "wall (s)", "cpu (s)", "completed"
    );
    for s in &samples {
        println!(
            "{:<16} {:>6} {:>8} {:>10.3} {:>9.3} {:>10}",
            s.mode, s.tasks, s.workers, s.wall_secs, s.cpu_secs, s.completed
        );
    }
    csv::write_csv(
        "results/BENCH_scheduler.csv",
        &CSV_HEADER,
        &csv_rows(&samples),
    )
    .expect("write results/BENCH_scheduler.csv");
    println!("\nwrote results/BENCH_scheduler.csv");
}
