//! The virtual-time [`ExecutionBackend`]: the simulator behind the same
//! unified execution API as the live scheduler.
//!
//! Launching runs the whole discrete-event simulation synchronously —
//! virtual hours complete in wall-clock milliseconds — and wraps the
//! outcome in a [`RunHandle`] whose event stream is derived from the
//! recorded status trace through the *same* [`RunTracker`] the live
//! backends feed. A consumer iterating [`RunHandle::events`] cannot tell
//! (ordering- and content-wise) whether the run was real or simulated,
//! which is exactly what makes cross-backend tests meaningful.

use crate::run::{simulate, SimConfig};
use ginflow_agent::engine::{
    ExecutionBackend, RunControl, RunEvents, RunFailure, RunHandle, RunMeta, RunReport, RunTracker,
};
use ginflow_agent::WaitError;
use ginflow_core::{TaskState, Value, Workflow};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Virtual-time execution of workflows through the unified API.
#[derive(Clone, Debug, Default)]
pub struct SimBackend {
    /// Simulation parameters (cost model, services, failures, broker
    /// persistence).
    pub config: SimConfig,
    /// Pinned run id for launched runs; `None` (the default) generates
    /// a fresh one per launch, mirroring the live backends. The sim
    /// touches no broker topics — the id only labels handles/reports so
    /// cross-backend comparisons stay uniform.
    pub run_id: Option<ginflow_mq::RunId>,
}

impl SimBackend {
    /// Backend over the given simulation parameters.
    pub fn new(config: SimConfig) -> Self {
        SimBackend {
            config,
            run_id: None,
        }
    }

    /// Pin the run id of every launch (see [`SimBackend::run_id`]).
    pub fn with_run_id(mut self, run_id: Option<ginflow_mq::RunId>) -> Self {
        self.run_id = run_id;
        self
    }
}

impl ExecutionBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn launch_run(&self, workflow: &Workflow) -> RunHandle {
        let sim = simulate(workflow, &self.config);
        let run_id = self
            .run_id
            .clone()
            .unwrap_or_else(ginflow_mq::RunId::generate);
        let tracker = RunTracker::new(RunMeta::of(workflow), run_id);
        for (at, update) in &sim.status_log {
            tracker.observe(update, Duration::from_micros(*at));
        }
        if tracker.outcome().is_none() {
            // The virtual run ended without every sink completing (e.g.
            // crashes without a persistent broker): terminal, stalled.
            tracker.fail(RunFailure::Stalled);
        }
        let mut report = RunReport {
            completed: sim.completed,
            wall: Duration::from_micros(sim.makespan_us),
            ..tracker.report("sim")
        };
        // The kernel's final word wins over the trace (a task can end
        // `Idle`/`Running` without a last publish when the run stalls).
        for (name, state) in &sim.states {
            report.tasks.entry(name.clone()).or_default().state = *state;
        }
        RunHandle::new(Arc::new(SimRun { tracker, report }))
    }
}

/// A finished simulated run behind the [`RunControl`] surface. The run is
/// terminal at launch, so its report is final: every observation answers
/// from it. Fault injection is a no-op (the failure injector runs
/// *inside* the simulation, configured via [`SimConfig::failures`]).
struct SimRun {
    tracker: RunTracker,
    report: RunReport,
}

impl RunControl for SimRun {
    fn backend(&self) -> &'static str {
        self.report.backend
    }

    fn run_id(&self) -> String {
        self.report.run_id.clone()
    }

    fn state_of(&self, task: &str) -> Option<TaskState> {
        self.report.tasks.get(task).map(|t| t.state)
    }

    fn result_of(&self, task: &str) -> Option<Value> {
        self.report.result_of(task).cloned()
    }

    fn statuses(&self) -> Vec<(String, TaskState)> {
        self.report
            .tasks
            .iter()
            .map(|(name, t)| (name.clone(), t.state))
            .collect()
    }

    fn kill(&self, _task: &str) -> bool {
        false
    }

    fn respawn(&self, _task: &str) -> bool {
        false
    }

    fn alive(&self, _task: &str) -> bool {
        false // the virtual run has already ended
    }

    fn incarnation(&self, task: &str) -> u32 {
        self.report
            .tasks
            .get(task)
            .map(|t| t.incarnation)
            .unwrap_or(0)
    }

    fn subscribe(&self) -> RunEvents {
        self.tracker.subscribe()
    }

    fn wait_sinks(&self, _timeout: Duration) -> Result<HashMap<String, Value>, WaitError> {
        if !self.report.completed {
            return Err(WaitError::Timeout {
                statuses: self.statuses(),
            });
        }
        self.tracker
            .meta()
            .sinks
            .iter()
            .map(|sink| match self.result_of(sink) {
                Some(v) => Ok((sink.clone(), v)),
                None => Err(WaitError::MissingResult { task: sink.clone() }),
            })
            .collect()
    }

    fn cancel_with(&self, failure: RunFailure) {
        // The run is terminal from launch, so this is a no-op; kept for
        // API symmetry.
        self.tracker.fail(failure);
    }

    fn stop(&self) {
        self.tracker.close();
    }

    fn report(&self) -> RunReport {
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceModel;
    use ginflow_agent::RunEvent;
    use ginflow_core::workflow::WorkflowBuilder;
    use ginflow_core::{patterns, Connectivity};

    fn fig2() -> Workflow {
        let mut b = WorkflowBuilder::new("fig2");
        b.task("T1", "s1").input(Value::str("input"));
        b.task("T2", "s2").after(["T1"]);
        b.task("T3", "s3").after(["T1"]);
        b.task("T4", "s4").after(["T2", "T3"]);
        b.build().unwrap()
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            services: ServiceModel::constant(100_000),
            ..SimConfig::default()
        }
    }

    #[test]
    fn sim_backend_completes_with_events() {
        let handle = SimBackend::new(quick_config()).launch_run(&fig2());
        let events: Vec<RunEvent> = handle.events().collect();
        assert_eq!(events.last(), Some(&RunEvent::RunCompleted));
        assert!(events
            .iter()
            .any(|e| matches!(e, RunEvent::TaskResult { task, .. } if task == "T4")));
        let report = handle.join();
        assert!(report.completed);
        assert_eq!(report.state_of("T4"), TaskState::Completed);
        assert!(report.wall > Duration::ZERO);
        let t4 = &report.tasks["T4"];
        assert!(t4.started_at.unwrap() < t4.finished_at.unwrap());
    }

    #[test]
    fn stalled_sim_run_is_a_failed_run() {
        use crate::run::FailureSpec;
        let config = SimConfig {
            services: ServiceModel::constant(2 * crate::SECOND),
            failures: Some(FailureSpec { p: 1.0, t_us: 1 }),
            persistent_broker: false,
            ..SimConfig::default()
        };
        let wf = patterns::diamond(2, 2, Connectivity::Simple, "s").unwrap();
        let handle = SimBackend::new(config).launch_run(&wf);
        let events: Vec<RunEvent> = handle.events().collect();
        assert_eq!(
            events.last(),
            Some(&RunEvent::RunFailed {
                reason: RunFailure::Stalled
            })
        );
        assert!(handle.wait(Duration::ZERO).is_err());
        assert!(!handle.join().completed);
    }

    #[test]
    fn simulated_recovery_shows_respawn_events() {
        use crate::run::FailureSpec;
        use crate::CostModel;
        let config = SimConfig {
            cost: CostModel::kafka(),
            services: ServiceModel::constant(2 * crate::SECOND),
            failures: Some(FailureSpec {
                p: 0.5,
                t_us: crate::SECOND,
            }),
            persistent_broker: true,
            seed: 7,
            ..SimConfig::default()
        };
        let wf = patterns::diamond(3, 3, Connectivity::Simple, "s").unwrap();
        let handle = SimBackend::new(config).launch_run(&wf);
        let events: Vec<RunEvent> = handle.events().collect();
        assert_eq!(events.last(), Some(&RunEvent::RunCompleted));
        assert!(events
            .iter()
            .any(|e| matches!(e, RunEvent::AgentRespawned { .. })));
        let report = handle.report();
        assert!(report.respawns > 0);
    }
}
