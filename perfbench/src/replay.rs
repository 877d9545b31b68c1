//! Single-threaded replay of a workflow's compiled agent programs
//! through `SaCore::handle`, outside the scheduler: times every
//! reduction and collects the HOCL work counters, and yields each
//! task's final result so the replay is checked like a real run.

use crate::stats::percentile;
use ginflow_agent::{Command, Event, SaCore};
use ginflow_core::{ServiceRegistry, TaskState, Value, Workflow};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// What one replay measured.
pub struct Replay {
    /// Final state and result of every agent, by task name.
    pub finals: HashMap<String, (TaskState, Option<Value>)>,
    /// Duration of every `handle` call, microseconds.
    pub handle_us: Vec<f64>,
    /// Mean `handle` cost of a delivered message at the agent with the
    /// most sources (the widest fan-in), microseconds.
    pub sink_us_per_msg: f64,
    pub applications: u64,
    pub match_attempts: u64,
    pub weight_scanned: u64,
}

/// Run `wf` to quiescence: every agent starts, service calls complete
/// inline (as the scheduler's dispatch does), sends are delivered in
/// FIFO order.
pub fn replay(wf: &Workflow, registry: &ServiceRegistry) -> Replay {
    let (programs, plans) = ginflow_hoclflow::agent_programs(wf);
    let plans = Arc::new(plans);
    let widest = programs
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| p.sources.len())
        .map(|(i, _)| i)
        .expect("a workflow has tasks");
    let index: HashMap<String, usize> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.clone(), i))
        .collect();
    let mut agents: Vec<SaCore> = programs
        .into_iter()
        .map(|p| SaCore::new(p, plans.clone()))
        .collect();
    let mut out = Replay {
        finals: HashMap::new(),
        handle_us: Vec::new(),
        sink_us_per_msg: 0.0,
        applications: 0,
        match_attempts: 0,
        weight_scanned: 0,
    };
    let (mut widest_us, mut widest_msgs) = (0.0, 0u32);
    let mut queue: VecDeque<(usize, Event)> =
        (0..agents.len()).map(|i| (i, Event::Start)).collect();
    while let Some((agent, event)) = queue.pop_front() {
        let delivery = matches!(event, Event::Deliver(_));
        let at = Instant::now();
        let commands = agents[agent]
            .handle(event)
            .expect("agent programs reduce without error");
        let us = at.elapsed().as_secs_f64() * 1e6;
        out.handle_us.push(us);
        if agent == widest && delivery {
            widest_us += us;
            widest_msgs += 1;
        }
        let stats = agents[agent].take_stats();
        out.applications += stats.applications;
        out.match_attempts += stats.match_attempts;
        out.weight_scanned += stats.weight_scanned;
        // Completions go first so each agent finishes its turn before
        // the next message is handled, like the scheduler's dispatch.
        let mut completions = Vec::new();
        for command in commands {
            match command {
                Command::Invoke {
                    effect,
                    service,
                    params,
                } => {
                    let result = match registry.get(&service) {
                        Some(s) => s.invoke(&params).map_err(|e| e.message),
                        None => Err(format!("unknown service {service:?}")),
                    };
                    completions.push((agent, Event::ServiceCompleted { effect, result }));
                }
                Command::Send { to, message } => {
                    queue.push_back((index[&to], Event::Deliver(message)));
                }
                Command::Publish { .. } => {}
            }
        }
        for c in completions.into_iter().rev() {
            queue.push_front(c);
        }
    }
    if widest_msgs > 0 {
        out.sink_us_per_msg = widest_us / f64::from(widest_msgs);
    }
    for core in &agents {
        out.finals
            .insert(core.name().to_owned(), (core.state(), core.result()));
    }
    out
}

impl Replay {
    pub fn handle_p(&self, p: f64) -> f64 {
        percentile(&self.handle_us, p)
    }
}
