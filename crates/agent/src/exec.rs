//! Agent execution machinery of the event-driven
//! [`crate::scheduler::Scheduler`]: command execution and the status
//! collector loop.

use crate::core::{Command, Event, SaCore};
use crate::engine::RunTracker;
use crate::message::StatusUpdate;
use ginflow_core::ServiceRegistry;
use ginflow_mq::{Broker, Subscription, TopicNamespace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Everything needed to run one agent's events: the broker for sends and
/// status publishes, the run's topic namespace, the registry for service
/// invocations, and the agent's identity.
pub(crate) struct AgentCtx<'a> {
    pub broker: &'a dyn Broker,
    pub ns: &'a TopicNamespace,
    pub registry: &'a ServiceRegistry,
    pub name: &'a str,
    pub incarnation: u32,
}

impl AgentCtx<'_> {
    /// Run one event through the core and execute every resulting
    /// command, feeding service completions back in until quiescence.
    pub fn dispatch(&self, core: &mut SaCore, event: Event) -> Result<(), ()> {
        let mut queue: VecDeque<Event> = VecDeque::from([event]);
        while let Some(event) = queue.pop_front() {
            let commands = core.handle(event).map_err(|_| ())?;
            for command in commands {
                match command {
                    Command::Invoke {
                        effect,
                        service,
                        params,
                    } => {
                        let result = match self.registry.get(&service) {
                            Some(s) => s.invoke(&params).map_err(|e| e.message),
                            None => Err(format!("unknown service {service:?}")),
                        };
                        queue.push_back(Event::ServiceCompleted { effect, result });
                    }
                    Command::Send { to, message } => {
                        // Destinations come from the compiled DAG, whose
                        // names were validated at launch; a name the
                        // namespace rejects has no inbox to lose a
                        // message to, matching the ignored-publish path.
                        // Fire-and-forget pipelined publish: neither
                        // send consumes the receipt, and on a remote
                        // broker the blocking round trip would be the
                        // whole coordination hot path.
                        if let Ok(topic) = self.ns.inbox(&to) {
                            let _ = self.broker.publish_nowait(
                                &topic,
                                Some(bytes::Bytes::from(to.clone().into_bytes())),
                                message.encode(),
                            );
                        }
                    }
                    Command::Publish { state, result } => {
                        let update = StatusUpdate {
                            task: self.name.to_owned(),
                            state,
                            result,
                            incarnation: self.incarnation,
                        };
                        let _ = self
                            .broker
                            .publish_nowait(self.ns.status(), None, update.encode());
                    }
                }
            }
        }
        Ok(())
    }
}

/// The status collector: drains the shared status topic into the run
/// tracker, stamping each update with its time since launch. Fully
/// blocking — woken by deliveries, and by the empty-payload sentinel
/// [`publish_shutdown_sentinel`] emits at shutdown.
pub(crate) fn status_loop(tracker: Arc<RunTracker>, sub: Subscription, shutdown: Arc<AtomicBool>) {
    loop {
        match sub.recv() {
            Ok(msg) => match StatusUpdate::decode(&msg.payload) {
                Some(update) => tracker.observe(&update, tracker.elapsed()),
                // Undecodable payloads are the shutdown sentinel (or
                // foreign noise on a shared broker; either way, check).
                None => {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                }
            },
            Err(_) => return,
        }
    }
}

/// Wake this run's status collectors so they can observe their shutdown
/// flag. The status topic is run-scoped, so other runs on the same
/// broker never even see the sentinel.
pub(crate) fn publish_shutdown_sentinel(broker: &dyn Broker, ns: &TopicNamespace) {
    let _ = broker.publish(ns.status(), None, bytes::Bytes::new());
}
