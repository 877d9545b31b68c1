//! Tracing from outside the program: in-memory spans, and transparent
//! wrappers that time each call into a layer's public API.
//!
//! - [`Tap`] sits between the engine and its broker, and between the
//!   daemon and its inner log, and records every publish (topic,
//!   payload, call instant and duration) and the time spent
//!   subscribing.
//! - [`TracedService`] times service invocations.
//!
//! Every wrapper forwards each call unchanged, so a traced run computes
//! the same results as an untraced one (checked by the tests).

use bytes::Bytes;
use ginflow_core::{Service, ServiceError, Value};
use ginflow_mq::{Broker, Message, MqError, Receipt, SubscribeMode, Subscription};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One span: a named interval, the span that caused it, and the run it
/// belongs to.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    run: String,
    start: Duration,
    end: Duration,
}

/// Spans kept in memory until [`Spans::write`] at the end of the
/// benchmark. Ids start at 1; parent 0 is the root.
pub struct Spans {
    epoch: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, for a span recorded later with [`Spans::record`].
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        run: &str,
        start: Instant,
        end: Instant,
    ) {
        self.done.lock().expect("span list lock").push(Span {
            id,
            parent,
            name,
            run: run.to_owned(),
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &'static str, parent: u64, run: &str, f: impl FnOnce() -> R) -> R {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, name, parent, run, start, Instant::now());
        out
    }

    /// Durations (seconds) of the spans named `name`, in end order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let done = self.done.lock().expect("span list lock");
        done.iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut done = self.done.lock().expect("span list lock");
        done.sort_by_key(|s| (s.start, s.id));
        for s in done.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"run\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.id,
                s.parent,
                s.name,
                s.run,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// One recorded publish.
pub struct Publish {
    pub topic: String,
    pub key: Option<Bytes>,
    pub payload: Bytes,
    pub at: Instant,
    pub took: Duration,
}

/// What a [`Tap`] saw.
#[derive(Default)]
pub struct BrokerLog {
    pub publishes: Mutex<Vec<Publish>>,
    pub subscribe_time: Mutex<Duration>,
}

impl BrokerLog {
    fn publish<T>(
        &self,
        topic: &str,
        key: Option<Bytes>,
        payload: Bytes,
        call: impl FnOnce(Option<Bytes>, Bytes) -> T,
    ) -> T {
        let at = Instant::now();
        let out = call(key.clone(), payload.clone());
        let took = at.elapsed();
        self.publishes
            .lock()
            .expect("publish log lock")
            .push(Publish {
                topic: topic.to_owned(),
                key,
                payload,
                at,
                took,
            });
        out
    }

    fn subscribe<T>(&self, call: impl FnOnce() -> T) -> T {
        let at = Instant::now();
        let out = call();
        *self.subscribe_time.lock().expect("subscribe time lock") += at.elapsed();
        out
    }

    pub fn take_publishes(&self) -> Vec<Publish> {
        std::mem::take(&mut *self.publishes.lock().expect("publish log lock"))
    }

    pub fn subscribe_seconds(&self) -> f64 {
        self.subscribe_time
            .lock()
            .expect("subscribe time lock")
            .as_secs_f64()
    }
}

/// A broker wrapper recording every publish and subscribe into
/// a [`BrokerLog`]. Used twice: between the engine and its broker
/// (client-side publishes), and between the daemon and its inner log,
/// where the daemon's publish is the store append and its subscribe
/// creates the topic.
pub struct Tap {
    pub inner: Arc<dyn Broker>,
    pub log: Arc<BrokerLog>,
}

impl Broker for Tap {
    fn publish(&self, topic: &str, key: Option<Bytes>, payload: Bytes) -> Result<Receipt, MqError> {
        self.log
            .publish(topic, key, payload, |k, p| self.inner.publish(topic, k, p))
    }

    fn publish_nowait(
        &self,
        topic: &str,
        key: Option<Bytes>,
        payload: Bytes,
    ) -> Result<(), MqError> {
        self.log.publish(topic, key, payload, |k, p| {
            self.inner.publish_nowait(topic, k, p)
        })
    }

    fn flush(&self) -> Result<(), MqError> {
        self.inner.flush()
    }

    fn subscribe(&self, topic: &str, mode: SubscribeMode) -> Result<Subscription, MqError> {
        self.log.subscribe(|| self.inner.subscribe(topic, mode))
    }

    fn subscribe_many(
        &self,
        requests: &[(String, SubscribeMode)],
    ) -> Result<Vec<Subscription>, MqError> {
        self.log.subscribe(|| self.inner.subscribe_many(requests))
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from: u64,
        max: usize,
    ) -> Result<Vec<Message>, MqError> {
        self.inner.fetch(topic, partition, from, max)
    }

    fn persistent(&self) -> bool {
        self.inner.persistent()
    }

    fn partitions(&self, topic: &str) -> u32 {
        self.inner.partitions(topic)
    }

    fn retained(&self, topic: &str) -> u64 {
        self.inner.retained(topic)
    }

    fn delete_topic(&self, topic: &str) -> bool {
        self.inner.delete_topic(topic)
    }

    fn topic_names(&self) -> Vec<String> {
        self.inner.topic_names()
    }
}

/// Service wrapper timing each invocation (microseconds).
pub struct TracedService {
    pub inner: Arc<dyn Service>,
    pub times_us: Arc<Mutex<Vec<f64>>>,
}

impl Service for TracedService {
    fn invoke(&self, params: &[Value]) -> Result<Value, ServiceError> {
        let at = Instant::now();
        let out = self.inner.invoke(params);
        let us = at.elapsed().as_secs_f64() * 1e6;
        self.times_us.lock().expect("service time lock").push(us);
        out
    }
}
