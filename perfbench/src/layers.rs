//! Per-layer metrics from traced repetitions, the `SaCore` replay and
//! the codec/wire re-timing of recorded payloads.

use crate::digest;
use crate::replay::replay;
use crate::stats::{median, percentile};
use crate::trace::{BrokerLog, Publish, Spans};
use crate::workloads::{Traced, Workload};
use crate::{m, Metric};
use ginflow_agent::{SaMessage, StatusUpdate};
use ginflow_core::{TaskState, Workflow};
use ginflow_mq::wire::Frame;
use ginflow_mq::{RunId, TopicNamespace};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How many times each codec/wire loop runs; the median pass counts.
const MICRO_PASSES: usize = 5;

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What one traced repetition measured, reduced to samples so the raw
/// publish logs can be dropped.
pub struct Sample {
    publish_us: Vec<f64>,
    append_us: Vec<f64>,
    service_us: Vec<f64>,
    transit_us: Vec<f64>,
    ready_us: Vec<f64>,
    join_tail_s: f64,
    publish_calls: f64,
    publish_bytes: f64,
    subscribe_s: f64,
    store_subscribe_s: f64,
    counters: HashMap<String, u64>,
}

/// Reduce one traced repetition to its samples; `sinks` names the
/// workflow's sinks (for the join tail).
pub fn sample(x: &Traced, sinks: &[String]) -> Sample {
    let took = |log: &BrokerLog| -> Vec<f64> {
        log.publishes
            .lock()
            .expect("log")
            .iter()
            .map(|p| micros(p.took))
            .collect()
    };
    let client = x.client.publishes.lock().expect("log");
    let (publish_calls, publish_bytes) = (
        client.len() as f64,
        client.iter().map(|p| p.payload.len() as f64).sum(),
    );
    drop(client);
    Sample {
        publish_us: took(&x.client),
        append_us: took(&x.daemon),
        service_us: x.service_us.lock().expect("log").clone(),
        transit_us: transit(x),
        ready_us: ready_waits(x),
        join_tail_s: join_tail(x, sinks),
        publish_calls,
        publish_bytes,
        subscribe_s: x.client.subscribe_seconds(),
        store_subscribe_s: x.daemon.subscribe_seconds(),
        counters: x.counters.clone(),
    }
}

/// Every per-layer metric from the traced repetitions' samples, the
/// replay and the codec/wire pass over `recorded` (one repetition's
/// publishes), plus the problems found while checking the replay and
/// the round trips.
pub fn per_layer(
    w: Workload,
    wf: &Workflow,
    samples: &[Sample],
    mut recorded: Vec<Publish>,
    spans: &Spans,
) -> (Vec<Metric>, Vec<String>) {
    let mut problems = Vec::new();
    let span = |name: &str| median(&spans.durations(name));
    let per_rep = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<f64>>());
    let counter =
        |name: &'static str| per_rep(&|x| x.counters.get(name).copied().unwrap_or(0) as f64);
    let mean_of = |hist: &'static str| {
        per_rep(&|x| {
            let get = |suffix: &str| {
                x.counters
                    .get(&format!("{hist}_{suffix}"))
                    .copied()
                    .unwrap_or(0) as f64
            };
            if get("count") == 0.0 {
                0.0
            } else {
                get("sum") / get("count")
            }
        })
    };
    let pooled = |f: &dyn Fn(&Sample) -> &Vec<f64>| {
        samples
            .iter()
            .flat_map(|x| f(x).iter().copied())
            .collect::<Vec<f64>>()
    };
    let publish_us = pooled(&|x| &x.publish_us);
    let append_us = pooled(&|x| &x.append_us);
    let service_us = pooled(&|x| &x.service_us);
    let transit_us = pooled(&|x| &x.transit_us);
    let ready_us = pooled(&|x| &x.ready_us);

    let mut out = vec![
        m("core.build_s", "s", span("core.build")),
        m("net.bind_s", "s", span("net.bind")),
        m("net.connect_s", "s", span("net.connect")),
        m("store.open_s", "s", span("store.open")),
        m("hoclflow.compile_s", "s", span("hoclflow.compile")),
        m("engine.launch_s", "s", span("engine.launch")),
        m("mq.publish_calls", "count", per_rep(&|x| x.publish_calls)),
        m("mq.publish_bytes", "bytes", per_rep(&|x| x.publish_bytes)),
        m("mq.publish_us_p50", "us", percentile(&publish_us, 0.50)),
        m("mq.publish_us_p99", "us", percentile(&publish_us, 0.99)),
        m("mq.subscribe_s", "s", per_rep(&|x| x.subscribe_s)),
        m("store.append_us_p50", "us", percentile(&append_us, 0.50)),
        m("store.append_us_p99", "us", percentile(&append_us, 0.99)),
        m("store.subscribe_s", "s", per_rep(&|x| x.store_subscribe_s)),
        m("store.appends", "count", counter("gf_store_appends_total")),
        m("store.fsyncs", "count", counter("gf_store_fsyncs_total")),
        m("net.transit_us_p50", "us", percentile(&transit_us, 0.50)),
        m("net.transit_us_p99", "us", percentile(&transit_us, 0.99)),
        m("net.frames", "count", counter("gf_loop_frames_total")),
        m(
            "net.fanout_msgs",
            "count",
            counter("gf_loop_fanout_messages_total"),
        ),
        m(
            "net.fanout_batch_mean",
            "count",
            mean_of("gf_loop_fanout_batch"),
        ),
        m(
            "net.reactor_wakeups",
            "count",
            counter("gf_client_reactor_wakeups_total"),
        ),
        m("sched.wakeups", "count", counter("gf_sched_wakeups_total")),
        m(
            "sched.wakeup_batch_mean",
            "count",
            mean_of("gf_sched_wakeup_batch"),
        ),
        m("sched.ready_wait_us_p50", "us", percentile(&ready_us, 0.50)),
        m("sched.ready_wait_us_p99", "us", percentile(&ready_us, 0.99)),
        m("engine.join_tail_s", "s", per_rep(&|x| x.join_tail_s)),
        m("service.invoke_us_p50", "us", percentile(&service_us, 0.50)),
    ];

    // HOCL: the compiled agents replayed single-threaded.
    let registry = digest::registry(|s| s);
    let r = spans.span("hocl.replay", 0, "replay", || replay(wf, &registry));
    let expected = digest::expected(wf, w.adaptive());
    for (task, want) in &expected {
        match r.finals.get(task) {
            Some((TaskState::Completed, Some(got))) if got == want => {}
            other => problems.push(format!(
                "replay: task {task} ended {other:?}, expected {want}"
            )),
        }
    }
    out.extend([
        m(
            "hocl.handle_s_total",
            "s",
            r.handle_us.iter().sum::<f64>() / 1e6,
        ),
        m("hocl.handle_us_p50", "us", r.handle_p(0.50)),
        m("hocl.handle_us_p99", "us", r.handle_p(0.99)),
        m("hocl.sink_us_per_msg", "us", r.sink_us_per_msg),
        m("hocl.applications", "count", r.applications as f64),
        m("hocl.match_attempts", "count", r.match_attempts as f64),
        m("hocl.weight_scanned", "count", r.weight_scanned as f64),
        m(
            "hocl.apply_ratio",
            "ratio",
            r.applications as f64 / r.match_attempts.max(1) as f64,
        ),
    ]);

    // Codec and wire: one repetition's publishes, re-timed. Empty
    // payloads are the status collector's shutdown sentinel, not codec
    // messages.
    recorded.retain(|p| !p.payload.is_empty());
    let (codec, mut codec_problems) =
        spans.span("codec", 0, "replay", || codec_and_wire(&recorded));
    problems.append(&mut codec_problems);
    out.extend(codec);
    (out, problems)
}

/// Median over [`MICRO_PASSES`] passes of `f` over `n` items, in
/// nanoseconds per item.
fn ns_per_item(n: usize, mut f: impl FnMut()) -> f64 {
    let passes: Vec<f64> = (0..MICRO_PASSES)
        .map(|_| {
            let at = Instant::now();
            f();
            at.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64
        })
        .collect();
    median(&passes)
}

enum Decoded {
    Status(StatusUpdate),
    Agent(SaMessage),
}

fn decode(p: &Publish) -> Option<Decoded> {
    if p.topic.ends_with("/status") {
        StatusUpdate::decode(&p.payload).map(Decoded::Status)
    } else {
        SaMessage::decode(&p.payload).map(Decoded::Agent)
    }
}

fn codec_and_wire(recorded: &[Publish]) -> (Vec<Metric>, Vec<String>) {
    let mut problems = Vec::new();
    let n = recorded.len();
    let decoded: Vec<Decoded> = recorded.iter().filter_map(decode).collect();
    if decoded.len() != n {
        problems.push(format!(
            "codec: {} of {n} payloads failed to decode",
            n - decoded.len()
        ));
    }
    let encode = |d: &Decoded| match d {
        Decoded::Status(s) => s.encode(),
        Decoded::Agent(a) => a.encode(),
    };
    if recorded
        .iter()
        .zip(&decoded)
        .any(|(p, d)| encode(d) != p.payload)
    {
        problems.push("codec: a payload did not re-encode to the same bytes".into());
    }
    let decode_ns = ns_per_item(n, || {
        for p in recorded {
            std::hint::black_box(decode(std::hint::black_box(p)));
        }
    });
    let encode_ns = ns_per_item(n, || {
        for d in &decoded {
            std::hint::black_box(encode(std::hint::black_box(d)));
        }
    });
    let frames: Vec<Frame> = recorded
        .iter()
        .enumerate()
        .map(|(i, p)| Frame::Publish {
            seq: i as u64,
            topic: p.topic.clone(),
            key: p.key.clone(),
            payload: p.payload.clone(),
        })
        .collect();
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| f.encode().expect("recorded frames fit"))
        .collect();
    if frames
        .iter()
        .zip(&encoded)
        .any(|(f, b)| Frame::decode(&b[4..]).ok().as_ref() != Some(f))
    {
        problems.push("wire: a frame did not round-trip".into());
    }
    let wire_encode_ns = ns_per_item(n, || {
        for f in &frames {
            std::hint::black_box(
                std::hint::black_box(f)
                    .encode()
                    .expect("recorded frames fit"),
            );
        }
    });
    let wire_decode_ns = ns_per_item(n, || {
        for b in &encoded {
            std::hint::black_box(
                Frame::decode(std::hint::black_box(&b[4..])).expect("frames decode"),
            );
        }
    });
    let bytes = recorded.iter().map(|p| p.payload.len()).sum::<usize>() as f64 / n.max(1) as f64;
    let metrics = vec![
        m("codec.encode_ns", "ns", encode_ns),
        m("codec.decode_ns", "ns", decode_ns),
        m("codec.bytes_per_msg", "bytes", bytes),
        m("wire.encode_ns", "ns", wire_encode_ns),
        m("wire.decode_ns", "ns", wire_decode_ns),
    ];
    (metrics, problems)
}

/// Publishes grouped by topic, each group in call order.
fn by_topic(publishes: &[Publish]) -> HashMap<&str, Vec<Instant>> {
    let mut out: HashMap<&str, Vec<Instant>> = HashMap::new();
    for p in publishes {
        out.entry(p.topic.as_str()).or_default().push(p.at);
    }
    for v in out.values_mut() {
        v.sort();
    }
    out
}

/// Client publish call → daemon-side publish, microseconds: the k-th
/// publish on a topic at the client is the k-th at the daemon (one
/// connection, per-topic FIFO).
fn transit(x: &Traced) -> Vec<f64> {
    let client = x.client.publishes.lock().expect("log");
    let daemon = x.daemon.publishes.lock().expect("log");
    let sent = by_topic(&client);
    let mut out = Vec::new();
    for (topic, arrived) in by_topic(&daemon) {
        if let Some(sent) = sent.get(topic) {
            out.extend(
                sent.iter()
                    .zip(&arrived)
                    .map(|(s, a)| micros(a.saturating_duration_since(*s))),
            );
        }
    }
    out
}

/// Status updates the engine published, with their call instants.
fn statuses(x: &Traced) -> Vec<(StatusUpdate, Instant)> {
    let client = x.client.publishes.lock().expect("log");
    client
        .iter()
        .filter(|p| p.topic.ends_with("/status"))
        .filter_map(|p| StatusUpdate::decode(&p.payload).map(|s| (s, p.at)))
        .collect()
}

/// Per task: its `Running` status publish minus the publish of the last
/// message into its inbox before that, microseconds. Sources (no inbox
/// traffic) have no sample.
fn ready_waits(x: &Traced) -> Vec<f64> {
    let ns = TopicNamespace::new(RunId::new(x.run_id.clone()).expect("valid run id"));
    let statuses = statuses(x);
    let client = x.client.publishes.lock().expect("log");
    let inboxes = by_topic(&client);
    statuses
        .into_iter()
        .filter(|(s, _)| s.state == TaskState::Running)
        .filter_map(|(s, running)| {
            let topic = ns.inbox(&s.task).ok()?;
            let last = inboxes
                .get(topic.as_str())?
                .iter()
                .filter(|&&at| at <= running)
                .max()?;
            Some(micros(running - *last))
        })
        .collect()
}

/// Last sink `Completed` publish → `join()` returned, seconds.
fn join_tail(x: &Traced, sinks: &[String]) -> f64 {
    statuses(x)
        .into_iter()
        .filter(|(s, _)| s.state == TaskState::Completed && sinks.contains(&s.task))
        .map(|(_, at)| at)
        .max()
        .map_or(0.0, |last| {
            x.joined.saturating_duration_since(last).as_secs_f64()
        })
}
