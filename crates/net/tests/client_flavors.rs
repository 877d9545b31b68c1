//! Shared-reactor client semantics: every documented client contract —
//! reconnect replay exactly-once, the pipeline loss ledger, bulk
//! subscribe, severed-connection recovery — plus the reactor's thread
//! accounting: one I/O thread however many connections,
//! deterministically retired at zero.
//!
//! Tests here share one process and several read process-wide state
//! (`/proc/self`, the shared reactor), so every test serializes on
//! [`GATE`] — the same convention as `async_loop.rs`.

use bytes::Bytes;
use ginflow_mq::wire::{read_frame, write_frame, Frame};
use ginflow_mq::{Broker, LogBroker, MqError, SubscribeMode};
use ginflow_net::{BrokerServer, RemoteBroker, Transport};
use std::io::BufReader;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serializes the tests in this binary: thread-count measurements are
/// process-global.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn payload(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn serve_log() -> (BrokerServer, Arc<LogBroker>) {
    let broker = Arc::new(LogBroker::new());
    let server = BrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
    (server, broker)
}

fn connect(server: &BrokerServer) -> RemoteBroker {
    RemoteBroker::connect(&server.local_addr().to_string()).unwrap()
}

/// Threads the library runs in this process: every thread it spawns
/// is named `gf-*` (`/proc/self/task/*/comm`). The test harness's own
/// per-test threads are left out — they start and exit whenever other
/// tests in this binary do, so a whole-process count races with them.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("gf-"))
        .count()
}

/// The reconnect contract: sever the connection mid-run; the
/// subscription resumes from its offset watermark and the outage
/// window replays exactly once, in order.
#[test]
fn reconnect_replay_is_exactly_once() {
    let _gate = gate();
    let (server, broker) = serve_log();
    let remote = connect(&server);
    let sub = remote.subscribe("t", SubscribeMode::Beginning).unwrap();
    remote.publish("t", None, payload("m0")).unwrap();
    remote.publish("t", None, payload("m1")).unwrap();
    for i in 0..2 {
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(5))
                .unwrap()
                .payload_str(),
            format!("m{i}")
        );
    }
    // Outage: messages land in the log while the client is down.
    server.drop_connections();
    broker.publish("t", None, payload("m2")).unwrap();
    broker.publish("t", None, payload("m3")).unwrap();
    // Redial + FromOffset(2) replays exactly the missed window…
    for i in 2..4 {
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(10))
                .unwrap()
                .payload_str(),
            format!("m{i}")
        );
    }
    // …and post-recovery traffic flows with no duplicates.
    remote.publish("t", None, payload("m4")).unwrap();
    assert_eq!(
        sub.recv_timeout(Duration::from_secs(10))
            .unwrap()
            .payload_str(),
        "m4"
    );
    assert_eq!(sub.backlog(), 0, "duplicate replay");
    remote.shutdown();
    server.stop();
}

/// The loss-ledger contract, made deterministic with a scripted daemon:
/// it completes the INFO handshake, swallows exactly one pipelined
/// publish without acking, and severs — then refuses redials. The publish must latch on the ledger (reported by
/// the next flush, exactly once) and must NOT be replayed.
#[test]
fn unacked_pipelined_publish_latches_on_loss_ledger() {
    let _gate = gate();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let script = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        // Dropping the listener now makes every redial fail fast.
        drop(listener);
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let mut swallowed = 0u32;
        loop {
            match read_frame(&mut reader) {
                Ok(Some(Frame::Info { seq, .. })) => {
                    write_frame(
                        &mut sock,
                        &Frame::InfoReply {
                            seq,
                            persistent: true,
                            partitions: 1,
                            retained: 0,
                        },
                    )
                    .unwrap();
                }
                Ok(Some(Frame::Publish { .. })) => {
                    swallowed += 1;
                    return swallowed; // sever without acking
                }
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => return swallowed,
            }
        }
    });
    let remote = RemoteBroker::connect(&addr).unwrap();
    remote.publish_nowait("t", None, payload("doomed")).unwrap();
    // The daemon reads the frame and severs; the client notices the
    // EOF, fails the in-flight waiter onto the ledger, and flush
    // reports it.
    match remote.flush() {
        Err(MqError::Remote { message }) => {
            assert!(
                message.starts_with("1 pipelined publish"),
                "unexpected ledger report: {message}"
            )
        }
        other => panic!("loss not reported by flush: {other:?}"),
    }
    // The ledger resets once reported, and the publish is gone for
    // good — no replay rode a reconnect attempt.
    assert!(remote.flush().is_ok(), "ledger must reset");
    assert_eq!(script.join().unwrap(), 1);
    remote.shutdown();
}

/// Pipelined bulk subscribe: N subscriptions in one
/// round trip, all of them live.
#[test]
fn bulk_subscribe_works() {
    let _gate = gate();
    let (server, _broker) = serve_log();
    let remote = connect(&server);
    let requests: Vec<(String, SubscribeMode)> = (0..100)
        .map(|i| (format!("bulk/{i}"), SubscribeMode::Latest))
        .collect();
    let subs = remote.subscribe_many(&requests).unwrap();
    assert_eq!(subs.len(), 100);
    let publisher = connect(&server);
    for i in 0..100 {
        publisher
            .publish(&format!("bulk/{i}"), None, payload(&format!("m{i}")))
            .unwrap();
    }
    for (i, sub) in subs.iter().enumerate() {
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(10))
                .unwrap()
                .payload_str(),
            format!("m{i}")
        );
    }
    publisher.shutdown();
    remote.shutdown();
    server.stop();
}

/// Blocking publishes ride out a severed connection: at most one
/// in-flight request dies with the socket, then the transparent redial
/// carries the retry.
#[test]
fn severed_connection_recovery() {
    let _gate = gate();
    let (server, broker) = serve_log();
    let remote = connect(&server);
    remote.publish("t", None, payload("before")).unwrap();
    server.drop_connections();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match remote.publish("t", None, payload("after")) {
            Ok(receipt) => {
                assert_eq!(receipt.offset, 1);
                break;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("publish never recovered: {e}"),
        }
    }
    assert_eq!(broker.retained("t"), 2);
    remote.shutdown();
    server.stop();
}

/// The reactor's headline property: N connections, one shared I/O
/// thread — and deterministic retirement when the last one closes
/// (`shutdown` joins the loop thread, so `/proc` agrees immediately).
/// The baseline is taken before the daemon starts: a thread's name is
/// set by the thread itself once it runs, so a loop spawned an instant
/// ago may not carry its `gf-*` name yet. Every loop counted after a
/// completed handshake has run, so both counts are exact.
#[test]
fn reactor_multiplexes_connections_onto_one_thread_and_retires_it() {
    let _gate = gate();
    let baseline = thread_count();
    let (server, _broker) = serve_log();
    let clients: Vec<RemoteBroker> = (0..32).map(|_| connect(&server)).collect();
    assert_eq!(
        thread_count(),
        baseline + 2,
        "32 reactor connections must share one loop thread (plus the daemon's)"
    );
    // All 32 are live connections, not just parked sockets.
    for (i, c) in clients.iter().enumerate() {
        c.publish("t", None, payload(&format!("m{i}"))).unwrap();
    }
    drop(clients);
    assert_eq!(
        thread_count(),
        baseline + 1,
        "reactor thread must retire when the last connection closes"
    );
    server.stop();
    assert_eq!(thread_count(), baseline, "daemon loop joined on stop");
}

/// Closing a client while its redial is in flight leaves no thread
/// behind: the dial helper is joined before `shutdown` returns, so the
/// reactor's "no extra threads at zero connections" holds even then.
#[test]
fn shutdown_mid_redial_leaves_no_dial_thread() {
    let _gate = gate();
    let baseline = thread_count();
    let (server, _broker) = serve_log();
    let addr = server.local_addr().to_string();
    let dials = Arc::new(AtomicUsize::new(0));
    let counter = dials.clone();
    let remote = RemoteBroker::connect_with(Box::new(move || {
        if counter.fetch_add(1, Ordering::SeqCst) > 0 {
            // Every redial is slow, so the helper is still dialing
            // when the client shuts down.
            std::thread::sleep(Duration::from_millis(300));
        }
        let stream = std::net::TcpStream::connect(&addr)?;
        Ok(Box::new(stream) as Box<dyn Transport>)
    }))
    .unwrap();
    server.drop_connections();
    let deadline = Instant::now() + Duration::from_secs(10);
    while dials.load(Ordering::SeqCst) < 2 {
        assert!(
            Instant::now() < deadline,
            "the client never started a redial"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    remote.shutdown();
    server.stop();
    assert_eq!(
        thread_count(),
        baseline,
        "a dial helper outlived its client"
    );
}
