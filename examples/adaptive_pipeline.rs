//! The §III-C adaptive workflow (Figs 5–8) end-to-end on the
//! decentralised scheduler runtime: `T2`'s service is permanently broken, so the
//! `trigger_adapt` rule fires, `T1` resends its result to the standby
//! `T2'`, and `T4` re-points its sources — all while the workflow keeps
//! running.
//!
//! ```sh
//! cargo run --example adaptive_pipeline
//! ```

use ginflow::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Fig 5: T1 → {T2, T3} → T4, with T2' standing by to replace T2.
    let mut b = WorkflowBuilder::new("fig5");
    b.task("T1", "s1").input(Value::str("input"));
    b.task("T2", "s2").after(["T1"]);
    b.task("T3", "s3").after(["T1"]);
    b.task("T4", "s4").after(["T2", "T3"]);
    b.adaptation(
        "replace-T2",
        ["T2"], // the potentially faulty region
        ["T2"], // whose failure triggers the adaptation
        [ReplacementTask::new("T2'", "s2p", ["T1"])],
    );
    let wf = b.build().expect("valid adaptive workflow");

    // Print the compiled chemistry — the concrete adaptive workflow of Fig 8.
    let compiled = compile_centralized(&wf);
    println!(
        "compiled HOCL program:\n{}\n",
        ginflow::hocl::printer::pretty_solution(&compiled)
    );

    // s2 always fails; everything else traces its lineage.
    let mut registry = ServiceRegistry::tracing_for(["s1", "s3", "s4", "s2p"]);
    registry.register("s2", Arc::new(FailingService));

    let engine = Engine::builder()
        .broker(BrokerKind::Transient.build())
        .registry(Arc::new(registry))
        .build();
    let run = engine.launch(&wf);
    let events = run.events();
    let results = run
        .wait(Duration::from_secs(10))
        .expect("the adaptation completes the workflow");

    println!(
        "T2  state: {:?} (its service is broken)",
        run.state_of("T2").unwrap()
    );
    println!("T2' state: {:?} (took over)", run.state_of("T2'").unwrap());
    println!("T4 result: {}", results["T4"]);
    assert_eq!(
        results["T4"],
        Value::Str("s4(s2p(s1(input)),s3(s1(input)))".into())
    );
    let report = run.join();
    assert_eq!(report.adaptations_fired, 1);

    // The adaptation firing is a first-class event on the run stream.
    let fired: Vec<String> = events
        .filter_map(|e| match e {
            RunEvent::AdaptationFired { adaptation, .. } => Some(adaptation),
            _ => None,
        })
        .collect();
    println!("adaptations fired: {fired:?}");
    assert_eq!(fired, vec!["replace-T2".to_owned()]);
    println!("\nthe workflow completed through the alternative branch — no restart needed");
}
