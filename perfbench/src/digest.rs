//! The benchmark's service and its reference: every task returns a
//! fixed-size digest of its parameters, and the expected digest of every
//! task is computed from the DAG alone.
//!
//! The stock `TraceService` concatenates its inputs, so on a full mesh
//! its output grows as h^v; a fixed-size digest keeps every payload at
//! 16 hex characters whatever the workflow shape. `gw_setup` collects a
//! task's inputs in arrival order, so the digest is a commutative sum
//! over the parameters and does not depend on their order.

use ginflow_core::workflow::ReplacementTask;
use ginflow_core::{Service, ServiceError, ServiceRegistry, Value, Workflow, WorkflowBuilder};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Service name of every active task.
pub const MAIN: &str = "digest";
/// Service name of every replacement (standby) task: a different salt,
/// so a sink digest tells which mesh produced it.
pub const REPLACEMENT: &str = "digest-r";
/// Service name of the task rigged to fail.
pub const FAILING: &str = "fail";

fn mix(mut z: u64) -> u64 {
    // splitmix64 finaliser.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn salt(service: &str) -> u64 {
    mix(fnv(service.as_bytes()))
}

fn param_hash(p: &Value) -> u64 {
    match p {
        Value::Str(s) => fnv(s.as_bytes()),
        other => fnv(other.to_string().as_bytes()),
    }
}

/// The digest of a parameter list under `service`'s salt: order-free
/// (a wrapping sum of mixed parameter hashes), count-sensitive, and
/// always 16 hex characters.
pub fn digest(service: &str, params: &[Value]) -> Value {
    let sum = params
        .iter()
        .fold(0u64, |acc, p| acc.wrapping_add(mix(param_hash(p))));
    let h = mix(salt(service) ^ sum ^ mix(params.len() as u64));
    Value::Str(format!("{h:016x}"))
}

/// A service returning [`digest`] of its parameters.
pub struct DigestService {
    label: String,
}

impl Service for DigestService {
    fn invoke(&self, params: &[Value]) -> Result<Value, ServiceError> {
        Ok(digest(&self.label, params))
    }
}

/// The services every workload uses, each wrapped by `wrap` (identity
/// for untraced runs, a timing wrapper for traced ones).
pub fn registry(wrap: impl Fn(Arc<dyn Service>) -> Arc<dyn Service>) -> ServiceRegistry {
    let mut r = ServiceRegistry::new();
    for label in [MAIN, REPLACEMENT] {
        r.register(
            label,
            wrap(Arc::new(DigestService {
                label: label.into(),
            })),
        );
    }
    r.register(
        FAILING,
        wrap(Arc::new(ginflow_core::service::FailingService)),
    );
    r
}

/// The source payload a seed stands for.
pub fn seeded_input(seed: u64) -> Value {
    Value::Str(format!("seed-{seed}-{:016x}", mix(seed ^ 0x5eed)))
}

/// Rebuild `wf` with every workflow-initial input replaced by `input`,
/// every active task on [`MAIN`] (the rigged one keeps [`FAILING`]) and
/// every replacement task on [`REPLACEMENT`]. The shape — tasks, edges,
/// adaptations — is unchanged.
pub fn reseed(wf: &Workflow, input: &Value) -> Workflow {
    let dag = wf.dag();
    let mut b = WorkflowBuilder::new(wf.name());
    for (id, t) in dag.iter().filter(|(_, t)| !t.is_standby()) {
        let service = if t.service == FAILING { FAILING } else { MAIN };
        let mut tb = b.task(t.name.clone(), service);
        for _ in &t.inputs {
            tb = tb.input(input.clone());
        }
        tb.after(
            dag.predecessors(id)
                .iter()
                .map(|&p| dag.name_of(p).to_owned()),
        );
    }
    for a in wf.adaptations() {
        let names = |ids: &[ginflow_core::TaskId]| -> Vec<String> {
            ids.iter().map(|&t| dag.name_of(t).to_owned()).collect()
        };
        let replacement = a.replacement.iter().map(|&r| {
            let deps = a
                .internal_edges
                .iter()
                .chain(&a.entry_edges)
                .filter(|&&(_, to)| to == r)
                .map(|&(from, _)| dag.name_of(from).to_owned());
            ReplacementTask::new(dag.name_of(r), REPLACEMENT, deps)
        });
        b.adaptation(
            a.name.clone(),
            names(&a.region),
            names(&a.watched),
            replacement,
        );
    }
    b.build().expect("reseeding keeps a valid workflow valid")
}

/// The graph a run executes once every adaptation fired: regions
/// removed, replacements wired in. `fired` selects which adaptations
/// to apply. Returns each executed task's predecessors (name → names).
pub fn effective_preds(wf: &Workflow, fired: bool) -> BTreeMap<String, Vec<String>> {
    let dag = wf.dag();
    let mut dropped: HashSet<ginflow_core::TaskId> = HashSet::new();
    let mut preds: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (id, t) in dag.iter().filter(|(_, t)| !t.is_standby()) {
        preds.insert(
            t.name.clone(),
            dag.predecessors(id)
                .iter()
                .map(|&p| dag.name_of(p).to_owned())
                .collect(),
        );
    }
    if fired {
        for a in wf.adaptations() {
            dropped.extend(a.region.iter().copied());
            for &r in &a.replacement {
                preds.insert(dag.name_of(r).to_owned(), Vec::new());
            }
            for &(from, to) in a
                .internal_edges
                .iter()
                .chain(&a.entry_edges)
                .chain(&a.exit_edges)
            {
                preds
                    .get_mut(dag.name_of(to))
                    .expect("edge targets exist")
                    .push(dag.name_of(from).to_owned());
            }
        }
        let dropped: HashSet<&str> = dropped.iter().map(|&t| dag.name_of(t)).collect();
        preds.retain(|name, _| !dropped.contains(name.as_str()));
        for ps in preds.values_mut() {
            ps.retain(|p| !dropped.contains(p.as_str()));
        }
    }
    preds
}

/// Expected result of every task a run executes, computed from the DAG
/// with the same digest function the services use. With `fired`, the
/// adaptations are applied first (the workload rigs its watched task to
/// fail, so they must fire).
pub fn expected(wf: &Workflow, fired: bool) -> HashMap<String, Value> {
    let dag = wf.dag();
    let preds = effective_preds(wf, fired);
    let mut out: HashMap<String, Value> = HashMap::new();
    // Kahn's order over the effective graph.
    let mut pending: Vec<&String> = preds.keys().collect();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|name| {
            let ps = &preds[*name];
            if !ps.iter().all(|p| out.contains_key(p)) {
                return true;
            }
            let spec = dag.task(dag.by_name(name).expect("known task"));
            let params: Vec<Value> = if ps.is_empty() {
                spec.inputs.clone()
            } else {
                ps.iter().map(|p| out[p].clone()).collect()
            };
            out.insert((*name).clone(), digest(&spec.service, &params));
            false
        });
        assert!(pending.len() < before, "effective graph has a cycle");
    }
    out
}

/// The workflow's sinks (active tasks without successors).
pub fn sinks(wf: &Workflow) -> Vec<String> {
    let dag = wf.dag();
    dag.sinks()
        .into_iter()
        .filter(|&s| !dag.task(s).is_standby())
        .map(|s| dag.name_of(s).to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ginflow_core::patterns::{AdaptiveDiamondSpec, Connectivity};

    #[test]
    fn digest_ignores_parameter_order_but_not_multiplicity() {
        let (a, b) = (Value::str("a"), Value::str("b"));
        assert_eq!(
            digest(MAIN, &[a.clone(), b.clone()]),
            digest(MAIN, &[b.clone(), a.clone()])
        );
        let one = std::slice::from_ref(&a);
        assert_ne!(digest(MAIN, one), digest(MAIN, &[a.clone(), a.clone()]));
        assert_ne!(digest(MAIN, one), digest(REPLACEMENT, one));
        match digest(MAIN, &[a]) {
            Value::Str(s) => assert_eq!(s.len(), 16),
            other => panic!("digest is a string: {other:?}"),
        }
    }

    /// A hand-sized DAG: in → {x, y} → out, with x replaceable by x'.
    fn hand_dag() -> Workflow {
        let mut b = WorkflowBuilder::new("hand");
        b.task("in", "s").input(Value::str("payload"));
        b.task("x", "s").after(["in"]);
        b.task("y", "s").after(["in"]);
        b.task("out", "s").after(["x", "y"]);
        b.adaptation(
            "swap-x",
            ["x"],
            ["x"],
            [ReplacementTask::new("x'", "s", ["in"])],
        );
        b.build().unwrap()
    }

    #[test]
    fn reference_matches_hand_computation() {
        let input = Value::str("payload");
        let wf = reseed(&hand_dag(), &input);
        let d_in = digest(MAIN, &[input]);
        // x and y run the same service on the same input.
        let d_y = digest(MAIN, std::slice::from_ref(&d_in));
        let plain = expected(&wf, false);
        assert_eq!(plain["x"], d_y);
        assert_eq!(plain["out"], digest(MAIN, &[d_y.clone(), d_y.clone()]));
        assert!(!plain.contains_key("x'"));
        let d_xr = digest(REPLACEMENT, &[d_in]);
        let adapted = expected(&wf, true);
        assert_eq!(adapted["x'"], d_xr);
        assert_eq!(adapted["out"], digest(MAIN, &[d_y, d_xr]));
        assert!(!adapted.contains_key("x"));
    }

    #[test]
    fn reseed_keeps_shape_and_rigging() {
        let spec = AdaptiveDiamondSpec {
            h: 3,
            v: 2,
            main: Connectivity::Full,
            replacement: Connectivity::Full,
        };
        let wf = spec.build("s", FAILING).unwrap();
        let re = reseed(&wf, &seeded_input(7));
        assert_eq!(re.dag().len(), wf.dag().len());
        assert_eq!(re.dag().edge_count(), wf.dag().edge_count());
        assert_eq!(re.adaptations(), wf.adaptations());
        let rigged = re.dag().by_name(&spec.failing_task()).unwrap();
        assert_eq!(re.dag().task(rigged).service, FAILING);
        assert_eq!(
            re.dag().task(re.dag().by_name("r1_1").unwrap()).service,
            REPLACEMENT
        );
        assert_eq!(sinks(&re), vec!["out".to_owned()]);
        assert_ne!(seeded_input(1), seeded_input(2));
    }
}
