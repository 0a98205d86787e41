//! The paper's NP-hardness reduction gadgets.
//!
//! Every hardness proof of the paper maps an RN3DM instance to a filtering
//! workflow; building the gadgets explicitly lets the experiments (E5–E7 of
//! the `experiments` binary) check, end to end, that the schedulers agree with the
//! theory: YES instances admit a plan/operation list within the reduction's
//! bound `K`, NO instances do not.
//!
//! Implemented gadgets:
//!
//! * Proposition 2 (period orchestration, `OUTORDER`/`INORDER`), Figure 9;
//! * Proposition 9 (latency orchestration, fork-join), Figure 12;
//! * Proposition 13 (MINLATENCY), fork-join with selectivities.
//!
//! The MINPERIOD gadgets of Propositions 5 and 6 use real-valued parameters
//! whose published values are garbled in the available text (OCR damage); they
//! are intentionally not reproduced — MINPERIOD
//! hardness is exercised through the orchestration gadget plus the structural
//! experiments instead.

use fsw_core::{Application, ExecutionGraph};

use crate::instance::Rn3dmInstance;

/// A reduction gadget: the workflow instance plus the decision bound `K`.
#[derive(Clone, Debug)]
pub struct Gadget {
    /// Short name (`"prop2"`, `"prop9"`, `"prop13"`).
    pub name: &'static str,
    /// The application of the gadget.
    pub app: Application,
    /// The execution graph the reduction argues about (for orchestration
    /// gadgets this graph is part of the instance; for MINLATENCY it is the
    /// intended optimal plan).
    pub graph: ExecutionGraph,
    /// The decision bound: the instance is a YES instance iff the relevant
    /// objective can reach `K`.
    pub bound: f64,
}

/// Proposition 2 / Figure 9: RN3DM ↦ "is there an `OUTORDER` operation list of
/// period at most `2n + 3` for this execution graph?".
///
/// Services (1-indexed in the paper, 0-indexed here):
/// `C1` (cost `n`) fans out to `C2, C4, …, C_{2n+2}` and to `C_{2n+4}`;
/// every even service (cost `2n+1`) feeds the next odd service
/// (cost `2n+1 − A[i]`, or `2n+1` for `C_{2n+3}`); all odd services and
/// `C_{2n+4}` feed `C_{2n+5}` (cost `n`).  All selectivities are 1.
pub fn prop2_period_outorder(instance: &Rn3dmInstance) -> Gadget {
    let n = instance.n();
    assert!(n >= 1, "the gadget needs n >= 1");
    let total = 2 * n + 5;
    let nf = n as f64;
    // Costs, using the paper's 1-based indexing internally for clarity.
    let mut costs = vec![0.0f64; total + 1];
    costs[1] = nf;
    costs[2 * n + 5] = nf;
    costs[2 * n + 3] = 2.0 * nf + 1.0;
    costs[2 * n + 4] = 2.0 * nf + 1.0;
    for i in 1..=(n + 1) {
        costs[2 * i] = 2.0 * nf + 1.0;
    }
    for i in 1..=n {
        costs[2 * i + 1] = 2.0 * nf + 1.0 - instance.a[i - 1] as f64;
    }
    let mut app = Application::new();
    for c in costs.iter().skip(1) {
        app.add_service(*c, 1.0);
    }
    // Edges (converting to 0-based indices).
    let idx = |one_based: usize| one_based - 1;
    let mut graph = ExecutionGraph::new(total);
    for i in 1..=(n + 1) {
        graph.add_edge(idx(1), idx(2 * i)).unwrap();
        graph.add_edge(idx(2 * i), idx(2 * i + 1)).unwrap();
        graph.add_edge(idx(2 * i + 1), idx(2 * n + 5)).unwrap();
    }
    graph.add_edge(idx(1), idx(2 * n + 4)).unwrap();
    graph.add_edge(idx(2 * n + 4), idx(2 * n + 5)).unwrap();
    Gadget {
        name: "prop2",
        app,
        graph,
        bound: 2.0 * nf + 3.0,
    }
}

/// Proposition 9 / Figure 12: RN3DM ↦ "is there a one-port operation list of
/// latency at most `n² + n + 4` for this fork-join execution graph?".
///
/// `C0` (cost 1) fans out to `C1..Cn` (cost `n − A[i] + n²`), which all feed
/// `C_{n+1}` (cost 1); all selectivities are 1.
pub fn prop9_latency_forkjoin(instance: &Rn3dmInstance) -> Gadget {
    let n = instance.n();
    assert!(n >= 1, "the gadget needs n >= 1");
    let nf = n as f64;
    let mut app = Application::new();
    app.add_service(1.0, 1.0);
    for i in 0..n {
        app.add_service(nf - instance.a[i] as f64 + nf * nf, 1.0);
    }
    app.add_service(1.0, 1.0);
    let mut graph = ExecutionGraph::new(n + 2);
    for i in 1..=n {
        graph.add_edge(0, i).unwrap();
        graph.add_edge(i, n + 1).unwrap();
    }
    Gadget {
        name: "prop9",
        app,
        graph,
        bound: nf * nf + nf + 4.0,
    }
}

/// Proposition 13: RN3DM ↦ MINLATENCY.
///
/// A fork service `F` with cost and selectivity `1/(20n)`, `n` middle services
/// with cost `10n − A[i]` and selectivity `1 − 1/(2n)`, and a join service `J`
/// with cost 1 and selectivity `200n² − 1`.  The paper's bound
/// `K = 1/2 + 10nσⁿ + 1/(20n)` excludes the initial input transfer (size
/// `δ0 = 1`), which this library always counts, so the returned bound is
/// `K + 1`.  The returned graph is the intended optimal fork-join plan.
pub fn prop13_minlatency(instance: &Rn3dmInstance) -> Gadget {
    let n = instance.n();
    assert!(n >= 2, "the gadget needs n >= 2");
    let nf = n as f64;
    let sigma = 1.0 - 1.0 / (2.0 * nf);
    let sf = 1.0 / (20.0 * nf);
    let mut app = Application::new();
    app.add_service(sf, sf); // F
    for i in 0..n {
        app.add_service(10.0 * nf - instance.a[i] as f64, sigma);
    }
    app.add_service(1.0, 200.0 * nf * nf - 1.0); // J
    let mut graph = ExecutionGraph::new(n + 2);
    for i in 1..=n {
        graph.add_edge(0, i).unwrap();
        graph.add_edge(i, n + 1).unwrap();
    }
    let bound = 0.5 + 10.0 * nf * sigma.powi(n as i32) + sf + 1.0;
    Gadget {
        name: "prop13",
        app,
        graph,
        bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{no_instance, yes_instance, Rn3dmInstance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prop2_gadget_shape() {
        let inst = Rn3dmInstance::new(vec![2, 4, 6]);
        let g = prop2_period_outorder(&inst);
        let n = 3;
        assert_eq!(g.app.n(), 2 * n + 5);
        assert_eq!(g.bound, (2 * n + 3) as f64);
        // C1 has n + 2 successors, C_{2n+5} has n + 2 predecessors.
        assert_eq!(g.graph.succs(0).len(), n + 2);
        assert_eq!(g.graph.preds(2 * n + 4).len(), n + 2);
        g.app.validate().unwrap();
        // Per-server work: C1, C_{2n+2}, C_{2n+3}, C_{2n+4}, C_{2n+5} and all
        // even services are saturated at exactly 2n+3; odd services have slack.
        let metrics = fsw_core::PlanMetrics::compute(&g.app, &g.graph).unwrap();
        let exec = |k: usize| metrics.c_in(k) + metrics.c_comp(k) + metrics.c_out(k);
        assert_eq!(exec(0), g.bound);
        assert_eq!(exec(2 * n + 4), g.bound);
        for i in 1..=n {
            assert_eq!(exec(2 * i - 1), g.bound);
            assert_eq!(exec(2 * i), g.bound - inst.a[i - 1] as f64);
        }
    }

    #[test]
    fn prop9_gadget_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let (inst, _) = yes_instance(4, &mut rng);
        let g = prop9_latency_forkjoin(&inst);
        assert_eq!(g.app.n(), 6);
        assert_eq!(g.bound, 4.0 * 4.0 + 4.0 + 4.0);
        assert!(!g.graph.is_forest());
        g.app.validate().unwrap();
    }

    #[test]
    fn prop13_gadget_shape() {
        let inst = Rn3dmInstance::new(vec![2, 4, 6]);
        let g = prop13_minlatency(&inst);
        assert_eq!(g.app.n(), 5);
        assert!(g.app.service(0).selectivity < 1.0);
        assert!(g.app.service(4).is_expander());
        g.app.validate().unwrap();
        assert!(g.bound > 1.0);
    }

    #[test]
    fn no_instances_produce_well_formed_gadgets_too() {
        let mut rng = StdRng::seed_from_u64(4);
        if let Some(inst) = no_instance(4, 500, &mut rng) {
            let g2 = prop2_period_outorder(&inst);
            g2.app.validate().unwrap();
            let g9 = prop9_latency_forkjoin(&inst);
            g9.app.validate().unwrap();
        }
    }
}
