//! The worked example and counter-examples of the paper.
//!
//! Each constructor returns the application together with the execution
//! graph(s) discussed in the paper, so experiments can evaluate exactly the
//! instances used in the text (experiments E1–E4 of the `experiments`
//! binary; see the README's "Paper results reproduced").

use fsw_core::{Application, ExecutionGraph};

/// A paper instance: an application plus one or more named execution graphs.
#[derive(Clone, Debug)]
pub struct PaperInstance {
    /// Human-readable identifier (e.g. `"section-2.3"`).
    pub name: &'static str,
    /// The application (services and constraints).
    pub app: Application,
    /// Named execution graphs discussed by the paper for this instance.
    pub graphs: Vec<(&'static str, ExecutionGraph)>,
}

impl PaperInstance {
    /// The first graph registered (the "main" one for the instance).
    pub fn graph(&self) -> &ExecutionGraph {
        &self.graphs[0].1
    }

    /// Looks a named graph up.
    pub fn graph_named(&self, name: &str) -> Option<&ExecutionGraph> {
        self.graphs.iter().find(|(n, _)| *n == name).map(|(_, g)| g)
    }
}

/// Section 2.3: five services of cost 4 and selectivity 1, mapped on the
/// Figure 1 execution graph.
///
/// Reference values (paper): latency 21 for every model; optimal period 4
/// (OVERLAP), 7 (OUTORDER), 23/3 (INORDER).
pub fn section23() -> PaperInstance {
    let app = Application::independent(&[(4.0, 1.0); 5]);
    let graph = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
    PaperInstance {
        name: "section-2.3",
        app,
        graphs: vec![("figure-1", graph)],
    }
}

/// Appendix B.1 / Figure 4: the impact of communication costs on MINPERIOD.
///
/// 202 services: `C1`, `C2` with cost 100 and selectivity 0.9999, and 200
/// services with cost `100/0.9999` and selectivity 100.  Without
/// communication costs the optimal plan chains `C1 → C2` and hangs all the
/// expensive services below `C2` (period 100); with communication costs that
/// plan's period doubles (outgoing volume of `C2` ≈ 200) while the Figure 4
/// plan — each filter keeping 100 successors — still achieves 100.
pub fn counterexample_b1() -> PaperInstance {
    let mut specs = vec![(100.0, 0.9999), (100.0, 0.9999)];
    for _ in 0..200 {
        specs.push((100.0 / 0.9999, 100.0));
    }
    let app = Application::independent(&specs);
    let n = specs.len();

    // Figure 4: C1 feeds services 2..=101, C2 feeds services 102..=201.
    let mut fig4 = ExecutionGraph::new(n);
    for j in 2..102 {
        fig4.add_edge(0, j).unwrap();
    }
    for j in 102..202 {
        fig4.add_edge(1, j).unwrap();
    }

    // The no-communication optimal structure: C1 -> C2 -> everything else.
    let mut nocomm = ExecutionGraph::new(n);
    nocomm.add_edge(0, 1).unwrap();
    for j in 2..202 {
        nocomm.add_edge(1, j).unwrap();
    }

    PaperInstance {
        name: "counterexample-b1",
        app,
        graphs: vec![("figure-4", fig4), ("no-comm-chain", nocomm)],
    }
}

/// Appendix B.2 / Figure 5: one-port vs multi-port for the **latency**.
///
/// Twelve unit-cost services; `σ2 = σ3 = 2`, `σ4 = σ5 = σ6 = 3`, all other
/// selectivities 1.  The first six services each feed a subset of the last six
/// so that every sender has an outgoing volume of 6 and every receiver an
/// incoming volume of 6 (made of messages of sizes 1, 2 and 3).
/// Reference values: multi-port latency 20, one-port latency ≥ 21.
pub fn counterexample_b2() -> PaperInstance {
    let mut specs = vec![(1.0, 1.0); 12];
    specs[1].1 = 2.0;
    specs[2].1 = 2.0;
    specs[3].1 = 3.0;
    specs[4].1 = 3.0;
    specs[5].1 = 3.0;
    let app = Application::independent(&specs);
    let mut edges = Vec::new();
    // C1 (size-1 messages) feeds everybody.
    for j in 6..12 {
        edges.push((0usize, j));
    }
    // C2, C3 (size-2 messages) feed three receivers each.
    for j in 6..9 {
        edges.push((1, j));
    }
    for j in 9..12 {
        edges.push((2, j));
    }
    // C4, C5, C6 (size-3 messages) feed two receivers each.
    for j in [6, 7] {
        edges.push((3, j));
    }
    for j in [8, 9] {
        edges.push((4, j));
    }
    for j in [10, 11] {
        edges.push((5, j));
    }
    let graph = ExecutionGraph::from_edges(12, &edges).unwrap();
    PaperInstance {
        name: "counterexample-b2",
        app,
        graphs: vec![("figure-5", graph)],
    }
}

/// Appendix B.3 / Figure 6: one-port vs multi-port for the **period** (with
/// computation/communication overlap on both sides).
///
/// Eight services; `σ1 = σ2 = 3`, `σ3 = 4`, `σ4 = 2`, the rest 1.  Senders
/// `C1, C2` feed all four receivers, `C3, C4` feed `C5, C6, C7`, so that
/// `Cout(C1) = Cout(C2) = Cout(C3) = 12` and `Cin(C5) = Cin(C6) = Cin(C7) = 12`.
/// Reference values: multi-port period 12, one-port period > 12.
///
/// **Documented adaptation**: the paper sets every cost and
/// every second-layer selectivity to 1, which would make the computations and
/// final output transfers of `C5–C7` (input volume 72) dominate both models
/// and hide the communication phenomenon the example is about; we set the
/// receiver costs and selectivities to `1/6` so the sender/receiver
/// communication bound of 12 is binding, exactly as in the paper's discussion.
pub fn counterexample_b3() -> PaperInstance {
    let specs = vec![
        (1.0, 3.0),
        (1.0, 3.0),
        (1.0, 4.0),
        (1.0, 2.0),
        (1.0 / 6.0, 1.0 / 6.0),
        (1.0 / 6.0, 1.0 / 6.0),
        (1.0 / 6.0, 1.0 / 6.0),
        (1.0 / 6.0, 1.0 / 6.0),
    ];
    let app = Application::independent(&specs);
    let mut edges = Vec::new();
    for j in 4..8 {
        edges.push((0usize, j));
        edges.push((1, j));
    }
    for j in 4..7 {
        edges.push((2, j));
        edges.push((3, j));
    }
    let graph = ExecutionGraph::from_edges(8, &edges).unwrap();
    PaperInstance {
        name: "counterexample-b3",
        app,
        graphs: vec![("figure-6", graph)],
    }
}

/// A parametric fork-join instance (one source, `width` parallel services, one
/// sink), useful for scaling studies and as the shape of the Proposition 9
/// and 13 gadgets.
pub fn fork_join(width: usize, middle_cost: f64, middle_selectivity: f64) -> PaperInstance {
    let mut specs = vec![(1.0, 1.0)];
    for _ in 0..width {
        specs.push((middle_cost, middle_selectivity));
    }
    specs.push((1.0, 1.0));
    let app = Application::independent(&specs);
    let n = specs.len();
    let mut graph = ExecutionGraph::new(n);
    for i in 1..=width {
        graph.add_edge(0, i).unwrap();
        graph.add_edge(i, n - 1).unwrap();
    }
    PaperInstance {
        name: "fork-join",
        app,
        graphs: vec![("fork-join", graph)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_core::{CommModel, PlanMetrics};

    #[test]
    fn section23_bounds_match_paper() {
        let inst = section23();
        let m = PlanMetrics::compute(&inst.app, inst.graph()).unwrap();
        assert_eq!(m.period_lower_bound(CommModel::Overlap), 4.0);
        assert_eq!(m.period_lower_bound(CommModel::OutOrder), 7.0);
    }

    #[test]
    fn b1_graphs_have_the_paper_shape() {
        let inst = counterexample_b1();
        assert_eq!(inst.app.n(), 202);
        let fig4 = inst.graph_named("figure-4").unwrap();
        assert_eq!(fig4.succs(0).len(), 100);
        assert_eq!(fig4.succs(1).len(), 100);
        let nocomm = inst.graph_named("no-comm-chain").unwrap();
        assert_eq!(nocomm.succs(1).len(), 200);
        // Figure 4 keeps the period at 100 under OVERLAP, the chain doubles it.
        let m4 = PlanMetrics::compute(&inst.app, fig4).unwrap();
        assert!((m4.period_lower_bound(CommModel::Overlap) - 100.0).abs() < 0.02);
        let mc = PlanMetrics::compute(&inst.app, nocomm).unwrap();
        assert!(mc.period_lower_bound(CommModel::Overlap) > 199.0);
        // Without communications both plans achieve (almost exactly) 100.
        let comp_only = |m: &PlanMetrics| (0..202).map(|k| m.c_comp(k)).fold(0.0f64, f64::max);
        assert!((comp_only(&m4) - 100.0).abs() < 0.02);
        assert!((comp_only(&mc) - 100.0).abs() < 0.02);
    }

    #[test]
    fn b2_volumes_match_paper() {
        let inst = counterexample_b2();
        let m = PlanMetrics::compute(&inst.app, inst.graph()).unwrap();
        for i in 0..6 {
            assert!((m.c_out(i) - 6.0).abs() < 1e-12);
        }
        for j in 6..12 {
            assert!((m.c_in(j) - 6.0).abs() < 1e-12);
            assert!((m.c_comp(j) - 6.0).abs() < 1e-12);
        }
    }

    #[test]
    fn b3_volumes_match_paper() {
        let inst = counterexample_b3();
        let m = PlanMetrics::compute(&inst.app, inst.graph()).unwrap();
        for i in 0..3 {
            assert!(
                (m.c_out(i) - 12.0).abs() < 1e-12,
                "Cout({i}) = {}",
                m.c_out(i)
            );
        }
        assert!((m.c_out(3) - 6.0).abs() < 1e-12);
        for j in 4..7 {
            assert!((m.c_in(j) - 12.0).abs() < 1e-12, "Cin({j}) = {}", m.c_in(j));
        }
        assert!((m.c_in(7) - 6.0).abs() < 1e-12);
        // With the documented cost adaptation the multi-port bound is 12.
        assert!((m.period_lower_bound(CommModel::Overlap) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn fork_join_shape() {
        let inst = fork_join(4, 2.0, 0.5);
        assert_eq!(inst.app.n(), 6);
        let g = inst.graph();
        assert_eq!(g.succs(0).len(), 4);
        assert_eq!(g.preds(5).len(), 4);
        assert!(!g.is_forest());
    }
}
