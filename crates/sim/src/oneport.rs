//! Event-driven simulation of the one-port `INORDER` execution.
//!
//! Every server cycles through its operation sequence — receptions in a fixed
//! order, computation, emissions in a fixed order — one data set at a time;
//! service-to-service transfers are synchronous rendezvous (they start when
//! *both* endpoints have reached that operation and occupy both servers for
//! the whole transfer).  The simulation is greedy (self-timed): every
//! operation starts as soon as its server(s) allow it.
//!
//! The steady-state period measured here must match the maximum cycle ratio
//! computed analytically by `fsw-sched`/`fsw-eventgraph` for the same
//! orderings — that cross-validation is one of the main integration tests of
//! the workspace.

use fsw_core::{Application, CoreError, CoreResult, EdgeRef, ExecutionGraph, PlanMetrics};
use fsw_sched::CommOrderings;

use crate::measure::SimReport;

/// One operation of a server's per-data-set sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ServerOp {
    Recv(EdgeRef),
    Calc,
    Send(EdgeRef),
}

/// Runs the greedy `INORDER` execution of `data_sets` consecutive data sets.
///
/// All data sets are available at time 0 at the input node (the source is
/// never the bottleneck), so the measured period is the intrinsic throughput
/// bound of the plan and the first completion time is the latency of the plan
/// when a single data set is processed in isolation... as long as it is not
/// slowed down by back-pressure, which `INORDER` never does for data set 0.
pub fn simulate_inorder(
    app: &Application,
    graph: &ExecutionGraph,
    ords: &CommOrderings,
    data_sets: usize,
) -> CoreResult<SimReport> {
    if !ords.is_consistent_with(graph) {
        return Err(CoreError::SizeMismatch {
            expected: graph.n(),
            found: ords.n(),
        });
    }
    let metrics = PlanMetrics::compute(app, graph)?;
    let n = graph.n();
    if n == 0 || data_sets == 0 {
        return Ok(SimReport::from_completions(Vec::new()));
    }

    // Per-server operation sequence for one data set.
    let mut seqs: Vec<Vec<ServerOp>> = Vec::with_capacity(n);
    for k in 0..n {
        let mut seq = Vec::new();
        for e in &ords.incoming[k] {
            seq.push(ServerOp::Recv(*e));
        }
        seq.push(ServerOp::Calc);
        for e in &ords.outgoing[k] {
            seq.push(ServerOp::Send(*e));
        }
        seqs.push(seq);
    }

    // Per-server cursor: (data set index, position in the sequence) and the
    // time at which the server becomes available for its next operation.
    let mut ds = vec![0usize; n];
    let mut pos = vec![0usize; n];
    let mut avail = vec![0.0f64; n];
    let mut completions = vec![0.0f64; data_sets];
    let mut done = vec![false; n];

    let duration = |k: usize, op: &ServerOp| -> f64 {
        match op {
            ServerOp::Calc => metrics.c_comp(k),
            ServerOp::Recv(e) | ServerOp::Send(e) => metrics.edge_volume(app, *e),
        }
    };

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for k in 0..n {
            if done[k] {
                continue;
            }
            all_done = false;
            let op = seqs[k][pos[k]];
            let executed = match op {
                ServerOp::Calc
                | ServerOp::Recv(EdgeRef::Input(_))
                | ServerOp::Send(EdgeRef::Output(_)) => {
                    // Local operation: the server alone decides.
                    let start = avail[k];
                    let end = start + duration(k, &op);
                    avail[k] = end;
                    completions[ds[k]] = completions[ds[k]].max(end);
                    true
                }
                ServerOp::Recv(EdgeRef::Link(i, _)) | ServerOp::Send(EdgeRef::Link(_, i)) => {
                    // Rendezvous: the peer must have reached the same transfer
                    // for the same data set.
                    let peer = match op {
                        ServerOp::Recv(EdgeRef::Link(i, _)) => i,
                        ServerOp::Send(EdgeRef::Link(_, j)) => j,
                        _ => unreachable!(),
                    };
                    let _ = i;
                    let peer_ready = !done[peer]
                        && ds[peer] == ds[k]
                        && matches!(
                            (seqs[peer][pos[peer]], op),
                            (ServerOp::Send(a), ServerOp::Recv(b)) if a == b
                        ) | matches!(
                            (seqs[peer][pos[peer]], op),
                            (ServerOp::Recv(a), ServerOp::Send(b)) if a == b
                        );
                    if peer_ready {
                        let start = avail[k].max(avail[peer]);
                        let end = start + duration(k, &op);
                        avail[k] = end;
                        avail[peer] = end;
                        completions[ds[k]] = completions[ds[k]].max(end);
                        // Advance the peer past this transfer too.
                        advance(
                            &mut ds[peer],
                            &mut pos[peer],
                            &mut done[peer],
                            seqs[peer].len(),
                            data_sets,
                        );
                        true
                    } else {
                        false
                    }
                }
                ServerOp::Recv(EdgeRef::Output(_)) | ServerOp::Send(EdgeRef::Input(_)) => {
                    unreachable!("input edges are received, output edges are sent")
                }
            };
            if executed {
                advance(
                    &mut ds[k],
                    &mut pos[k],
                    &mut done[k],
                    seqs[k].len(),
                    data_sets,
                );
                progressed = true;
            }
        }
        if all_done {
            break;
        }
        if !progressed {
            // The rendezvous orders are mutually inconsistent: deadlock.
            return Err(CoreError::CyclicGraph);
        }
    }
    Ok(SimReport::from_completions(completions))
}

fn advance(ds: &mut usize, pos: &mut usize, done: &mut bool, seq_len: usize, data_sets: usize) {
    *pos += 1;
    if *pos == seq_len {
        *pos = 0;
        *ds += 1;
        if *ds == data_sets {
            *done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_sched::oneport::inorder_period_for_orderings;

    fn section23() -> (Application, ExecutionGraph) {
        let app = Application::independent(&[(4.0, 1.0); 5]);
        let g = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
        (app, g)
    }

    #[test]
    fn chain_simulation_matches_closed_form() {
        let app = Application::independent(&[(2.0, 0.5), (3.0, 2.0), (1.0, 1.0)]);
        let g = ExecutionGraph::chain_of(3, &[0, 1, 2]).unwrap();
        let ords = CommOrderings::natural(&g);
        let report = simulate_inorder(&app, &g, &ords, 64).unwrap();
        let analytic = inorder_period_for_orderings(&app, &g, &ords).unwrap();
        assert!(
            (report.period - analytic).abs() < 1e-6,
            "{report:?} vs {analytic}"
        );
        // Latency of the first data set on the chain:
        // 1 (in) + 2 (C1) + 0.5 + 1.5 (C2) + 1 + 1 (C3) + 1 (out) = 8.
        assert!((report.first_latency - 8.0).abs() < 1e-9);
    }

    #[test]
    fn section23_simulation_matches_event_graph_analysis() {
        let (app, g) = section23();
        let space = fsw_sched::OrderingSpace::new(&g, 100).unwrap();
        for ords in (0..space.len()).map(|i| space.get(i)) {
            let analytic = inorder_period_for_orderings(&app, &g, &ords).unwrap();
            let report = simulate_inorder(&app, &g, &ords, 400).unwrap();
            // Self-timed executions of a marked graph become periodic after a
            // transient, possibly with a cyclicity larger than one data set, so
            // the measured slope carries a small sampling error.
            assert!(
                (report.period - analytic).abs() < 0.05,
                "ordering {ords:?}: simulated {} vs analytic {analytic}",
                report.period
            );
        }
    }

    #[test]
    fn first_data_set_latency_matches_latency_module() {
        let (app, g) = section23();
        let ords = CommOrderings::natural(&g);
        let (latency, _) = fsw_sched::oneport_latency_for_orderings(&app, &g, &ords).unwrap();
        let report = simulate_inorder(&app, &g, &ords, 8).unwrap();
        assert!((report.first_latency - latency).abs() < 1e-9);
    }

    #[test]
    fn empty_and_trivial_runs() {
        let (app, g) = section23();
        let ords = CommOrderings::natural(&g);
        let empty = simulate_inorder(&app, &g, &ords, 0).unwrap();
        assert_eq!(empty.data_sets(), 0);
        let single = simulate_inorder(&app, &g, &ords, 1).unwrap();
        assert_eq!(single.data_sets(), 1);
        assert!(single.first_latency > 0.0);
    }

    #[test]
    fn inconsistent_orderings_rejected() {
        let (app, g) = section23();
        let other = ExecutionGraph::from_edges(5, &[(0, 1)]).unwrap();
        let ords = CommOrderings::natural(&other);
        assert!(simulate_inorder(&app, &g, &ords, 4).is_err());
    }
}
