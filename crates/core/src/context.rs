//! Shared precomputation: the constant operators every model trains against.
//!
//! SIGMA's central efficiency claim is that its aggregation operator is
//! computed *once*, before training, and reused unchanged by every epoch.
//! [`GraphContext`] owns that precomputation for all models: the raw and
//! normalized adjacency matrices, the optional top-k SimRank operator, the
//! optional top-k PPR operator, and 2-hop operators, together with the time
//! each one took (reported in the paper's Table VII as "Pre.").

use crate::{Result, SigmaError};
use sigma_datasets::Dataset;
use sigma_graph::{adjacency_power, sym_normalized_adjacency};
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_simrank::{topk_ppr_matrix, LocalPush, PprConfig, SimRankConfig};
use std::time::{Duration, Instant};

/// Wall-clock timings of the precomputation stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrecomputeTimings {
    /// Time spent building the SimRank operator (LocalPush + top-k).
    pub simrank: Duration,
    /// Time spent building the PPR operator (forward push + top-k).
    pub ppr: Duration,
    /// Time spent building adjacency normalizations and powers.
    pub operators: Duration,
}

impl PrecomputeTimings {
    /// Total precomputation time.
    pub fn total(&self) -> Duration {
        self.simrank + self.ppr + self.operators
    }
}

/// Precomputed, immutable state shared by every model during training.
#[derive(Debug, Clone)]
pub struct GraphContext {
    dataset: Dataset,
    adjacency: CsrMatrix,
    sym_adj: CsrMatrix,
    row_adj: CsrMatrix,
    two_hop: Option<CsrMatrix>,
    simrank: Option<CsrMatrix>,
    ppr: Option<CsrMatrix>,
    timings: PrecomputeTimings,
    threads: usize,
}

impl GraphContext {
    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Node features `X` (`n × f`).
    pub fn features(&self) -> &DenseMatrix {
        &self.dataset.features
    }

    /// Node labels.
    pub fn labels(&self) -> &[usize] {
        &self.dataset.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.dataset.num_classes
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.dataset.num_nodes()
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.dataset.feature_dim()
    }

    /// Binary adjacency matrix `A`.
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// Symmetrically normalized adjacency with self loops `Â`.
    pub fn sym_adj(&self) -> &CsrMatrix {
        &self.sym_adj
    }

    /// Row-normalized adjacency (random-walk transition matrix) `P`.
    pub fn row_adj(&self) -> &CsrMatrix {
        &self.row_adj
    }

    /// 2-hop operator `Â²`, if precomputed.
    pub fn two_hop(&self) -> Option<&CsrMatrix> {
        self.two_hop.as_ref()
    }

    /// The SimRank aggregation operator `S`, if precomputed.
    pub fn simrank(&self) -> Option<&CsrMatrix> {
        self.simrank.as_ref()
    }

    /// The PPR operator `Π_ppr`, if precomputed.
    pub fn ppr(&self) -> Option<&CsrMatrix> {
        self.ppr.as_ref()
    }

    /// Returns the SimRank operator or a [`SigmaError::MissingOperator`].
    pub fn require_simrank(&self, model: &'static str) -> Result<&CsrMatrix> {
        self.simrank.as_ref().ok_or(SigmaError::MissingOperator {
            operator: "simrank",
            model,
        })
    }

    /// Returns the PPR operator or a [`SigmaError::MissingOperator`].
    pub fn require_ppr(&self, model: &'static str) -> Result<&CsrMatrix> {
        self.ppr.as_ref().ok_or(SigmaError::MissingOperator {
            operator: "ppr",
            model,
        })
    }

    /// Returns the 2-hop operator or a [`SigmaError::MissingOperator`].
    pub fn require_two_hop(&self, model: &'static str) -> Result<&CsrMatrix> {
        self.two_hop.as_ref().ok_or(SigmaError::MissingOperator {
            operator: "two_hop",
            model,
        })
    }

    /// Precomputation timings.
    pub fn timings(&self) -> PrecomputeTimings {
        self.timings
    }

    /// The shared-pool thread count this context was precomputed with.
    ///
    /// Every model training against the context inherits it implicitly: the
    /// hot kernels (`spmm`, `spmm_transpose`, GEMM, LocalPush) all dispatch
    /// onto the global [`sigma_parallel::ThreadPool`], whose results are
    /// bitwise identical at any thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Builder for [`GraphContext`], controlling which operators are precomputed.
#[derive(Debug)]
pub struct ContextBuilder {
    dataset: Dataset,
    simrank_config: Option<SimRankConfig>,
    simrank_operator: Option<CsrMatrix>,
    ppr_config: Option<PprConfig>,
    with_two_hop: bool,
    threads: Option<usize>,
}

impl ContextBuilder {
    /// Starts building a context for `dataset`.
    pub fn new(dataset: Dataset) -> Self {
        Self {
            dataset,
            simrank_config: None,
            simrank_operator: None,
            ppr_config: None,
            with_two_hop: false,
            threads: None,
        }
    }

    /// Sets the shared-pool thread count used for precomputation *and* by
    /// every model trained against this context (the kernels dispatch onto
    /// the process-wide [`sigma_parallel::ThreadPool`], so no per-model
    /// change is needed). Without this call the pool keeps its current size
    /// (`SIGMA_NUM_THREADS` or the core count).
    ///
    /// This is a convenience over [`sigma_parallel::set_global_threads`]:
    /// the setting is **process-global** and stays in effect after `build`
    /// (it is not scoped to this context). Kernel results are bitwise
    /// identical at any thread count, so it only changes throughput.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Enables SimRank precomputation with the paper's defaults
    /// (`c = 0.6`, `ε = 0.1`) and the given top-k.
    pub fn with_simrank_topk(mut self, top_k: usize) -> Self {
        self.simrank_config = Some(SimRankConfig::default().with_top_k(top_k));
        self
    }

    /// Enables SimRank precomputation with a custom configuration.
    pub fn with_simrank(mut self, config: SimRankConfig) -> Self {
        self.simrank_config = Some(config);
        self
    }

    /// Uses an externally computed aggregation operator instead of running
    /// LocalPush. Any `n × n` operator is accepted: a SIGMA model trained on
    /// this context aggregates with it. It is the integration point for
    /// [`sigma_simrank::DynamicSimRank`], which maintains the operator across
    /// graph edits (see the `dynamic_graph` example), and for ablation
    /// operators such as `S·A` or a top-k PPR matrix (see the
    /// `ablation_study` example). It takes precedence over any configured
    /// precomputation.
    pub fn with_simrank_operator(mut self, operator: CsrMatrix) -> Self {
        self.simrank_operator = Some(operator);
        self
    }

    /// Enables PPR precomputation (PPRGo baseline, Fig. 1(b) comparison).
    pub fn with_ppr(mut self, config: PprConfig) -> Self {
        self.ppr_config = Some(config);
        self
    }

    /// Enables the 2-hop operator `Â²` (H2GCN, MixHop).
    pub fn with_two_hop(mut self) -> Self {
        self.with_two_hop = true;
        self
    }

    /// Runs the precomputation and returns the context.
    pub fn build(self) -> Result<GraphContext> {
        if let Some(threads) = self.threads {
            sigma_parallel::set_global_threads(threads);
        }
        let threads = sigma_parallel::current_threads();
        let mut timings = PrecomputeTimings::default();

        let op_start = Instant::now();
        let adjacency = self.dataset.graph.to_adjacency();
        let sym_adj = sym_normalized_adjacency(&self.dataset.graph);
        let row_adj = sigma_graph::row_normalized_adjacency(&self.dataset.graph);
        let two_hop = if self.with_two_hop {
            Some(adjacency_power(&sym_adj, 2)?)
        } else {
            None
        };
        timings.operators = op_start.elapsed();

        let simrank = match (self.simrank_operator, self.simrank_config) {
            (Some(operator), _) => {
                if operator.shape() != (self.dataset.num_nodes(), self.dataset.num_nodes()) {
                    return Err(SigmaError::InvalidHyperParameter {
                        name: "simrank_operator",
                        reason: format!(
                            "operator shape {:?} does not match node count {}",
                            operator.shape(),
                            self.dataset.num_nodes()
                        ),
                    });
                }
                Some(operator)
            }
            (None, Some(cfg)) => {
                let start = Instant::now();
                let operator = LocalPush::new(&self.dataset.graph, cfg)?.run_to_operator();
                timings.simrank = start.elapsed();
                Some(operator)
            }
            (None, None) => None,
        };

        let ppr = match self.ppr_config {
            Some(cfg) => {
                let start = Instant::now();
                let operator = topk_ppr_matrix(&self.dataset.graph, &cfg)?;
                timings.ppr = start.elapsed();
                Some(operator)
            }
            None => None,
        };

        Ok(GraphContext {
            dataset: self.dataset,
            adjacency,
            sym_adj,
            row_adj,
            two_hop,
            simrank,
            ppr,
            timings,
            threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_datasets::GeneratorConfig;

    fn small_dataset() -> Dataset {
        sigma_datasets::generate(&GeneratorConfig::new(60, 5.0, 3, 8).with_homophily(0.3), 0)
            .unwrap()
    }

    #[test]
    fn base_context_has_normalized_operators() {
        let ctx = ContextBuilder::new(small_dataset()).build().unwrap();
        assert_eq!(ctx.num_nodes(), 60);
        assert_eq!(ctx.feature_dim(), 8);
        assert_eq!(ctx.num_classes(), 3);
        assert_eq!(ctx.adjacency().shape(), (60, 60));
        assert_eq!(ctx.sym_adj().shape(), (60, 60));
        // Row-normalized adjacency rows sum to one (for non-isolated nodes).
        for (v, sum) in ctx.row_adj().row_sums().iter().enumerate() {
            if ctx.dataset().graph.degree(v) > 0 {
                assert!((sum - 1.0).abs() < 1e-4);
            }
        }
        assert!(ctx.simrank().is_none());
        assert!(ctx.ppr().is_none());
        assert!(ctx.two_hop().is_none());
    }

    #[test]
    fn optional_operators_are_built_on_request() {
        let ctx = ContextBuilder::new(small_dataset())
            .with_simrank_topk(8)
            .with_ppr(PprConfig {
                top_k: Some(8),
                ..PprConfig::default()
            })
            .with_two_hop()
            .build()
            .unwrap();
        let s = ctx.require_simrank("test").unwrap();
        assert_eq!(s.shape(), (60, 60));
        for u in 0..60 {
            assert!(s.row_nnz(u) <= 8);
        }
        assert!(ctx.require_ppr("test").is_ok());
        assert!(ctx.require_two_hop("test").is_ok());
        assert!(ctx.timings().simrank > Duration::ZERO);
        assert!(ctx.timings().total() >= ctx.timings().simrank);
    }

    #[test]
    fn external_simrank_operator_is_used_verbatim() {
        let data = small_dataset();
        let n = data.num_nodes();
        let identity = CsrMatrix::identity(n);
        let ctx = ContextBuilder::new(data)
            .with_simrank_operator(identity)
            .build()
            .unwrap();
        let s = ctx.require_simrank("test").unwrap();
        assert_eq!(s.nnz(), n);
        // No LocalPush ran, so no SimRank precomputation time was recorded.
        assert_eq!(ctx.timings().simrank, Duration::ZERO);

        // A mis-shaped operator is rejected.
        let err = ContextBuilder::new(small_dataset())
            .with_simrank_operator(CsrMatrix::identity(3))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("simrank_operator"));
    }

    #[test]
    fn missing_operator_errors_name_the_model() {
        let ctx = ContextBuilder::new(small_dataset()).build().unwrap();
        let err = ctx.require_simrank("SIGMA").unwrap_err();
        assert!(err.to_string().contains("SIGMA"));
        assert!(ctx.require_ppr("PPRGo").is_err());
        assert!(ctx.require_two_hop("H2GCN").is_err());
    }
}
