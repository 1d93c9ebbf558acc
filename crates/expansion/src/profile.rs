//! End-to-end expansion profiling of a graph.
//!
//! [`ExpansionProfile::measure`] computes, through one shared
//! [`MeasurementEngine`], everything the experiments need to compare a graph
//! against the paper's bounds: the (estimated or exact) ordinary, unique and
//! wireless expansions with witnesses, degree statistics, arboricity bounds,
//! the spectral gap (when affordable), and the Theorem 1.1 / Theorem 1.2
//! reference values.
//!
//! All three expansion minima run over one candidate pool through the
//! engine's per-worker [`wx_graph::NeighborhoodScratch`] pool, so a profile
//! sweep reuses the same scratch spaces across every candidate of every
//! measure — see the [`crate::engine`] performance notes.

use crate::engine::{MeasureStrategy, Measurement, MeasurementEngine, Wireless};
use crate::sampling::SamplerConfig;
use serde::{Deserialize, Serialize};
use wx_graph::arboricity::{arboricity_bounds, ArboricityBounds};
use wx_graph::degree::DegreeStats;
use wx_graph::Graph;

/// How the expansion minima should be computed. Construct via
/// [`ProfileConfig::builder`] (the struct is non-exhaustive so new knobs can
/// be added without breaking callers):
///
/// ```
/// use wx_expansion::ProfileConfig;
/// let cfg = ProfileConfig::builder().alpha(0.5).exact_up_to(14).build();
/// assert_eq!(cfg.exact_up_to, 14);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ProfileConfig {
    /// The `α` bound on candidate-set sizes (fraction of `n`).
    pub alpha: f64,
    /// Use exact enumeration when the graph has at most this many vertices.
    pub exact_up_to: usize,
    /// Sampler settings used above the exact threshold.
    pub random_sets_per_size: usize,
    /// Number of BFS-ball centers in the sampler.
    pub ball_centers: usize,
    /// Number of adversarial greedy growths in the sampler.
    pub greedy_growths: usize,
    /// Compute `λ₂` (and so the spectral gap) when the graph is regular and
    /// has at most this many vertices.
    pub spectral_up_to: usize,
    /// Seed for all randomized components.
    pub seed: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            alpha: 0.5,
            exact_up_to: 14,
            random_sets_per_size: 16,
            ball_centers: 8,
            greedy_growths: 4,
            spectral_up_to: 1024,
            seed: 0xC0FFEE,
        }
    }
}

/// Builder for [`ProfileConfig`].
#[derive(Clone, Debug)]
pub struct ProfileConfigBuilder {
    cfg: ProfileConfig,
}

impl ProfileConfigBuilder {
    /// Sets the `α` size bound.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.cfg.alpha = alpha;
        self
    }
    /// Sets the exhaustive-enumeration threshold.
    pub fn exact_up_to(mut self, n: usize) -> Self {
        self.cfg.exact_up_to = n;
        self
    }
    /// Sets the number of uniform random sets per target size.
    pub fn random_sets_per_size(mut self, n: usize) -> Self {
        self.cfg.random_sets_per_size = n;
        self
    }
    /// Sets the number of BFS-ball centers.
    pub fn ball_centers(mut self, n: usize) -> Self {
        self.cfg.ball_centers = n;
        self
    }
    /// Sets the number of adversarial greedy growths.
    pub fn greedy_growths(mut self, n: usize) -> Self {
        self.cfg.greedy_growths = n;
        self
    }
    /// Sets the size cap for computing `λ₂`.
    pub fn spectral_up_to(mut self, n: usize) -> Self {
        self.cfg.spectral_up_to = n;
        self
    }
    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }
    /// Finishes the builder.
    pub fn build(self) -> ProfileConfig {
        self.cfg
    }
}

impl ProfileConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> ProfileConfigBuilder {
        ProfileConfigBuilder {
            cfg: ProfileConfig::default(),
        }
    }

    /// Turns this configuration back into a builder, for tweaking a preset
    /// (e.g. `ProfileConfig::light(0.5).to_builder().exact_up_to(12).build()`).
    pub fn to_builder(self) -> ProfileConfigBuilder {
        ProfileConfigBuilder { cfg: self }
    }

    /// A faster configuration for benches and sweeps over many graphs.
    pub fn light(alpha: f64) -> Self {
        ProfileConfig::builder()
            .alpha(alpha)
            .exact_up_to(10)
            .random_sets_per_size(4)
            .ball_centers(3)
            .greedy_growths(2)
            .spectral_up_to(256)
            .build()
    }

    fn sampler(&self) -> SamplerConfig {
        SamplerConfig {
            alpha: self.alpha,
            random_sets_per_size: self.random_sets_per_size,
            size_fractions: vec![0.1, 0.25, 0.5, 0.75, 1.0],
            ball_centers: self.ball_centers,
            greedy_growths: self.greedy_growths,
        }
    }

    /// The [`MeasurementEngine`] this configuration describes. All profile
    /// measurements run through this engine; building it yourself gives
    /// access to the same candidate pool and per-measure control.
    pub fn engine(&self) -> MeasurementEngine {
        MeasurementEngine::builder()
            .alpha(self.alpha)
            .strategy(MeasureStrategy::Auto {
                exact_up_to: self.exact_up_to,
            })
            .sampler(self.sampler())
            .seed(self.seed)
            .build()
    }
}

/// A single measured expansion quantity (value + witness size), serializable
/// for experiment reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MeasuredExpansion {
    /// The measured ratio.
    pub value: f64,
    /// Size of the witness set attaining it.
    pub witness_size: usize,
    /// Whether the value is exact (exhaustive enumeration) or an estimate.
    pub exact: bool,
}

impl MeasuredExpansion {
    fn from_measurement(m: &Measurement) -> Self {
        MeasuredExpansion {
            value: m.value,
            witness_size: m.witness.len(),
            exact: m.exact,
        }
    }
}

/// The complete expansion profile of a graph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExpansionProfile {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// Maximum degree `Δ`.
    pub max_degree: usize,
    /// Degree statistics of the whole graph.
    pub degree_stats: DegreeStats,
    /// Arboricity bounds (degeneracy sandwich).
    pub arboricity: ArboricityBounds,
    /// The `α` used for all three expansion minima.
    pub alpha: f64,
    /// Ordinary expansion `β`.
    pub ordinary: MeasuredExpansion,
    /// Unique-neighbor expansion `βu`.
    pub unique: MeasuredExpansion,
    /// Wireless expansion `βw` (portfolio-certified when not exact).
    pub wireless: MeasuredExpansion,
    /// Second adjacency eigenvalue, when computed (regular graphs only).
    pub lambda2: Option<f64>,
    /// Theorem 1.1 reference value `β/log₂(2·min{Δ/β, Δβ})` evaluated at the
    /// measured `β`.
    pub theorem_1_1_reference: f64,
    /// Lemma 3.2 reference value `2β − Δ` evaluated at the measured `β`.
    pub lemma_3_2_reference: f64,
    /// The ratio `β / βw` (the "wireless loss"); 1.0 means no loss.
    pub wireless_loss: f64,
}

impl ExpansionProfile {
    /// Measures the full profile of `g` under `config`.
    pub fn measure(g: &Graph, config: &ProfileConfig) -> Self {
        let n = g.num_vertices();
        let engine = config.engine();
        let wireless_measure = Wireless::default();

        let (ordinary, unique, wireless) = match engine.measure_all(g, &wireless_measure) {
            Some(triple) => (
                MeasuredExpansion::from_measurement(&triple.ordinary),
                MeasuredExpansion::from_measurement(&triple.unique),
                MeasuredExpansion::from_measurement(&triple.wireless),
            ),
            None => {
                let zero = MeasuredExpansion {
                    value: 0.0,
                    witness_size: 0,
                    exact: false,
                };
                (zero.clone(), zero.clone(), zero)
            }
        };

        let max_degree = g.max_degree();
        let lambda2 = if n > 0 && n <= config.spectral_up_to && g.is_regular(max_degree) {
            Some(crate::spectral::second_eigenvalue(g, config.seed))
        } else {
            None
        };

        let beta = ordinary.value;
        let theorem_1_1_reference = wx_spokesman::bounds::theorem_1_1_lower_bound(max_degree, beta);
        let lemma_3_2_reference = wx_spokesman::bounds::lemma_3_2_unique_bound(max_degree, beta);
        let wireless_loss = if wireless.value > 0.0 {
            beta / wireless.value
        } else {
            f64::INFINITY
        };

        ExpansionProfile {
            num_vertices: n,
            num_edges: g.num_edges(),
            max_degree,
            degree_stats: DegreeStats::of_graph(g),
            arboricity: arboricity_bounds(g),
            alpha: config.alpha,
            ordinary,
            unique,
            wireless,
            lambda2,
            theorem_1_1_reference,
            lemma_3_2_reference,
            wireless_loss,
        }
    }

    /// `true` if the measured values satisfy Observation 2.1
    /// (`β ≥ βw ≥ βu`), within a small tolerance.
    pub fn satisfies_observation_2_1(&self) -> bool {
        self.ordinary.value + 1e-9 >= self.wireless.value
            && self.wireless.value + 1e-9 >= self.unique.value
    }

    /// `true` if the measured wireless expansion clears the Theorem 1.1
    /// reference value scaled by `constant` (e.g. 0.25 for a conservative
    /// constant in small-instance tests).
    pub fn satisfies_theorem_1_1(&self, constant: f64) -> bool {
        self.wireless.value + 1e-9 >= constant * self.theorem_1_1_reference
    }

    /// One-line textual summary for logs and example programs.
    pub fn summary(&self) -> String {
        format!(
            "n={} m={} Δ={} | β={:.3} βu={:.3} βw={:.3} (loss {:.2}x) | thm1.1 ref {:.3}",
            self.num_vertices,
            self.num_edges,
            self.max_degree,
            self.ordinary.value,
            self.unique.value,
            self.wireless.value,
            self.wireless_loss,
            self.theorem_1_1_reference
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wx_graph::GraphBuilder;

    fn complete_plus(k: usize) -> Graph {
        let mut b = GraphBuilder::new(k + 1);
        for i in 0..k {
            for j in (i + 1)..k {
                b.add_edge(i, j).unwrap();
            }
        }
        b.add_edge(k, 0).unwrap();
        b.add_edge(k, 1).unwrap();
        b.build()
    }

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    #[test]
    fn exact_profile_of_small_graph() {
        let g = complete_plus(6);
        let p = ExpansionProfile::measure(&g, &ProfileConfig::default());
        assert!(p.ordinary.exact && p.unique.exact && p.wireless.exact);
        assert!(p.satisfies_observation_2_1());
        // C⁺: unique expansion collapses to zero but wireless stays positive.
        assert_eq!(p.unique.value, 0.0);
        assert!(p.wireless.value > 0.0);
        assert!(p.wireless_loss.is_finite());
        assert!(p.summary().contains("βw"));
    }

    #[test]
    fn sampled_profile_of_larger_graph() {
        let g = cycle(40);
        let cfg = ProfileConfig::light(0.5)
            .to_builder()
            .exact_up_to(10)
            .build();
        let p = ExpansionProfile::measure(&g, &cfg);
        assert!(!p.ordinary.exact);
        assert!(p.satisfies_observation_2_1());
        // a cycle's expansion estimate should find an arc: β ≈ 2/|arc| ≤ 0.5
        assert!(p.ordinary.value <= 0.6);
        assert!(p.wireless.value > 0.0);
    }

    #[test]
    fn sequential_profile_matches_parallel() {
        // the profile always evaluates candidates in parallel; a sequential
        // engine with the same configuration finds the same three minima
        let g = cycle(24);
        let cfg = ProfileConfig::builder().exact_up_to(10).build();
        assert!(cfg.engine().parallel());
        let par = ExpansionProfile::measure(&g, &cfg);
        let seq = MeasurementEngine::builder()
            .alpha(cfg.alpha)
            .strategy(MeasureStrategy::Auto {
                exact_up_to: cfg.exact_up_to,
            })
            .sampler(cfg.sampler())
            .seed(cfg.seed)
            .parallel(false)
            .build()
            .measure_all(&g, &Wireless::default())
            .unwrap();
        assert_eq!(par.ordinary.value, seq.ordinary.value);
        assert_eq!(par.unique.value, seq.unique.value);
        assert_eq!(par.wireless.value, seq.wireless.value);
        assert_eq!(par.wireless.witness_size, seq.wireless.witness.len());
    }

    #[test]
    fn profile_detects_regular_graph_spectrum() {
        let g = cycle(12);
        let p = ExpansionProfile::measure(&g, &ProfileConfig::default());
        let l2 = p.lambda2.expect("cycle is regular and small");
        assert!((l2 - 2.0 * (2.0 * std::f64::consts::PI / 12.0).cos()).abs() < 1e-6);
        // irregular graph: no λ₂
        let g2 = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]).unwrap();
        let p2 = ExpansionProfile::measure(&g2, &ProfileConfig::default());
        assert!(p2.lambda2.is_none());
    }

    #[test]
    fn profile_serializes() {
        let g = cycle(8);
        let p = ExpansionProfile::measure(&g, &ProfileConfig::default());
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("wireless"));
        let back: ExpansionProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_vertices, 8);
    }

    #[test]
    fn theorem_1_1_satisfied_on_small_expander() {
        let g = complete_plus(6);
        let p = ExpansionProfile::measure(&g, &ProfileConfig::default());
        assert!(p.satisfies_theorem_1_1(1.0), "profile: {}", p.summary());
    }
}
