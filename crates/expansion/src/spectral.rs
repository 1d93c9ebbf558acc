//! Spectral quantities of the adjacency matrix (Lemma 3.1).
//!
//! Lemma 3.1 relates the unique-neighbor expansion of a `d`-regular graph to
//! its ordinary expansion through the spectral gap `d − λ₂`, where `λ₂` is
//! the second-largest adjacency eigenvalue. Both top eigenvalues come from
//! one Lanczos iteration over the CSR adjacency lists, which never
//! materializes the matrix:
//!
//! * the first pass finds `λ₁` and its Ritz vector `x₁`;
//! * the second pass runs the same recurrence on `P·A·P`, where
//!   `P = I − x₁x₁ᵀ` projects out `x₁`, and its top Ritz value is `λ₂`. A
//!   repeated `λ₁` (a disconnected graph, say) is therefore reported twice.
//!
//! The three-term recurrence keeps only its last two Lanczos vectors and
//! does no reorthogonalization: lost orthogonality only duplicates Ritz
//! values that have already converged, and a pass stops as soon as its top
//! Ritz pair has converged (its residual `‖Ax − θx‖` is negligible, which
//! includes `β ≈ 0`) or after a fixed cap of 1000 steps. Ritz values come
//! from Sturm-count bisection on the tridiagonal, and a Ritz vector is
//! assembled by rerunning the recurrence from the same seeded start vector,
//! so a pass of `k` steps needs `O(n + k)` memory.

use rand::Rng;
use wx_graph::random::{derive_seed, rng_from_seed};
use wx_graph::{Graph, GraphView};

/// Step cap of one Lanczos pass.
const MAX_STEPS: usize = 1000;

/// A pass has converged once its top Ritz pair's residual `‖Ax − θx‖` is at
/// most this multiple of `max(Δ, 1)`, an upper bound on the spectral radius.
const RESIDUAL_TOL: f64 = 1e-10;

/// The two largest adjacency eigenvalues `(λ₁, λ₂)`; `(0, 0)` for graphs
/// with fewer than two vertices.
pub fn top_two_eigenvalues(g: &Graph, seed: u64) -> (f64, f64) {
    if g.num_vertices() < 2 {
        return (0.0, 0.0);
    }
    let first = Pass::run(g, None, seed);
    let x1 = first.ritz_vector();
    let second = Pass::run(g, Some(&x1), derive_seed(seed, 1));
    (first.theta, second.theta)
}

/// The second-largest adjacency eigenvalue `λ₂`.
pub fn second_eigenvalue(g: &Graph, seed: u64) -> f64 {
    top_two_eigenvalues(g, seed).1
}

/// The Lanczos three-term recurrence on `A`, or on `P·A·P` when a unit
/// vector to project out is given. Holds only the current and previous
/// Lanczos vectors.
struct Recurrence<'a> {
    g: &'a Graph,
    deflate: Option<&'a [f64]>,
    q: Vec<f64>,
    q_prev: Vec<f64>,
    beta_prev: f64,
}

impl<'a> Recurrence<'a> {
    /// Starts from a seeded random unit vector orthogonal to `deflate`.
    fn new(g: &'a Graph, deflate: Option<&'a [f64]>, seed: u64) -> Self {
        let mut rng = rng_from_seed(seed);
        let mut q: Vec<f64> = (0..g.num_vertices())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        project_out(&mut q, deflate);
        normalize(&mut q);
        Recurrence {
            g,
            deflate,
            q_prev: vec![0.0; q.len()],
            q,
            beta_prev: 0.0,
        }
    }

    /// Returns `(α_j, β_j)` for the current vector `q_j` and advances to
    /// `q_{j+1}`.
    fn step(&mut self) -> (f64, f64) {
        // w = P·A·q_j − β_{j−1}·q_{j−1}, built in q_{j−1}'s buffer
        let w = &mut self.q_prev;
        for (v, wv) in w.iter_mut().enumerate() {
            let aq: f64 = self.g.neighbors(v).iter().map(|&u| self.q[u]).sum();
            *wv = aq - self.beta_prev * *wv;
        }
        project_out(w, self.deflate);
        let alpha = dot(w, &self.q);
        for (wv, qv) in w.iter_mut().zip(&self.q) {
            *wv -= alpha * qv;
        }
        let beta = dot(w, w).sqrt();
        if beta > 0.0 {
            w.iter_mut().for_each(|wv| *wv /= beta);
        }
        std::mem::swap(&mut self.q, &mut self.q_prev);
        self.beta_prev = beta;
        (alpha, beta)
    }
}

/// One converged Lanczos pass: its top Ritz value `theta` and the matching
/// unit eigenvector `y` of the tridiagonal it built.
struct Pass<'a> {
    g: &'a Graph,
    deflate: Option<&'a [f64]>,
    seed: u64,
    theta: f64,
    y: Vec<f64>,
}

impl<'a> Pass<'a> {
    /// Runs the recurrence until the top Ritz pair converges.
    fn run(g: &'a Graph, deflate: Option<&'a [f64]>, seed: u64) -> Self {
        let tol = RESIDUAL_TOL * g.max_degree().max(1) as f64;
        let mut rec = Recurrence::new(g, deflate, seed);
        let (mut alpha, mut beta) = (Vec::new(), Vec::new());
        loop {
            let (a, b) = rec.step();
            alpha.push(a);
            let theta = top_eigenvalue(&alpha, &beta);
            let y = eigenvector(&alpha, &beta, theta);
            // β_k·|y_k| is the Ritz pair's residual ‖Ax − θx‖
            let last = y.last().copied().unwrap_or(0.0);
            if b * last.abs() <= tol || alpha.len() == MAX_STEPS {
                return Pass {
                    g,
                    deflate,
                    seed,
                    theta,
                    y,
                };
            }
            beta.push(b);
        }
    }

    /// The unit Ritz vector `Σ y_j·q_j`, assembled by rerunning the
    /// recurrence that built the pass.
    fn ritz_vector(&self) -> Vec<f64> {
        let mut rec = Recurrence::new(self.g, self.deflate, self.seed);
        let mut x = vec![0.0; self.g.num_vertices()];
        for (j, &yj) in self.y.iter().enumerate() {
            if j > 0 {
                rec.step();
            }
            for (xv, qv) in x.iter_mut().zip(&rec.q) {
                *xv += yj * qv;
            }
        }
        normalize(&mut x);
        x
    }
}

/// Largest eigenvalue of the symmetric tridiagonal with diagonal `alpha`
/// and off-diagonal `beta ≥ 0`, by bisection on its Sturm count inside an
/// interval that contains every Gershgorin disc.
fn top_eigenvalue(alpha: &[f64], beta: &[f64]) -> f64 {
    let radius = 2.0 * beta.iter().fold(0.0, |m: f64, &b| m.max(b));
    let mut lo = alpha.iter().fold(f64::INFINITY, |m, &a| m.min(a)) - radius;
    let mut hi = alpha.iter().fold(f64::NEG_INFINITY, |m, &a| m.max(a)) + radius;
    let tol = f64::EPSILON * lo.abs().max(hi.abs());
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        let below = pivots(alpha.iter(), beta.iter(), mid)
            .filter(|&d| d < 0.0)
            .count();
        if below == alpha.len() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The `LDLᵀ` pivots `d_j = α_j − x − β_{j−1}²/d_{j−1}` of `T − x·I`; the
/// number of negative pivots is the number of eigenvalues below `x`.
fn pivots<'a>(
    alpha: impl Iterator<Item = &'a f64> + 'a,
    beta: impl Iterator<Item = &'a f64> + 'a,
    x: f64,
) -> impl Iterator<Item = f64> + 'a {
    alpha
        .zip(std::iter::once(&0.0).chain(beta))
        .scan(1.0, move |d: &mut f64, (&a, &b)| {
            *d = a - x - b * b / *d;
            if *d == 0.0 {
                *d = f64::MIN_POSITIVE;
            }
            Some(*d)
        })
}

/// Unit eigenvector of the tridiagonal for its eigenvalue `theta`, from the
/// twisted factorization of `T − θ·I`: the forward and backward pivots meet
/// at the index where the eigenvector is largest.
fn eigenvector(alpha: &[f64], beta: &[f64], theta: f64) -> Vec<f64> {
    let k = alpha.len();
    let fwd: Vec<f64> = pivots(alpha.iter(), beta.iter(), theta).collect();
    let mut bwd: Vec<f64> = pivots(alpha.iter().rev(), beta.iter().rev(), theta).collect();
    bwd.reverse();
    let gamma = |r: usize| (fwd[r] + bwd[r] - (alpha[r] - theta)).abs();
    let twist = (0..k)
        .min_by(|&r, &s| gamma(r).total_cmp(&gamma(s)))
        .unwrap_or(0);
    let mut y = vec![0.0; k];
    y[twist] = 1.0;
    for j in (0..twist).rev() {
        y[j] = -beta[j] * y[j + 1] / fwd[j];
    }
    for j in twist + 1..k {
        y[j] = -beta[j - 1] * y[j - 1] / bwd[j];
    }
    normalize(&mut y);
    y
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn normalize(x: &mut [f64]) {
    let norm = dot(x, x).sqrt();
    x.iter_mut().for_each(|v| *v /= norm);
}

/// `x ← x − (uᵀx)·u` for the unit vector `u`, if any.
fn project_out(x: &mut [f64], u: Option<&[f64]>) {
    if let Some(u) = u {
        let c = dot(x, u);
        for (xv, uv) in x.iter_mut().zip(u) {
            *xv -= c * uv;
        }
    }
}

/// Evaluates the Lemma 3.1 lower bound on the ordinary expansion of a
/// `d`-regular `(αu, βu)`-unique expander:
/// `β ≥ (1 − 1/d)·βu + (d − λ₂)(1 − αu)/d`.
/// Returns `None` if the graph is not regular.
pub fn lemma_3_1_bound(g: &Graph, alpha_u: f64, beta_u: f64, seed: u64) -> Option<f64> {
    let d = g.max_degree();
    if d == 0 || !g.is_regular(d) {
        return None;
    }
    let lambda2 = second_eigenvalue(g, seed);
    Some(wx_spokesman::bounds::lemma_3_1_expansion_bound(
        d, lambda2, alpha_u, beta_u,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wx_graph::GraphBuilder;

    fn complete(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(i, j).unwrap();
            }
        }
        b.build()
    }

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (1..n).map(|i| (i - 1, i))).unwrap()
    }

    fn hypercube(d: usize) -> Graph {
        let n = 1usize << d;
        let edges = (0..n).flat_map(|v| (0..d).map(move |i| (v, v ^ (1 << i))));
        Graph::from_edges(n, edges.filter(|&(u, v)| u < v)).unwrap()
    }

    fn torus(a: usize, b: usize) -> Graph {
        let id = |i: usize, j: usize| (i % a) * b + j % b;
        let edges = (0..a).flat_map(|i| {
            (0..b).flat_map(move |j| [(id(i, j), id(i + 1, j)), (id(i, j), id(i, j + 1))])
        });
        Graph::from_edges(a * b, edges).unwrap()
    }

    fn complete_bipartite(a: usize, b: usize) -> Graph {
        Graph::from_edges(a + b, (0..a).flat_map(|i| (a..a + b).map(move |j| (i, j)))).unwrap()
    }

    fn petersen() -> Graph {
        let outer = (0..5).map(|i| (i, (i + 1) % 5));
        let spokes = (0..5).map(|i| (i, i + 5));
        let inner = (0..5).map(|i| (5 + i, 5 + (i + 2) % 5));
        Graph::from_edges(10, outer.chain(spokes).chain(inner)).unwrap()
    }

    /// The circulant graph on `Z_n` joining `i` and `i ± s` for each offset,
    /// with its top two eigenvalues `Σ_s 2cos(2πks/n)` over `k = 0` and the
    /// best `k ≠ 0`.
    fn circulant(n: usize, offsets: &[usize]) -> (Graph, f64, f64) {
        let edges = (0..n).flat_map(|i| offsets.iter().map(move |&s| (i, (i + s) % n)));
        let g = Graph::from_edges(n, edges).unwrap();
        let eig = |k: usize| {
            let t = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            offsets
                .iter()
                .map(|&s| 2.0 * (t * s as f64).cos())
                .sum::<f64>()
        };
        let l2 = (1..n).map(eig).fold(f64::NEG_INFINITY, f64::max);
        (g, eig(0), l2)
    }

    /// `C₁₀ ∪ C₇`: disconnected, so `λ₁ = λ₂ = 2`.
    fn two_cycles() -> Graph {
        let c10 = (0..10).map(|i| (i, (i + 1) % 10));
        let c7 = (0..7).map(|i| (10 + i, 10 + (i + 1) % 7));
        Graph::from_edges(17, c10.chain(c7)).unwrap()
    }

    /// `‖Ax − θx‖` for a unit vector `x`.
    fn residual(g: &Graph, x: &[f64], theta: f64) -> f64 {
        (0..g.num_vertices())
            .map(|v| {
                let ax: f64 = g.neighbors(v).iter().map(|&u| x[u]).sum();
                (ax - theta * x[v]).powi(2)
            })
            .sum::<f64>()
            .sqrt()
    }

    /// `(λ₁, λ₂)` against closed-form spectra (`c(k, n) = 2cos(kπ/n)`), and
    /// the second pass's Ritz residual against `A` itself.
    #[test]
    fn closed_form_spectra() {
        use std::f64::consts::PI;
        let c = |k: f64, n: usize| 2.0 * (k * PI / n as f64).cos();
        let mut cases: Vec<(String, Graph, f64, f64)> = vec![
            ("K_2".into(), complete(2), 1.0, -1.0),
            ("K_6".into(), complete(6), 5.0, -1.0),
            ("K_10".into(), complete(10), 9.0, -1.0),
            ("C_8".into(), cycle(8), 2.0, c(2.0, 8)),
            ("C_16".into(), cycle(16), 2.0, c(2.0, 16)),
            ("C_25".into(), cycle(25), 2.0, c(2.0, 25)),
            ("P_9".into(), path(9), c(1.0, 10), c(2.0, 10)),
            ("P_40".into(), path(40), c(1.0, 41), c(2.0, 41)),
            ("torus 10x10".into(), torus(10, 10), 4.0, 2.0 + c(2.0, 10)),
            ("torus 5x7".into(), torus(5, 7), 4.0, 2.0 + c(2.0, 7)),
            ("K_3,3".into(), complete_bipartite(3, 3), 3.0, 0.0),
            ("K_3,5".into(), complete_bipartite(3, 5), 15f64.sqrt(), 0.0),
            ("K_1,6".into(), complete_bipartite(1, 6), 6f64.sqrt(), 0.0),
            ("petersen".into(), petersen(), 3.0, 1.0),
            ("C_10 ∪ C_7".into(), two_cycles(), 2.0, 2.0),
            ("edgeless 5".into(), Graph::empty(5), 0.0, 0.0),
            ("one vertex".into(), Graph::empty(1), 0.0, 0.0),
            ("empty".into(), Graph::empty(0), 0.0, 0.0),
        ];
        for d in 3..=10 {
            cases.push((format!("Q_{d}"), hypercube(d), d as f64, d as f64 - 2.0));
        }
        // an 8-regular expander: λ₁ is well separated, so the second pass
        // finds λ₂ only if it keeps projecting out the Ritz vector of λ₁
        let (g, l1, l2) = circulant(401, &[1, 7, 30, 111]);
        cases.push(("circulant 401".into(), g, l1, l2));
        for (name, g, l1, l2) in &cases {
            for seed in [0, 7] {
                let (t1, t2) = top_two_eigenvalues(g, seed);
                assert!((t1 - l1).abs() <= 1e-9, "{name}: λ₁ = {t1}, expected {l1}");
                assert!((t2 - l2).abs() <= 1e-9, "{name}: λ₂ = {t2}, expected {l2}");
                if g.num_vertices() < 2 {
                    continue;
                }
                let x1 = Pass::run(g, None, seed).ritz_vector();
                let second = Pass::run(g, Some(&x1), derive_seed(seed, 1));
                let x2 = second.ritz_vector();
                let r = residual(g, &x2, second.theta);
                assert!(r <= 1e-6, "{name}: λ₂ Ritz residual {r}");
            }
        }
    }

    #[test]
    fn spectrum_of_complete_graph() {
        // K_n has eigenvalues n-1 (once) and -1 (n-1 times).
        let g = complete(6);
        let (l1, l2) = top_two_eigenvalues(&g, 0);
        assert!((l1 - 5.0).abs() < 1e-9, "λ₁ = {l1}");
        assert!((l2 + 1.0).abs() < 1e-9, "λ₂ = {l2}");
    }

    /// The iterative top two agree with the leading entries of the full
    /// spectrum, listed in closed form and sorted.
    #[test]
    fn power_iteration_agrees_with_dense() {
        let dense_top_two = |mut vals: Vec<f64>| {
            vals.sort_by(|a, b| b.total_cmp(a));
            (vals[0], vals[1])
        };

        let g = complete(10);
        let (l1d, l2d) = dense_top_two((0..10).map(|i| if i == 0 { 9.0 } else { -1.0 }).collect());
        let (l1, l2) = top_two_eigenvalues(&g, 3);
        assert!((l1d - l1).abs() < 1e-6, "λ₁ dense {l1d} vs Lanczos {l1}");
        assert!((l2d - l2).abs() < 1e-4, "λ₂ dense {l2d} vs Lanczos {l2}");

        let n = 16;
        let g = cycle(n);
        let (l1d, l2d) = dense_top_two(
            (0..n)
                .map(|k| 2.0 * (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos())
                .collect(),
        );
        let (l1, l2) = top_two_eigenvalues(&g, 5);
        assert!((l1d - l1).abs() < 1e-4, "λ₁ dense {l1d} vs Lanczos {l1}");
        assert!((l2d - l2).abs() < 1e-3, "λ₂ dense {l2d} vs Lanczos {l2}");
    }

    #[test]
    fn spectrum_of_cycle() {
        // C_n eigenvalues are 2cos(2πk/n); λ₁ = 2, λ₂ = 2cos(2π/n).
        let n = 8;
        let g = cycle(n);
        let (l1, l2) = top_two_eigenvalues(&g, 1);
        assert!((l1 - 2.0).abs() < 1e-9);
        let expected = 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!(
            (l2 - expected).abs() < 1e-6,
            "λ₂ = {l2}, expected {expected}"
        );
    }

    #[test]
    fn spectral_gap_of_complete_graph() {
        let g = complete(8);
        let gap = 7.0 - second_eigenvalue(&g, 0);
        assert!((gap - 8.0).abs() < 1e-6); // d - λ₂ = 7 - (-1) = 8
    }

    #[test]
    fn spectral_gap_requires_regularity() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(lemma_3_1_bound(&g, 0.1, 1.0, 0).is_none());
    }

    #[test]
    fn lemma_3_1_bound_on_complete_graph() {
        // K8: d = 7, λ₂ = -1. With αu = 1/8 and βu = 0 the bound is
        // (d - λ₂)(1 - αu)/d = 8·(7/8)/7 = 1.
        let g = complete(8);
        let b = lemma_3_1_bound(&g, 1.0 / 8.0, 0.0, 0).unwrap();
        assert!((b - 1.0).abs() < 1e-6);
        // And the true expansion for sets of size ≤ 1 is 7 ≥ 1: bound holds.
        let measured = crate::engine::MeasurementEngine::builder()
            .alpha(1.0 / 8.0)
            .build()
            .measure(&g, &crate::engine::Ordinary)
            .unwrap()
            .value;
        assert!(measured + 1e-9 >= b);
    }

    #[test]
    fn empty_graph_spectrum() {
        let g = Graph::empty(0);
        assert_eq!(top_two_eigenvalues(&g, 0), (0.0, 0.0));
    }

    #[test]
    fn bipartite_negative_eigenvalue_does_not_confuse_lambda2() {
        // Complete bipartite K_{3,3}: eigenvalues 3, 0 (x4), -3. The -3 has
        // the largest magnitude after λ₁ but must not be reported as λ₂.
        let g = complete_bipartite(3, 3);
        let (l1, l2) = top_two_eigenvalues(&g, 11);
        assert!((l1 - 3.0).abs() < 1e-9, "λ₁ = {l1}");
        assert!(l2.abs() < 1e-3, "λ₂ = {l2}, expected ≈ 0");
    }
}
