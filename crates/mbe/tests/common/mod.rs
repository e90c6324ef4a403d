//! Graph builders shared by the integration tests.

use bigraph::BipartiteGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A structured random graph: power-law background plus planted blocks,
/// the shape real MBE inputs have.
pub fn structured(seed: u64, nu: u32, nv: u32, edges: usize) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all: Vec<(u32, u32)> = Vec::new();
    // Skewed background: quadratic bias toward low ids.
    for _ in 0..edges {
        let u = (rng.gen::<f64>().powi(2) * nu as f64) as u32 % nu;
        let v = (rng.gen::<f64>().powi(2) * nv as f64) as u32 % nv;
        all.push((u, v));
    }
    // A few complete blocks with shared vertices.
    for b in 0..5u32 {
        let us: Vec<u32> = (0..4).map(|i| (b * 3 + i * 7) % nu).collect();
        let vs: Vec<u32> = (0..5).map(|i| (b * 5 + i * 11) % nv).collect();
        for &u in &us {
            for &v in &vs {
                all.push((u, v));
            }
        }
    }
    BipartiteGraph::from_edges(nu, nv, &all).unwrap()
}
