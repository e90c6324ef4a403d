//! Calibrated analogues of the 13 standard MBE benchmark datasets.
//!
//! Each [`Preset`] carries the published statistics of a real dataset
//! (the `|U| |V| |E| B` columns every MBE paper tabulates) and generates
//! a *scaled synthetic analogue*: a Chung–Lu graph with the dataset's
//! mean degrees and skew, overlaid with planted overlapping blocks whose
//! density is tuned to the dataset's biclique richness (`B/|V|`). The
//! scale keeps enumeration in laptop territory while preserving the
//! relative ordering of dataset difficulty — the property the experiment
//! shapes depend on (DESIGN.md §5 records this substitution).

use crate::chung_lu::{self, ChungLuConfig};
use crate::planted::{plant, BlockSpec, PlantedConfig};
use bigraph::BipartiteGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Published statistics of the real dataset (for reporting; the analogue
/// is scaled down from these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealStats {
    /// `|U|` of the real dataset.
    pub num_u: u64,
    /// `|V|` of the real dataset.
    pub num_v: u64,
    /// `|E|` of the real dataset.
    pub num_edges: u64,
    /// Published maximal biclique count.
    pub max_bicliques: u64,
}

/// One benchmark-dataset analogue.
#[derive(Debug, Clone)]
pub struct Preset {
    /// Full dataset name.
    pub name: &'static str,
    /// Two-letter abbreviation used in the papers' tables.
    pub abbrev: &'static str,
    /// Published statistics of the real dataset.
    pub real: RealStats,
    /// Default down-scale factor applied to `|U|, |V|, |E|`.
    pub scale: f64,
    /// Extra multiplier on the edge count only (`< 1` thins graphs whose
    /// real mean degree would make even the scaled analogue explode —
    /// TVTropes really does have 19.6 billion maximal bicliques).
    pub edge_fraction: f64,
    /// Power-law exponents for the `U` / `V` degree sequences.
    pub gamma: (f64, f64),
    /// Planted blocks per 1000 generated `V` vertices.
    pub block_density: f64,
    /// Multiplier on planted block dimensions (larger blocks interact
    /// combinatorially and drive the biclique count superlinearly).
    pub block_scale: f64,
    /// Overlap probability between planted blocks.
    pub overlap: f64,
}

impl Preset {
    /// Generates the analogue at the default scale.
    pub fn build(&self, seed: u64) -> BipartiteGraph {
        self.build_scaled(seed, 1.0)
    }

    /// Generates the analogue at `multiplier ×` the default scale (used
    /// by the E5 scalability sweep).
    pub fn build_scaled(&self, seed: u64, multiplier: f64) -> BipartiteGraph {
        let s = self.scale * multiplier;
        let nu = ((self.real.num_u as f64 * s).round() as u32).max(4);
        let nv = ((self.real.num_v as f64 * s).round() as u32).max(4);
        let edges = ((self.real.num_edges as f64 * s * self.edge_fraction).round() as usize).max(8);
        // Hashing the abbreviation gives each preset its own stream for
        // the same user seed.
        let mut rng = StdRng::seed_from_u64(seed ^ bigraph::codec::fnv1a(self.abbrev.as_bytes()));

        let mut cfg = ChungLuConfig::new(nu, nv, edges);
        cfg.gamma_u = self.gamma.0;
        cfg.gamma_v = self.gamma.1;
        let base = chung_lu::generate(&mut rng, &cfg);

        let n_blocks = ((nv as f64 / 1000.0) * self.block_density).round() as usize;
        if n_blocks == 0 {
            return base;
        }
        let dim = |d: usize| ((d as f64 * self.block_scale).round() as usize).max(2);
        let planted_cfg = PlantedConfig {
            blocks: vec![
                BlockSpec { a: dim(3), b: dim(5), count: n_blocks / 3 + 1 },
                BlockSpec { a: dim(4), b: dim(4), count: n_blocks / 3 + 1 },
                BlockSpec { a: dim(5), b: dim(7), count: n_blocks / 3 },
            ],
            overlap: self.overlap,
        };
        let (g, _) = plant(&mut rng, &base, &planted_cfg);
        g
    }
}

/// The 13 benchmark-dataset analogues, in ascending published-B order
/// (the order the papers' tables use).
pub fn all_presets() -> Vec<Preset> {
    vec![
        Preset {
            name: "MovieLens",
            abbrev: "Mti",
            real: RealStats {
                num_u: 16_528,
                num_v: 7_601,
                num_edges: 71_154,
                max_bicliques: 140_266,
            },
            scale: 0.10,
            edge_fraction: 0.7,
            gamma: (2.2, 2.0),
            block_density: 5.0,
            block_scale: 1.0,
            overlap: 0.2,
        },
        Preset {
            name: "Amazon",
            abbrev: "WA",
            real: RealStats {
                num_u: 265_934,
                num_v: 264_148,
                num_edges: 925_873,
                max_bicliques: 461_274,
            },
            scale: 0.004,
            edge_fraction: 1.0,
            gamma: (2.3, 2.3),
            block_density: 10.0,
            block_scale: 1.3,
            overlap: 0.2,
        },
        Preset {
            name: "Teams",
            abbrev: "TM",
            real: RealStats {
                num_u: 901_130,
                num_v: 34_461,
                num_edges: 1_366_466,
                max_bicliques: 517_943,
            },
            scale: 0.02,
            edge_fraction: 0.6,
            gamma: (2.6, 2.0),
            block_density: 8.0,
            block_scale: 1.0,
            overlap: 0.25,
        },
        Preset {
            name: "ActorMovies",
            abbrev: "AM",
            real: RealStats {
                num_u: 383_640,
                num_v: 127_823,
                num_edges: 1_470_404,
                max_bicliques: 1_075_444,
            },
            scale: 0.006,
            edge_fraction: 0.8,
            gamma: (2.2, 2.1),
            block_density: 10.0,
            block_scale: 1.0,
            overlap: 0.3,
        },
        Preset {
            name: "Wikipedia",
            abbrev: "WC",
            real: RealStats {
                num_u: 1_853_493,
                num_v: 182_947,
                num_edges: 3_795_796,
                max_bicliques: 1_677_522,
            },
            scale: 0.004,
            edge_fraction: 0.85,
            gamma: (2.4, 1.9),
            block_density: 10.0,
            block_scale: 1.0,
            overlap: 0.3,
        },
        Preset {
            name: "YouTube",
            abbrev: "YG",
            real: RealStats {
                num_u: 94_238,
                num_v: 30_087,
                num_edges: 293_360,
                max_bicliques: 1_826_587,
            },
            scale: 0.025,
            edge_fraction: 1.0,
            gamma: (2.1, 1.9),
            block_density: 14.0,
            block_scale: 1.0,
            overlap: 0.35,
        },
        Preset {
            name: "StackOverflow",
            abbrev: "SO",
            real: RealStats {
                num_u: 545_195,
                num_v: 96_680,
                num_edges: 1_301_942,
                max_bicliques: 3_320_824,
            },
            scale: 0.008,
            edge_fraction: 1.0,
            gamma: (2.0, 1.9),
            block_density: 16.0,
            block_scale: 1.0,
            overlap: 0.35,
        },
        Preset {
            name: "DBLP",
            abbrev: "Pa",
            real: RealStats {
                num_u: 5_624_219,
                num_v: 1_953_085,
                num_edges: 12_282_059,
                max_bicliques: 4_899_032,
            },
            scale: 0.0005,
            edge_fraction: 1.0,
            gamma: (2.4, 2.2),
            block_density: 40.0,
            block_scale: 1.7,
            overlap: 0.55,
        },
        Preset {
            name: "IMDB",
            abbrev: "IM",
            real: RealStats {
                num_u: 896_302,
                num_v: 303_617,
                num_edges: 3_782_463,
                max_bicliques: 5_160_061,
            },
            scale: 0.003,
            edge_fraction: 1.0,
            gamma: (2.1, 2.0),
            block_density: 14.0,
            block_scale: 1.0,
            overlap: 0.35,
        },
        Preset {
            name: "EuAll",
            abbrev: "EE",
            real: RealStats {
                num_u: 225_409,
                num_v: 74_661,
                num_edges: 420_046,
                max_bicliques: 12_306_755,
            },
            scale: 0.012,
            edge_fraction: 1.0,
            gamma: (1.9, 1.8),
            block_density: 60.0,
            block_scale: 1.6,
            overlap: 0.65,
        },
        Preset {
            name: "BookCrossing",
            abbrev: "BX",
            real: RealStats {
                num_u: 340_523,
                num_v: 105_278,
                num_edges: 1_149_739,
                max_bicliques: 54_458_953,
            },
            scale: 0.008,
            edge_fraction: 1.0,
            gamma: (1.9, 1.8),
            block_density: 40.0,
            block_scale: 1.3,
            overlap: 0.6,
        },
        Preset {
            name: "Github",
            abbrev: "GH",
            real: RealStats {
                num_u: 120_867,
                num_v: 59_519,
                num_edges: 440_237,
                max_bicliques: 55_346_398,
            },
            scale: 0.015,
            edge_fraction: 1.0,
            gamma: (1.9, 1.8),
            block_density: 70.0,
            block_scale: 1.6,
            overlap: 0.65,
        },
        Preset {
            name: "TVTropes",
            abbrev: "DBT",
            real: RealStats {
                num_u: 87_678,
                num_v: 64_415,
                num_edges: 3_232_134,
                max_bicliques: 19_636_996_096,
            },
            scale: 0.01,
            edge_fraction: 0.3,
            gamma: (1.8, 1.8),
            block_density: 18.0,
            block_scale: 1.0,
            overlap: 0.4,
        },
    ]
}

/// Looks a preset up by abbreviation (`"BX"`, `"GH"`, …).
pub fn by_abbrev(abbrev: &str) -> Option<Preset> {
    all_presets().into_iter().find(|p| p.abbrev == abbrev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_presets_unique_abbrevs() {
        let ps = all_presets();
        assert_eq!(ps.len(), 13);
        let mut abbrevs: Vec<&str> = ps.iter().map(|p| p.abbrev).collect();
        abbrevs.sort_unstable();
        abbrevs.dedup();
        assert_eq!(abbrevs.len(), 13);
    }

    #[test]
    fn sorted_by_published_biclique_count() {
        let ps = all_presets();
        for w in ps.windows(2) {
            assert!(
                w[0].real.max_bicliques <= w[1].real.max_bicliques,
                "{} before {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn build_is_deterministic_and_scaled() {
        let p = by_abbrev("Mti").unwrap();
        let a = p.build(42);
        let b = p.build(42);
        assert_eq!(a, b);
        let c = p.build(43);
        assert_ne!(a, c);
        // Rough scale check: within 2x of the scaled targets.
        let want_v = (p.real.num_v as f64 * p.scale) as u32;
        assert!(a.num_v() >= want_v / 2 && a.num_v() <= want_v * 2);
    }

    #[test]
    fn scaled_build_grows() {
        let p = by_abbrev("WA").unwrap();
        let small = p.build_scaled(1, 0.5);
        let big = p.build_scaled(1, 2.0);
        assert!(big.num_edges() > small.num_edges());
        assert!(big.num_v() > small.num_v());
    }

    #[test]
    fn lookup_by_abbrev() {
        assert_eq!(by_abbrev("DBT").unwrap().name, "TVTropes");
        assert!(by_abbrev("nope").is_none());
    }
}
