//! Seeded inputs: preset instances, their known biclique counts, and
//! the files the workloads hand to the program.
//!
//! Every graph is a calibrated preset built at the calibration seed and
//! then relabeled by a random permutation of both sides drawn from the
//! run's `--seed`. Relabeling changes the bytes the program reads, the
//! vertex tie-breaks and the fingerprints the cache keys on, but not the
//! set of maximal bicliques: every seed has the same, known count per
//! preset, so each served, sharded or replicated count can be checked
//! exactly, and the work per run stays the same from seed to seed.

use std::path::{Path, PathBuf};

use bigraph::BipartiteGraph;

/// The seed the committed counts were calibrated at.
pub const CALIBRATION_SEED: u64 = 42;

/// Maximal biclique counts of the presets at [`CALIBRATION_SEED`], as
/// committed in `BENCH_PR10.json`.
pub const EXPECTED: [(&str, u64); 13] = [
    ("Mti", 4640),
    ("WA", 2884),
    ("TM", 5645),
    ("AM", 8300),
    ("WC", 12306),
    ("YG", 11865),
    ("SO", 16664),
    ("Pa", 10099),
    ("IM", 32190),
    ("EE", 24834),
    ("BX", 40796),
    ("GH", 40914),
    ("DBT", 191019),
];

/// The eight cheap presets: many small roots each.
pub const SHALLOW: [&str; 8] = ["Mti", "WA", "TM", "AM", "WC", "YG", "SO", "Pa"];

pub fn expected(abbrev: &str) -> u64 {
    EXPECTED
        .iter()
        .find(|(a, _)| *a == abbrev)
        .map(|&(_, b)| b)
        .unwrap_or_else(|| panic!("no committed count for preset {abbrev}"))
}

/// SplitMix64: a small seeded generator, so the inputs depend on
/// nothing but `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named part of the inputs.
    pub fn derive(seed: u64, label: &str) -> Self {
        let h = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: u32) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n).collect();
        for i in (1..p.len()).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// `g` with both sides renamed by random permutations.
pub fn relabel(g: &BipartiteGraph, rng: &mut Rng) -> BipartiteGraph {
    let pu = rng.permutation(g.num_u());
    let pv = rng.permutation(g.num_v());
    let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (pu[u as usize], pv[v as usize])).collect();
    BipartiteGraph::from_edges(g.num_u(), g.num_v(), &edges).expect("a relabeled graph is valid")
}

/// The calibrated preset `abbrev`, unrelabeled.
pub fn preset(abbrev: &str) -> BipartiteGraph {
    gen::presets::by_abbrev(abbrev)
        .unwrap_or_else(|| panic!("unknown preset {abbrev}"))
        .build(CALIBRATION_SEED)
}

/// One input graph of a workload with its known count.
pub struct Input {
    pub abbrev: &'static str,
    pub graph: BipartiteGraph,
    pub expected: u64,
    /// The edge-list file the graph was read back from.
    pub path: PathBuf,
}

/// A scratch directory inside the benchmark's own directory, removed
/// when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> std::io::Result<WorkDir> {
        let dir = out_dir().join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The directory traces are written to.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Builds the seeded instance of `abbrev`, writes it as an edge list
/// into `dir`, and reads it back: the graph a user of the program would
/// start from. `label` names the copy (several copies of one preset get
/// different relabelings).
pub fn make_input(
    abbrev: &'static str,
    seed: u64,
    label: &str,
    dir: &WorkDir,
) -> std::io::Result<Input> {
    let base = preset(abbrev);
    let relabeled = relabel(&base, &mut Rng::derive(seed, label));
    let path = dir.path(&format!("{label}.txt"));
    bigraph::io::write_edge_list_path(&relabeled, &path).map_err(std::io::Error::other)?;
    let graph = bigraph::io::read_edge_list_path(&path).map_err(std::io::Error::other)?;
    Ok(Input { abbrev, graph, expected: expected(abbrev), path })
}

/// `p` as the absolute path a server's `LOAD` takes.
pub fn abs_path(p: &Path) -> Result<String, String> {
    let abs = std::fs::canonicalize(p).map_err(|e| format!("{}: {e}", p.display()))?;
    abs.to_str().map(str::to_string).ok_or_else(|| format!("non-UTF-8 path {}", abs.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(7, "x").next_u64(), Rng::derive(8, "x").next_u64());
        assert_ne!(Rng::derive(7, "x").next_u64(), Rng::derive(7, "y").next_u64());
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::derive(3, "perm").permutation(1000);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &x)| i as u32 == x));
    }

    #[test]
    fn relabeling_keeps_the_count() {
        let g = preset("WA");
        let h = relabel(&g, &mut Rng::derive(11, "WA"));
        assert_ne!(g.edges().collect::<Vec<_>>(), h.edges().collect::<Vec<_>>());
        let count = mbe::Enumeration::new(&h).count().expect("valid run").count();
        assert_eq!(count, expected("WA"));
    }

    #[test]
    fn expected_counts_match_the_committed_snapshot() {
        // The table is a copy of the repository's committed calibration
        // counts; keep the two in step.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_PR10.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        for (abbrev, count) in EXPECTED {
            let row = format!("\"preset\": \"{abbrev}\", \"bicliques\": {count},");
            assert!(text.contains(&row), "BENCH_PR10.json has no row {row}");
        }
    }
}
