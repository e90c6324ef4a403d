//! Edge-list reader fuzzing: `io::read_edge_list_with_limits` (bipartite)
//! and `general::read_general_edge_list_with_limits` are fed arbitrary
//! bytes and mutations of a valid file: bit flips, truncation, invalid
//! UTF-8, NUL bytes, `\r\n` line endings, 20-digit ids, self-loops and a
//! line one byte over `max_line_bytes`. Neither reader may panic, a graph
//! either one returns has no more edges than the input has lines, and a
//! limit one short of what a valid file needs is `GraphError::TooLarge`.

use bigraph::general::read_general_edge_list_with_limits;
use bigraph::io::{read_edge_list_with_limits, ReadLimits};
use bigraph::GraphError;
use proptest::prelude::*;

/// A valid file: comments, a blank line, an extra column, padding, a
/// duplicate edge, a self-loop (an edge of the bipartite reading) and
/// sparse 1-based ids.
const VALID: &[u8] = b"% a comment\n# another\n1 2\n1 3 0.5\n\n2 2\n3 1\n 4   7 \n1 2\n10 3\n";

/// The edge rows of [`VALID`] and its longest line, newline included.
const VALID_ROWS: u64 = 7;
const VALID_LONGEST_LINE: usize = 12;

/// Lines a reader sees in `bytes`: each `\n`-terminated line, plus an
/// unterminated tail.
fn lines(bytes: &[u8]) -> usize {
    let newlines = bytes.iter().filter(|&&b| b == b'\n').count();
    newlines + usize::from(bytes.last().is_some_and(|&b| b != b'\n'))
}

/// Both readers on `bytes` under `limits`: neither may panic, and a graph
/// either returns has at most one edge per line. Returns the two results'
/// edge counts.
fn read_both(bytes: &[u8], limits: ReadLimits, how: &str) -> [Result<usize, GraphError>; 2] {
    let n = lines(bytes);
    let bipartite = read_edge_list_with_limits(bytes, limits).map(|g| g.num_edges());
    let general = read_general_edge_list_with_limits(bytes, limits).map(|g| g.num_edges());
    for edges in [&bipartite, &general].into_iter().flatten() {
        assert!(*edges <= n, "{edges} edges from {n} lines ({how})");
    }
    [bipartite, general]
}

/// [`read_both`], whatever the readers return.
fn check(bytes: &[u8], limits: ReadLimits, how: &str) {
    let _ = read_both(bytes, limits, how);
}

fn is_too_large(r: &Result<usize, GraphError>) -> bool {
    matches!(r, Err(GraphError::TooLarge { .. }))
}

/// `VALID` with line `at` (0-based) replaced by `line`.
fn with_line(at: usize, line: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, l) in VALID.split_inclusive(|&b| b == b'\n').enumerate() {
        if i == at {
            out.extend_from_slice(line);
            out.push(b'\n');
        } else {
            out.extend_from_slice(l);
        }
    }
    out
}

#[test]
fn the_valid_file_reads_and_tight_limits_are_typed_errors() {
    let [bipartite, general] = read_both(VALID, ReadLimits::default(), "valid");
    assert_eq!(bipartite.unwrap(), 6);
    assert_eq!(general.unwrap(), 4);
    let longest = VALID.split_inclusive(|&b| b == b'\n').map(<[u8]>::len).max().unwrap();
    assert_eq!(longest, VALID_LONGEST_LINE);
    let exact = ReadLimits { max_edges: VALID_ROWS, max_line_bytes: VALID_LONGEST_LINE };
    assert!(read_both(VALID, exact, "exact limits").iter().all(Result::is_ok));
    for tight in [
        ReadLimits { max_edges: VALID_ROWS - 1, ..exact },
        ReadLimits { max_line_bytes: VALID_LONGEST_LINE - 1, ..exact },
        ReadLimits { max_edges: 0, max_line_bytes: 0 },
    ] {
        assert!(read_both(VALID, tight, "tight").iter().all(is_too_large), "{tight:?}");
    }
}

#[test]
fn named_mutations_read_or_fail_cleanly() {
    let limits = ReadLimits::default();
    // `\r\n` endings read as the same graph.
    let crlf: Vec<u8> =
        VALID.iter().flat_map(|&b| if b == b'\n' { vec![b'\r', b'\n'] } else { vec![b] }).collect();
    let edges = |r: [Result<usize, GraphError>; 2]| r.map(|e| e.unwrap());
    assert_eq!(edges(read_both(&crlf, limits, "crlf")), edges(read_both(VALID, limits, "valid")));
    // A self-loop is an edge of the bipartite reading, none of the general.
    let [bipartite, general] = read_both(b"5 5\n", limits, "self-loop");
    assert_eq!((bipartite.unwrap(), general.unwrap()), (1, 0));
    // The largest u64 id reads; a 20-digit id past it is a parse error.
    assert!(read_both(b"18446744073709551615 1\n", limits, "u64::MAX").iter().all(Result::is_ok));
    for bad in [
        &b"99999999999999999999 1\n"[..],
        b"1 2\n\xff\xfe 3\n",
        b"1 \x002\n",
        b"\x00\n",
        b"1\n",
        b"-1 2\n",
    ] {
        let got = read_both(bad, limits, &format!("{bad:?}"));
        assert!(got.iter().all(|r| matches!(r, Err(GraphError::Parse { .. }))), "{bad:?}: {got:?}");
    }
    // A line one byte over the cap, before any other line could fail.
    let cap = 16;
    let tight = ReadLimits { max_line_bytes: cap, ..limits };
    for at in [2, 5, 9] {
        let mut long = b"1 2".to_vec();
        long.resize(cap, b' '); // with its newline, one byte over
        let fits = with_line(at, &long[..cap - 1]);
        assert!(read_both(&fits, tight, "at the cap").iter().all(Result::is_ok));
        let over = with_line(at, &long);
        assert!(read_both(&over, tight, "one over").iter().all(is_too_large), "line {at}");
    }
}

#[test]
fn every_flip_and_truncation_reads_or_fails_cleanly() {
    let tight = ReadLimits { max_edges: 4, max_line_bytes: 8 };
    for limits in [ReadLimits::default(), tight] {
        for at in 0..VALID.len() {
            check(&VALID[..at], limits, &format!("cut at {at}"));
            for bit in 0..8 {
                let mut flipped = VALID.to_vec();
                flipped[at] ^= 1 << bit;
                check(&flipped, limits, &format!("byte {at} bit {bit} flipped"));
            }
        }
    }
}

/// The pieces random inputs are spliced from.
const PIECES: [&[u8]; 12] = [
    b"1 2\n",
    b"\r\n",
    b"\n",
    b"\x00",
    b"\xff",
    b"% c\n",
    b"18446744073709551615",
    b"99999999999999999999",
    b"7 7\n",
    b"  ",
    b"3 4 5\n",
    b"0",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary bytes, under the default and under tight limits.
    #[test]
    fn arbitrary_bytes_read_or_fail_cleanly(
        bytes in proptest::collection::vec(0u16..256, 0..256),
        max_edges in 0u64..8,
        max_line_bytes in 0usize..32,
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        check(&bytes, ReadLimits::default(), "arbitrary");
        check(&bytes, ReadLimits { max_edges, max_line_bytes }, "arbitrary, tight");
    }

    /// Random compositions: splices of the valid file with hostile
    /// pieces, then bit flips and a truncation.
    #[test]
    fn mutated_files_read_or_fail_cleanly(
        inserts in proptest::collection::vec((0usize..128, 0usize..PIECES.len()), 0..6),
        flips in proptest::collection::vec((0usize..256, 0u8..8), 0..4),
        cut in 0usize..256,
        max_line_bytes in 1usize..24,
    ) {
        let mut bytes = VALID.to_vec();
        for &(at, piece) in &inserts {
            let at = at % (bytes.len() + 1);
            bytes.splice(at..at, PIECES[piece].iter().copied());
        }
        for &(at, bit) in &flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        bytes.truncate(cut.max(bytes.len() / 2));
        check(&bytes, ReadLimits::default(), "mutated");
        check(&bytes, ReadLimits { max_line_bytes, ..ReadLimits::default() }, "mutated, tight");
    }
}
