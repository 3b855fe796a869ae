//! The three workloads and the seeded request generator.
//!
//! Everything a run sends is derived from `--seed`: each reader's request
//! order, the literal each parameterised query carries, and how long each
//! reader waits before its first request (the client stagger).  The
//! server receives only the generated text.

use excess_bench::server_mix::MIX;
use std::time::Duration;

/// Commit that takes the database from state A (as loaded) to state B.
pub const APPEND: &str = "append to S1 ((sdept: 3, sadv: \"e0\", sname: \"w\"))";
/// Commit that takes the database from state B back to state A.
pub const DELETE: &str = "delete from S1 where S1.sname = \"w\"";

/// The `k`-th commit a writer sends (0-based): appends and deletes
/// alternate, so after `k` commits the database is in state `k % 2`.
pub fn commit_text(k: usize) -> &'static str {
    if k.is_multiple_of(2) {
        APPEND
    } else {
        DELETE
    }
}

/// When the workload's commits run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Writer {
    /// Open loop at [`CONCURRENT_COMMITS_PER_S`] on its own connection,
    /// for the whole run, while the reader runs.
    Concurrent,
    /// Closed loop (each commit sent when the previous one returns) on a
    /// reader's connection, in [`COMMIT_WINDOWS`] windows spread over the
    /// run, each the last [`COMMIT_SHARE`] of its cycle, while the readers
    /// pause: commits on an idle server, never concurrent with a read.
    Between,
}

/// Commit rate of the `write` workload's writer.
pub const CONCURRENT_COMMITS_PER_S: f64 = 25.0;
/// Read/commit cycles per `mix` or `probe` run.
pub const COMMIT_WINDOWS: usize = 10;
/// Share of each cycle that `mix` and `probe` spend committing.
pub const COMMIT_SHARE: f64 = 0.1;

/// One workload: data scale, query set, connections and writer.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// `server_mix_db` scale: |S1| = |S2| = scale, |E1| = scale / 2.
    pub scale: usize,
    /// Indices into [`MIX`] the readers draw from.
    pub labels: &'static [usize],
    /// Closed-loop reader connections.
    pub readers: usize,
    /// When commits run.
    pub writer: Writer,
    /// Reader passes per reader stream that the traced run replays (with
    /// one commit after each round of passes).
    pub trace_passes: usize,
}

const ALL: &[usize] = &[0, 1, 2, 3, 4, 5];
const NO_JOIN: &[usize] = &[1, 2, 3, 4, 5];

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mix",
        scale: 120,
        labels: ALL,
        readers: 2,
        writer: Writer::Between,
        trace_passes: 15,
    },
    Workload {
        name: "probe",
        scale: 120,
        labels: NO_JOIN,
        readers: 2,
        writer: Writer::Between,
        trace_passes: 60,
    },
    Workload {
        name: "write",
        scale: 1200,
        labels: NO_JOIN,
        readers: 1,
        writer: Writer::Concurrent,
        trace_passes: 60,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The literal a parameterised `MIX` query carries: `(label index, text
/// before the literal, literal in MIX, values the seed draws from)`.  The
/// drawn values are exactly those present in the data.
const LITERALS: &[(usize, &str, i64, (i64, i64))] = &[
    (2, "S1.sdept = ", 3, (0, 9)),
    (3, "T.dept.floor = ", 5, (1, 6)),
    (4, "S2.dept.floor = ", 2, (1, 6)),
];

/// `MIX` label `label` with its literal (if it has one) set to `value`.
pub fn instantiate(label: usize, value: Option<i64>) -> String {
    let src = MIX[label].1;
    match (LITERALS.iter().find(|l| l.0 == label), value) {
        (Some(&(_, prefix, default, _)), Some(v)) => {
            let from = format!("{prefix}{default}");
            assert!(
                src.contains(&from),
                "MIX query {} no longer contains `{from}`",
                MIX[label].0
            );
            src.replace(&from, &format!("{prefix}{v}"))
        }
        _ => src.to_string(),
    }
}

/// Every request text a workload can generate, with its label.
pub fn distinct_texts(labels: &[usize]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for &label in labels {
        match LITERALS.iter().find(|l| l.0 == label) {
            Some(&(_, _, _, (lo, hi))) => {
                out.extend((lo..=hi).map(|v| (label, instantiate(label, Some(v)))))
            }
            None => out.push((label, instantiate(label, None))),
        }
    }
    out
}

/// SplitMix64: a small, fixed, seedable generator, so the inputs for a
/// seed never depend on a library's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, separated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One generated read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Index into [`MIX`].
    pub label: usize,
    /// The wire text.
    pub text: String,
}

/// One reader's request stream: passes over the workload's query set,
/// each pass in a freshly shuffled order with fresh literals.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    labels: &'static [usize],
}

impl Stream {
    /// Stream of reader `reader` under `seed`.
    pub fn new(w: &Workload, seed: u64, reader: usize) -> Self {
        Stream {
            rng: Rng::new(seed, 1 + reader as u64),
            labels: w.labels,
        }
    }

    /// The next pass: every label once, shuffled, literals drawn.
    pub fn next_pass(&mut self) -> Vec<Request> {
        let mut order = self.labels.to_vec();
        for i in (1..order.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
            .into_iter()
            .map(|label| {
                let value = LITERALS
                    .iter()
                    .find(|l| l.0 == label)
                    .map(|&(_, _, _, (lo, hi))| lo + self.rng.below((hi - lo + 1) as u64) as i64);
                Request {
                    label,
                    text: instantiate(label, value),
                }
            })
            .collect()
    }
}

/// How long reader `reader` waits before its first request: 0–20 ms.
pub fn stagger(seed: u64, reader: usize) -> Duration {
    let mut rng = Rng::new(seed, 1000 + reader as u64);
    Duration::from_micros(rng.below(20_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let w = workload("mix").unwrap();
        let pass = |seed| Stream::new(&w, seed, 0).next_pass();
        assert_eq!(pass(7), pass(7));
        assert!((0..20).any(|s| pass(s) != pass(7)));
    }

    #[test]
    fn every_generated_text_is_a_distinct_text() {
        for w in WORKLOADS {
            let texts = distinct_texts(w.labels);
            let mut s = Stream::new(w, 3, 0);
            for _ in 0..50 {
                let pass = s.next_pass();
                assert_eq!(pass.len(), w.labels.len());
                for r in pass {
                    assert!(texts.contains(&(r.label, r.text)));
                }
            }
        }
    }

    #[test]
    fn literals_substitute_into_the_mix_text() {
        assert!(instantiate(2, Some(7)).ends_with("S1.sdept = 7"));
        assert_eq!(instantiate(1, None), MIX[1].1);
        assert_eq!(distinct_texts(ALL).len(), 1 + 1 + 10 + 6 + 6 + 1);
    }
}
