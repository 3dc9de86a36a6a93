//! Recorded results every op is checked against.
//!
//! One file per workload under `expected/`. A line `ops <set> <v>...`
//! holds, for input set `<set>`, the expected outcome of each op in plan
//! order: a 16-hex-digit digest of the op's `SimStats` and `CpiStack`
//! JSON on `repair-ladder` and `multipath`, the committed-instruction
//! count of a divergence-free case on `fuzz`. A line `sim <set> <digest>`
//! (fuzz only) holds the digest of the campaign's simulated statistics.
//! The values are this repository's own recorded results; regenerate
//! them with `perfbench --workload <name> --record` only when a change
//! is meant to alter simulated results.

use std::collections::BTreeMap;

use crate::Kind;

/// The recorded outcomes of one workload, by input set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    ops: BTreeMap<u64, Vec<String>>,
    sim: BTreeMap<u64, String>,
}

impl Expected {
    /// The table committed for `kind`.
    ///
    /// # Panics
    ///
    /// When the committed file is malformed (a defect in this package).
    pub fn committed(kind: Kind) -> Expected {
        let text = match kind {
            Kind::RepairLadder => include_str!("../expected/repair-ladder.txt"),
            Kind::Multipath => include_str!("../expected/multipath.txt"),
            Kind::Fuzz => include_str!("../expected/fuzz.txt"),
        };
        Expected::parse(text).expect("committed expected-results file parses")
    }

    /// Parses the text format described in the module documentation.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut out = Expected::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let tag = words.next().unwrap_or_default();
            let set = words
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("line {}: missing input-set number", n + 1))?;
            let values: Vec<String> = words.map(str::to_string).collect();
            match (tag, values.as_slice()) {
                ("ops", _) => {
                    out.ops.insert(set, values);
                }
                ("sim", [digest]) => {
                    out.sim.insert(set, digest.clone());
                }
                _ => return Err(format!("line {}: malformed", n + 1)),
            }
        }
        Ok(out)
    }

    /// Records the outcomes of one input set.
    pub fn insert(&mut self, set: u64, ops: Vec<String>, sim: Option<String>) {
        self.ops.insert(set, ops);
        if let Some(sim) = sim {
            self.sim.insert(set, sim);
        }
    }

    /// Expected outcome of op `index` of input set `set`.
    pub fn op(&self, set: u64, index: usize) -> Option<&str> {
        self.ops.get(&set)?.get(index).map(String::as_str)
    }

    /// Expected campaign digest of input set `set` (fuzz only).
    pub fn sim(&self, set: u64) -> Option<&str> {
        self.sim.get(&set).map(String::as_str)
    }

    /// Renders the table in the format [`Expected::parse`] reads.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        for (set, ops) in &self.ops {
            out.push_str(&format!("ops {set} {}\n", ops.join(" ")));
        }
        for (set, digest) in &self.sim {
            out.push_str(&format!("sim {set} {digest}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let mut e = Expected::default();
        e.insert(0, vec!["12".into(), "34".into()], Some("abcd".into()));
        e.insert(3, vec!["56".into()], None);
        let back = Expected::parse(&e.render("header line")).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.op(0, 1), Some("34"));
        assert_eq!(back.op(1, 0), None);
        assert_eq!(back.sim(0), Some("abcd"));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Expected::parse("ops x 1 2").is_err());
        assert!(Expected::parse("sim 0").is_err());
        assert!(Expected::parse("bogus 0 1").is_err());
    }
}
