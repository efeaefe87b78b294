//! Recorded outputs: per workload and seed, the folded digest of every
//! row and (for the sweep) the deadlock-row count of each scheme.
//!
//! The values live in `perfbench/expected.json`, compiled into the binary.
//! A seed with no recorded entry still runs every other check; its run
//! prints the entry it would record.

use crate::report::Outcome;
use serde::value::Value;
use std::collections::BTreeMap;

/// One recorded run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recorded {
    pub digest: String,
    pub deadlocks: BTreeMap<String, u64>,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The recorded entry for `workload` at `seed`, if any.
pub fn lookup(workload: &str, seed: u64) -> Option<Recorded> {
    let table: Value =
        serde_json::from_str(include_str!("../expected.json")).expect("expected.json parses");
    let entry = field(field(&table, workload)?, &seed.to_string())?;
    let deadlocks = field(entry, "deadlocks")
        .and_then(Value::as_map)
        .unwrap_or(&[])
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("deadlock counts are integers")))
        .collect();
    Some(Recorded {
        digest: field(entry, "digest")?.as_str()?.to_string(),
        deadlocks,
    })
}

/// Folds row digests, in order, into one workload digest (FNV-1a over the
/// concatenated hex digests).
pub fn fold<S: AsRef<str>>(digests: &[S]) -> String {
    let mut joined = String::new();
    for d in digests {
        joined.push_str(d.as_ref());
        joined.push('\n');
    }
    format!("{:016x}", mdx_serve::fnv1a64(joined.as_bytes()))
}

/// Checks a workload's row digests against the recorded entry, when the
/// seed has one, and returns the folded digest.
pub fn check_digest(out: &mut Outcome, rec: Option<&Recorded>, digests: &[String]) -> String {
    let digest = fold(digests);
    if let Some(rec) = rec {
        out.check(rec.digest == digest, || {
            format!("digest {digest} != recorded {}", rec.digest)
        });
    }
    digest
}

/// The line a run prints so its seed can be recorded.
pub fn record_line(workload: &str, seed: u64, rec: &Recorded) -> String {
    let deadlocks: Vec<String> = rec
        .deadlocks
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "record {workload} {seed} {{\"digest\": \"{}\", \"deadlocks\": {{{}}}}}",
        rec.digest,
        deadlocks.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_table_covers_the_baseline_seeds() {
        for w in ["sweep-faults", "stream-2048", "serve-mix"] {
            for seed in [crate::BASELINE_SEED, crate::HELD_OUT_SEED] {
                assert!(lookup(w, seed).is_some(), "{w} seed {seed} not recorded");
            }
        }
        let sweep = lookup("sweep-faults", crate::BASELINE_SEED).expect("recorded");
        assert_eq!(
            sweep.deadlocks.get("sr2201"),
            None,
            "the paper's scheme never deadlocks"
        );
        assert!(sweep.deadlocks["naive-broadcast"] > 0);
    }

    #[test]
    fn digest_check_fails_on_one_perturbed_row() {
        let rows: Vec<String> = (0..100).map(|i| format!("{i:016x}")).collect();
        let rec = Recorded {
            digest: fold(&rows),
            ..Recorded::default()
        };
        let mut out = Outcome::default();
        check_digest(&mut out, Some(&rec), &rows);
        assert!(out.correct());

        let mut perturbed = rows.clone();
        perturbed[57] = format!("{:016x}", 57u64 ^ 1);
        check_digest(&mut out, Some(&rec), &perturbed);
        let mut swapped = rows.clone();
        swapped.swap(3, 4);
        check_digest(&mut out, Some(&rec), &swapped);
        assert_eq!((out.attempted, out.failed), (3, 2));
    }
}
