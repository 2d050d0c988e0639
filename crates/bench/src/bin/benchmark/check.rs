//! Expected answers, computed through paths that do not go through
//! `Pipeline`, and the check every timed response must pass.
//!
//! Responses are reduced to a [`Summary`] while the passes run and
//! checked once the oracle has run afterwards, so the oracle's memory
//! never counts toward the run's peak RSS.

use certa::certain::cert::CandidateStatus;
use certa::data::{Database, Relation, Tuple};
use certa::{Label, LabeledAnswers, Verdict};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// What a correct response must look like: its labeled rows, reduced to a
/// fingerprint, and its certain rows, which a degraded response may only
/// shrink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    fingerprint: u64,
    certain: BTreeSet<Tuple>,
}

/// A response as the check needs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Summary {
    /// An exact response (or any other checked state), by fingerprint.
    Exact(u64),
    /// A degraded response's certain rows.
    Degraded(BTreeSet<Tuple>),
    /// A refusal, with its reason.
    Refused(String),
}

fn label_code(label: Label) -> u8 {
    match label {
        Label::Certain => 0,
        Label::Possible => 1,
        Label::CertainlyFalse => 2,
    }
}

/// Order-insensitive fingerprint of labeled rows. `DefaultHasher::new()`
/// is unkeyed, so equal rows hash equally across processes.
fn fingerprint<'a>(rows: impl Iterator<Item = (&'a Tuple, Label)>) -> u64 {
    let mut sorted: Vec<(&Tuple, u8)> = rows.map(|(t, l)| (t, label_code(l))).collect();
    sorted.sort();
    fingerprint_of(&sorted)
}

/// Fingerprint of any hashable value.
pub fn fingerprint_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Fingerprint of a database's contents.
pub fn state_fingerprint(db: &Database) -> u64 {
    let mut h = DefaultHasher::new();
    for (name, rel) in db.iter() {
        name.hash(&mut h);
        for t in rel.iter() {
            t.hash(&mut h);
        }
    }
    h.finish()
}

impl Summary {
    pub fn of(got: &LabeledAnswers) -> Summary {
        match &got.verdict {
            Verdict::Exact => Summary::Exact(fingerprint(got.rows.iter().map(|(t, l)| (t, *l)))),
            Verdict::Degraded(_) => Summary::Degraded(
                got.rows
                    .iter()
                    .filter(|(_, l)| *l == Label::Certain)
                    .map(|(t, _)| t.clone())
                    .collect(),
            ),
            Verdict::Refused(why) => Summary::Refused(why.clone()),
        }
    }
}

impl Expected {
    /// From labeled rows.
    pub fn from_rows(rows: &[(Tuple, Label)]) -> Expected {
        Expected {
            fingerprint: fingerprint(rows.iter().map(|(t, l)| (t, *l))),
            certain: rows
                .iter()
                .filter(|(_, l)| *l == Label::Certain)
                .map(|(t, _)| t.clone())
                .collect(),
        }
    }

    /// From an exact classifier's statuses of the naive candidates, labeled
    /// the way `Scheme::Exact` labels them.
    pub fn from_statuses(candidates: &[Tuple], statuses: &[CandidateStatus]) -> Expected {
        let rows: Vec<(Tuple, Label)> = candidates
            .iter()
            .zip(statuses)
            .map(|(t, s)| {
                let label = if s.certain {
                    Label::Certain
                } else if s.possible {
                    Label::Possible
                } else {
                    Label::CertainlyFalse
                };
                (t.clone(), label)
            })
            .collect();
        Expected::from_rows(&rows)
    }

    /// From a `(certain, rest)` pair such as `(Q+, Q?)` or a c-table's
    /// certain and possible tuples: the rest, minus the certain ones, is
    /// labeled `Possible`.
    pub fn from_pair(certain: &Relation, rest: &Relation) -> Expected {
        let mut rows: Vec<(Tuple, Label)> = certain
            .iter()
            .map(|t| (t.clone(), Label::Certain))
            .collect();
        rows.extend(
            rest.iter()
                .filter(|t| !certain.contains(t))
                .map(|t| (t.clone(), Label::Possible)),
        );
        Expected::from_rows(&rows)
    }

    /// A state that must be reproduced exactly, by fingerprint.
    pub fn state(fingerprint: u64) -> Expected {
        Expected {
            fingerprint,
            certain: BTreeSet::new(),
        }
    }

    /// The certain rows.
    pub fn certain(&self) -> &BTreeSet<Tuple> {
        &self.certain
    }

    /// Check a response: an exact one must carry exactly the expected
    /// rows and labels; a degraded one may only drop certain rows; a
    /// refusal always fails.
    pub fn check(&self, got: &Summary) -> Result<(), String> {
        match got {
            Summary::Exact(fp) if *fp == self.fingerprint => Ok(()),
            Summary::Exact(_) => Err("labeled rows differ from the expected answer".to_string()),
            Summary::Degraded(certain) => match certain.difference(&self.certain).next() {
                None => Ok(()),
                Some(t) => Err(format!("degraded answer labels {t:?} certain")),
            },
            Summary::Refused(why) => Err(format!("refused: {why}")),
        }
    }
}
