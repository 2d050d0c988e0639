//! The mutations `warm_maintain` and `durable_ingest` apply, generated
//! against a simulated copy of the database so that every delete hits a
//! present tuple and every resolution a present null.

use certa::data::{Const, Database, NullId, Tuple, Value};
use rand::prelude::*;

/// One call to a `Database` mutator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Update {
    Insert(String, Tuple),
    InsertAll(String, Vec<Tuple>),
    Delete(String, Tuple),
    Resolve(NullId, Const),
}

impl Update {
    /// Apply through the public mutators. A delete that finds nothing or a
    /// resolution that rewrites nothing means the generated sequence and
    /// the database disagree, which is an error.
    pub fn apply(&self, db: &mut Database) -> Result<(), String> {
        match self {
            Update::Insert(rel, t) => db.insert(rel, t.clone()).map_err(|e| e.to_string()),
            Update::InsertAll(rel, ts) => db
                .insert_all(rel, ts.iter().cloned())
                .map_err(|e| e.to_string()),
            Update::Delete(rel, t) => match db.delete(rel, t) {
                Ok(true) => Ok(()),
                Ok(false) => Err(format!("delete of {t:?} from {rel} found nothing")),
                Err(e) => Err(e.to_string()),
            },
            Update::Resolve(null, value) => match db.resolve_null(*null, value.clone()) {
                0 => Err(format!("resolving null {null} rewrote nothing")),
                _ => Ok(()),
            },
        }
    }
}

/// A random tuple of `relation` that `db` does not hold yet, built from
/// `values`.
pub fn fresh_tuple(
    db: &Database,
    relation: &str,
    values: &[Value],
    rng: &mut StdRng,
) -> Option<Tuple> {
    let arity = db.schema().relation(relation).ok()?.arity();
    let rel = db.relation(relation).ok()?;
    (0..64)
        .map(|_| Tuple::new((0..arity).map(|_| values[rng.gen_range(0..values.len())].clone())))
        .find(|t| !rel.contains(t))
}

/// A random tuple `db` holds in `relation` that satisfies `keep`.
pub fn present_tuple(
    db: &Database,
    relation: &str,
    rng: &mut StdRng,
    keep: impl Fn(&Tuple) -> bool,
) -> Option<Tuple> {
    let candidates: Vec<&Tuple> = db
        .relation(relation)
        .ok()?
        .iter()
        .filter(|t| keep(t))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.gen_range(0..candidates.len())].clone())
}

/// A random null still present in `db`.
pub fn present_null(db: &Database, rng: &mut StdRng) -> Option<NullId> {
    let nulls: Vec<NullId> = db.nulls().into_iter().collect();
    if nulls.is_empty() {
        return None;
    }
    Some(nulls[rng.gen_range(0..nulls.len())])
}
