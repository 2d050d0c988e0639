//! Set-semantics relations.

use crate::tuple::Tuple;
use crate::value::{Const, NullId, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A relation under set semantics: a finite set of tuples of a fixed arity
/// over `Const ∪ Null`.
///
/// Tuples are kept in a `BTreeSet`, so iteration order is deterministic and
/// two relations with the same content always compare equal — a property the
/// test-suite and the certain-answer computations rely on heavily.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Relation {
    arity: usize,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// Create an empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Relation {
            arity,
            tuples: BTreeSet::new(),
        }
    }

    /// Create a relation from tuples. The arity is taken from the first
    /// tuple; an **empty** iterator yields the empty relation of arity 0
    /// (matching the `FromIterator` impl). When the intended arity of an
    /// empty relation matters, use [`Relation::empty`] or
    /// [`Relation::with_arity`]; to detect emptiness, use
    /// [`Relation::try_from_tuples`].
    ///
    /// # Panics
    ///
    /// Panics if the tuples do not all have the same arity.
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        Self::try_from_tuples(tuples).unwrap_or_else(|| Relation::empty(0))
    }

    /// Fallible variant of [`Relation::from_tuples`]: returns `None` on an
    /// empty iterator (whose arity cannot be inferred) instead of defaulting
    /// to arity 0.
    ///
    /// # Panics
    ///
    /// Panics if the tuples do not all have the same arity.
    pub fn try_from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Option<Self> {
        let tuples: BTreeSet<Tuple> = tuples.into_iter().collect();
        let arity = tuples.iter().next()?.arity();
        assert!(
            tuples.iter().all(|t| t.arity() == arity),
            "Relation::try_from_tuples: mixed arities"
        );
        Some(Relation { arity, tuples })
    }

    /// Create a relation with a known arity from tuples (which may be empty).
    ///
    /// # Panics
    ///
    /// Panics if a tuple has a different arity.
    pub fn with_arity(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let tuples: BTreeSet<Tuple> = tuples.into_iter().collect();
        assert!(
            tuples.iter().all(|t| t.arity() == arity),
            "Relation::with_arity: tuple arity differs from declared arity {arity}"
        );
        Relation { arity, tuples }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Insert a tuple. Returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if the tuple has the wrong arity.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.arity(),
            self.arity,
            "Relation::insert: arity mismatch (relation {}, tuple {})",
            self.arity,
            t.arity()
        );
        self.tuples.insert(t)
    }

    /// Remove a tuple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.tuples.remove(t)
    }

    /// Iterate over the tuples in canonical (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Consume the relation, yielding its tuples.
    pub fn into_tuples(self) -> BTreeSet<Tuple> {
        self.tuples
    }

    /// Set union (requires equal arities).
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity, "union: arity mismatch");
        Relation {
            arity: self.arity,
            tuples: self.tuples.union(&other.tuples).cloned().collect(),
        }
    }

    /// Set intersection (requires equal arities).
    pub fn intersection(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity, "intersection: arity mismatch");
        Relation {
            arity: self.arity,
            tuples: self.tuples.intersection(&other.tuples).cloned().collect(),
        }
    }

    /// Set difference `self − other` (requires equal arities).
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity, "difference: arity mismatch");
        Relation {
            arity: self.arity,
            tuples: self.tuples.difference(&other.tuples).cloned().collect(),
        }
    }

    /// `true` iff every tuple of `self` is in `other`.
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        self.tuples.is_subset(&other.tuples)
    }

    /// Cartesian product; tuples are concatenated.
    pub fn product(&self, other: &Relation) -> Relation {
        let mut out = Relation::empty(self.arity + other.arity);
        for a in &self.tuples {
            for b in &other.tuples {
                out.tuples.insert(a.concat(b));
            }
        }
        out
    }

    /// Projection onto the given 0-based positions.
    pub fn project(&self, positions: &[usize]) -> Relation {
        let mut out = Relation::empty(positions.len());
        for t in &self.tuples {
            out.tuples.insert(t.project(positions));
        }
        out
    }

    /// Keep only tuples satisfying the predicate.
    pub fn filter(&self, mut pred: impl FnMut(&Tuple) -> bool) -> Relation {
        Relation {
            arity: self.arity,
            tuples: self.tuples.iter().filter(|t| pred(t)).cloned().collect(),
        }
    }

    /// Map every tuple (the arity may change, but must change uniformly).
    pub fn map(&self, f: impl FnMut(&Tuple) -> Tuple) -> Relation {
        let tuples: BTreeSet<Tuple> = self.tuples.iter().map(f).collect();
        let arity = tuples.iter().next().map_or(self.arity, Tuple::arity);
        Relation { arity, tuples }
    }

    /// All nulls occurring in the relation.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.tuples.iter().flat_map(|t| t.nulls()).collect()
    }

    /// All constants occurring in the relation, collected in one pass into
    /// one set.
    pub fn consts(&self) -> BTreeSet<Const> {
        self.tuples
            .iter()
            .flat_map(Tuple::iter)
            .filter_map(Value::as_const)
            .cloned()
            .collect()
    }

    /// All values (the relation's contribution to the active domain).
    pub fn values(&self) -> BTreeSet<Value> {
        self.tuples.iter().flat_map(|t| t.iter().cloned()).collect()
    }

    /// `true` iff the relation mentions no nulls (it is *complete*).
    pub fn is_complete(&self) -> bool {
        self.tuples.iter().all(Tuple::all_const)
    }

    /// Keep only the tuples consisting entirely of constants
    /// (`R ∩ Const^k`, used when relating `cert⊥` and `cert∩`).
    pub fn const_tuples(&self) -> Relation {
        self.filter(Tuple::all_const)
    }

    /// The Boolean reading of a 0-ary relation: `true` iff it contains the
    /// empty tuple (§2: true ↔ `{()}`, false ↔ `∅`).
    pub fn as_bool(&self) -> bool {
        !self.tuples.is_empty()
    }

    /// Build the 0-ary relation encoding a Boolean value.
    pub fn from_bool(b: bool) -> Relation {
        if b {
            Relation::with_arity(0, [Tuple::empty()])
        } else {
            Relation::empty(0)
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        let tuples: BTreeSet<Tuple> = iter.into_iter().collect();
        let arity = tuples.iter().next().map_or(0, Tuple::arity);
        let rel = Relation { arity, tuples };
        assert!(
            rel.tuples.iter().all(|t| t.arity() == rel.arity),
            "Relation::from_iter: mixed arities"
        );
        rel
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::collections::btree_set::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn r() -> Relation {
        Relation::from_tuples(vec![tup![1, 2], tup![3, Value::null(0)]])
    }

    #[test]
    fn build_and_query() {
        let r = r();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tup![1, 2]));
        assert!(!r.contains(&tup![2, 1]));
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "mixed arities")]
    fn mixed_arity_panics() {
        let _ = Relation::from_tuples(vec![tup![1], tup![1, 2]]);
    }

    #[test]
    fn empty_iterator_no_longer_panics() {
        // The seed panicked here; an empty iterator now yields the arity-0
        // empty relation, consistent with `FromIterator`.
        let r = Relation::from_tuples(Vec::new());
        assert!(r.is_empty());
        assert_eq!(r.arity(), 0);
    }

    #[test]
    fn try_from_tuples_detects_emptiness() {
        assert_eq!(Relation::try_from_tuples(Vec::new()), None);
        let r = Relation::try_from_tuples(vec![tup![1, 2]]).unwrap();
        assert_eq!(r.arity(), 2);
        assert_eq!(r, Relation::from_tuples(vec![tup![1, 2]]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn insert_wrong_arity_panics() {
        let mut r = Relation::empty(2);
        r.insert(tup![1]);
    }

    #[test]
    fn insert_and_remove() {
        let mut r = Relation::empty(1);
        assert!(r.insert(tup![1]));
        assert!(!r.insert(tup![1]));
        assert!(r.remove(&tup![1]));
        assert!(!r.remove(&tup![1]));
        assert!(r.is_empty());
    }

    #[test]
    fn set_operations() {
        let a = Relation::from_tuples(vec![tup![1], tup![2]]);
        let b = Relation::from_tuples(vec![tup![2], tup![3]]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersection(&b).len(), 1);
        assert_eq!(a.difference(&b), Relation::from_tuples(vec![tup![1]]));
        assert!(a.intersection(&b).is_subset_of(&a));
    }

    #[test]
    fn product_and_project() {
        let a = Relation::from_tuples(vec![tup![1], tup![2]]);
        let b = Relation::from_tuples(vec![tup!["x"]]);
        let p = a.product(&b);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.len(), 2);
        assert!(p.contains(&tup![1, "x"]));
        let pr = p.project(&[1]);
        assert_eq!(pr.len(), 1);
        assert!(pr.contains(&tup!["x"]));
    }

    #[test]
    fn projection_collapses_duplicates() {
        let a = Relation::from_tuples(vec![tup![1, 10], tup![1, 20]]);
        assert_eq!(a.project(&[0]).len(), 1);
    }

    #[test]
    fn null_const_extraction_and_completeness() {
        let r = r();
        assert_eq!(r.nulls().len(), 1);
        assert!(r.consts().contains(&Const::Int(3)));
        assert!(!r.is_complete());
        assert_eq!(r.const_tuples().len(), 1);
        assert!(Relation::from_tuples(vec![tup![1, 2]]).is_complete());
    }

    #[test]
    fn boolean_encoding() {
        assert!(Relation::from_bool(true).as_bool());
        assert!(!Relation::from_bool(false).as_bool());
        assert_eq!(Relation::from_bool(true).arity(), 0);
        assert_eq!(Relation::from_bool(true).len(), 1);
    }

    #[test]
    fn values_is_active_domain_contribution() {
        let r = r();
        let vals = r.values();
        assert_eq!(vals.len(), 4);
        assert!(vals.contains(&Value::null(0)));
        assert!(vals.contains(&Value::int(1)));
    }

    #[test]
    fn filter_and_map() {
        let r = r();
        let only_complete = r.filter(Tuple::all_const);
        assert_eq!(only_complete.len(), 1);
        let mapped = r.map(|t| t.project(&[0]));
        assert_eq!(mapped.arity(), 1);
        assert_eq!(mapped.len(), 2);
    }

    #[test]
    fn deterministic_equality() {
        let a = Relation::from_tuples(vec![tup![2], tup![1]]);
        let b = Relation::from_tuples(vec![tup![1], tup![2]]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "{(1), (2)}");
    }
}
