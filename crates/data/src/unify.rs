//! Tuple unification.
//!
//! Two tuples `r̄` and `s̄` *unify*, written `r̄ ⇑ s̄`, if there is a valuation
//! `v` with `v(r̄) = v(s̄)` (§4.2, §5.1 of the survey). Unifiability is
//! decidable in linear time (Paterson–Wegman); for the flat terms used here a
//! simple union–find over nulls suffices.
//!
//! Unification is the workhorse of both approximation schemes: the
//! `⋉⇑` anti-semijoin of (Qt,Qf) and (Q+,Q?) keeps the tuples of the left
//! argument that unify with **no** tuple of the right argument, and the
//! unification semantics `⟦·⟧unif` of §5.1 declares `R(ā)` false only when no
//! tuple of `R` unifies with `ā`.

use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::{Const, NullId, Value};

/// Union–find over the nulls of one pair of tuples, with optional constant
/// labels borrowed from the tuples. A pair holds at most twice its arity
/// in distinct nulls, so a null's class is found by a linear scan.
#[derive(Debug, Default)]
struct NullClasses<'a> {
    classes: Vec<NullClass<'a>>,
}

#[derive(Debug)]
struct NullClass<'a> {
    null: NullId,
    /// Index of the parent class; a root is its own parent.
    parent: usize,
    /// The constant a root's class is bound to (unused on non-roots).
    constant: Option<&'a Const>,
}

impl<'a> NullClasses<'a> {
    /// The index of the root of null `n`'s class, adding `n` as a singleton
    /// class if new.
    fn find(&mut self, n: NullId) -> usize {
        let Some(mut i) = self.classes.iter().position(|c| c.null == n) else {
            self.classes.push(NullClass {
                null: n,
                parent: self.classes.len(),
                constant: None,
            });
            return self.classes.len() - 1;
        };
        while self.classes[i].parent != i {
            let grandparent = self.classes[self.classes[i].parent].parent;
            self.classes[i].parent = grandparent;
            i = grandparent;
        }
        i
    }

    /// Merge the classes of two nulls. Fails if their constant labels clash.
    fn union(&mut self, a: NullId, b: NullId) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return true;
        }
        match (self.classes[ra].constant, self.classes[rb].constant) {
            (Some(ca), Some(cb)) if ca != cb => false,
            (ca, cb) => {
                self.classes[ra].parent = rb;
                self.classes[rb].constant = ca.or(cb);
                true
            }
        }
    }

    /// Bind a null's class to a constant. Fails on clash.
    fn bind(&mut self, n: NullId, c: &'a Const) -> bool {
        let r = self.find(n);
        match self.classes[r].constant {
            Some(existing) => existing == c,
            None => {
                self.classes[r].constant = Some(c);
                true
            }
        }
    }
}

/// The null classes that equalize two same-arity tuples position by
/// position, or `None` when some position forces a clash.
fn null_classes<'a>(r: &'a Tuple, s: &'a Tuple) -> Option<NullClasses<'a>> {
    let mut classes = NullClasses::default();
    for (a, b) in r.iter().zip(s.iter()) {
        let ok = match (a, b) {
            (Value::Const(ca), Value::Const(cb)) => ca == cb,
            (Value::Null(n), Value::Const(c)) | (Value::Const(c), Value::Null(n)) => {
                classes.bind(*n, c)
            }
            (Value::Null(n), Value::Null(m)) => classes.union(*n, *m),
        };
        if !ok {
            return None;
        }
    }
    Some(classes)
}

/// `true` iff `r̄ ⇑ s̄`, i.e. some valuation makes the tuples equal.
///
/// Returns `false` when the arities differ. Builds no witness: constants
/// are compared first, with an early exit, and the null classes are built
/// only when a null occurs.
pub fn unifiable(r: &Tuple, s: &Tuple) -> bool {
    if r.arity() != s.arity() {
        return false;
    }
    let mut has_null = false;
    for (a, b) in r.iter().zip(s.iter()) {
        match (a, b) {
            (Value::Const(ca), Value::Const(cb)) => {
                if ca != cb {
                    return false;
                }
            }
            _ => has_null = true,
        }
    }
    !has_null || null_classes(r, s).is_some()
}

/// Compute a most general unifier of two tuples, if one exists.
///
/// The returned [`Valuation`] maps every null occurring in either tuple to a
/// constant such that applying it to both tuples yields the same
/// all-constant tuple. Nulls whose class is not forced to any constant are
/// mapped to a canonical fresh constant per class (so the witness is total on
/// the tuples' nulls, as required by the definition of `⇑`).
pub fn unify(r: &Tuple, s: &Tuple) -> Option<Valuation> {
    if r.arity() != s.arity() {
        return None;
    }
    let mut classes = null_classes(r, s)?;
    // Build a witness valuation: constants forced by binding, otherwise a
    // fresh per-class constant.
    let mut val = Valuation::new();
    let nulls: Vec<NullId> = r
        .nulls()
        .into_iter()
        .chain(s.nulls())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for n in nulls {
        let root = classes.find(n);
        let root = &classes.classes[root];
        let c = match root.constant {
            Some(c) => c.clone(),
            None => Const::str(format!("§unif{}", root.null)),
        };
        val.assign(n, c);
    }
    Some(val)
}

/// `true` iff tuple `r̄` unifies with **some** tuple of the iterator.
pub fn unifies_with_any<'a>(r: &Tuple, others: impl IntoIterator<Item = &'a Tuple>) -> bool {
    others.into_iter().any(|s| unifiable(r, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn constants_unify_iff_equal() {
        assert!(unifiable(&tup![1, 2], &tup![1, 2]));
        assert!(!unifiable(&tup![1, 2], &tup![1, 3]));
    }

    #[test]
    fn arity_mismatch_never_unifies() {
        assert!(!unifiable(&tup![1], &tup![1, 1]));
    }

    #[test]
    fn null_against_constant() {
        assert!(unifiable(&tup![Value::null(0)], &tup![5]));
        let v = unify(&tup![Value::null(0)], &tup![5]).unwrap();
        assert_eq!(v.get(0), Some(&Const::Int(5)));
    }

    #[test]
    fn repeated_null_must_be_consistent() {
        // (⊥0, ⊥0) vs (1, 2) cannot unify; vs (1, 1) can.
        assert!(!unifiable(
            &tup![Value::null(0), Value::null(0)],
            &tup![1, 2]
        ));
        assert!(unifiable(
            &tup![Value::null(0), Value::null(0)],
            &tup![1, 1]
        ));
    }

    #[test]
    fn transitive_null_chains() {
        // (⊥0, ⊥1, 3) vs (⊥1, 2, 3): ⊥0~⊥1 and ⊥1=2 force ⊥0=2.
        let r = tup![Value::null(0), Value::null(1), 3];
        let s = tup![Value::null(1), 2, 3];
        let v = unify(&r, &s).unwrap();
        assert_eq!(v.get(0), Some(&Const::Int(2)));
        assert_eq!(v.get(1), Some(&Const::Int(2)));
        assert_eq!(v.apply_tuple(&r), v.apply_tuple(&s));
    }

    #[test]
    fn clash_through_chain_detected() {
        // ⊥0 forced to 1 via first position and to 2 via second.
        let r = tup![Value::null(0), Value::null(0)];
        let s = tup![1, 2];
        assert!(unify(&r, &s).is_none());
        // A longer chain: (⊥0, ⊥1) vs (⊥1, 5) and then ⊥0 vs 6 ⇒ clash.
        let a = tup![Value::null(0), Value::null(1), Value::null(0)];
        let b = tup![Value::null(1), 5, 6];
        assert!(!unifiable(&a, &b));
    }

    #[test]
    fn two_free_nulls_unify() {
        let r = tup![Value::null(0)];
        let s = tup![Value::null(1)];
        let v = unify(&r, &s).unwrap();
        assert_eq!(v.apply_tuple(&r), v.apply_tuple(&s));
        assert!(v.apply_tuple(&r).all_const());
    }

    #[test]
    fn witness_equalizes_tuples() {
        let r = tup![Value::null(0), 7, Value::null(1)];
        let s = tup![3, 7, Value::null(2)];
        let v = unify(&r, &s).expect("should unify");
        assert_eq!(v.apply_tuple(&r), v.apply_tuple(&s));
    }

    #[test]
    fn unifies_with_any_scans() {
        let pool = [tup![1, 2], tup![3, 4]];
        assert!(unifies_with_any(&tup![Value::null(0), 4], pool.iter()));
        assert!(!unifies_with_any(&tup![Value::null(0), 9], pool.iter()));
        assert!(!unifies_with_any(&tup![1, 1], pool.iter()));
    }

    #[test]
    fn unification_is_symmetric() {
        let r = tup![Value::null(0), 1];
        let s = tup![2, Value::null(1)];
        assert_eq!(unifiable(&r, &s), unifiable(&s, &r));
        let a = tup![Value::null(0), Value::null(0)];
        let b = tup![1, 2];
        assert_eq!(unifiable(&a, &b), unifiable(&b, &a));
    }
}
