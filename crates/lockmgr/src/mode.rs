//! Lock modes and Gray's compatibility matrix.
//!
//! The five classical modes of Gray et al. (1976): shared (`S`),
//! exclusive (`X`), and the intention modes (`IS`, `IX`, `SIX`) used by
//! multi-granularity locking. The paper's simulation uses exclusive
//! granule locks only (every conflict blocks), but the lock-table
//! substrate implements the full matrix so the hierarchy extension and
//! read/write workloads are expressible.

use lockgran_sim::named_enum;

named_enum! {
    /// A lock mode. Declared in escalation order, which the derived `Ord`
    /// follows.
    #[derive(PartialOrd, Ord)]
    pub enum LockMode {
        /// Intention shared: finer-grained S locks will be taken below.
        IS => "IS",
        /// Intention exclusive: finer-grained X locks will be taken below.
        IX => "IX",
        /// Shared: read the whole granule.
        S => "S",
        /// Shared + intention exclusive: read the whole granule, write parts.
        SIX => "SIX",
        /// Exclusive: read/write the whole granule.
        X => "X",
    }
}

impl LockMode {
    /// Gray's compatibility matrix: can `self` be granted while `held` is
    /// held by a *different* transaction?
    pub fn compatible(self, held: LockMode) -> bool {
        use LockMode::*;
        match (self, held) {
            (IS, X) | (X, IS) => false,
            (IS, _) | (_, IS) => true,
            (IX, IX) => true,
            (IX, _) | (_, IX) => false,
            (S, S) => true,
            (S, _) | (_, S) => false,
            // Remaining: SIX and X against {SIX, X} — all conflict.
            _ => false,
        }
    }

    /// Least upper bound of two modes: the weakest single mode at least as
    /// strong as both (used for lock upgrades / re-requests).
    pub fn supremum(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self == other {
            return self;
        }
        match (self.min(other), self.max(other)) {
            (IS, IX) => IX,
            (IS, S) => S,
            (IS, SIX) | (IX, S) | (IX, SIX) | (S, SIX) => SIX,
            (_, X) => X,
            _ => unreachable!("min/max covered all distinct pairs"),
        }
    }

    /// True if this mode permits modifying (part of) the granule.
    pub fn is_write_intent(self) -> bool {
        matches!(self, LockMode::IX | LockMode::SIX | LockMode::X)
    }

    /// The intention mode required on an *ancestor* before taking `self`
    /// on a descendant (Gray's protocol): `IS` for read-side modes, `IX`
    /// for write-side modes.
    pub fn required_ancestor_intent(self) -> LockMode {
        if self.is_write_intent() {
            LockMode::IX
        } else {
            LockMode::IS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    /// The canonical matrix from Gray et al. (1976), row = requested,
    /// column = held, order IS, IX, S, SIX, X.
    const MATRIX: [[bool; 5]; 5] = [
        [true, true, true, true, false],     // IS
        [true, true, false, false, false],   // IX
        [true, false, true, false, false],   // S
        [true, false, false, false, false],  // SIX
        [false, false, false, false, false], // X
    ];

    #[test]
    fn compatibility_matches_grays_matrix() {
        for (i, &a) in LockMode::ALL.iter().enumerate() {
            for (j, &b) in LockMode::ALL.iter().enumerate() {
                assert_eq!(
                    a.compatible(b),
                    MATRIX[i][j],
                    "compat({a}, {b}) disagrees with Gray's matrix"
                );
            }
        }
    }

    #[test]
    fn compatibility_is_symmetric() {
        for &a in &LockMode::ALL {
            for &b in &LockMode::ALL {
                assert_eq!(a.compatible(b), b.compatible(a), "asymmetry at ({a}, {b})");
            }
        }
    }

    #[test]
    fn x_conflicts_with_everything() {
        for &m in &LockMode::ALL {
            assert!(!X.compatible(m));
        }
    }

    #[test]
    fn supremum_is_commutative_idempotent_and_dominating() {
        for &a in &LockMode::ALL {
            assert_eq!(a.supremum(a), a);
            for &b in &LockMode::ALL {
                let s = a.supremum(b);
                assert_eq!(s, b.supremum(a), "supremum not commutative at ({a}, {b})");
                // The supremum conflicts with at least everything a and b
                // conflict with.
                for &c in &LockMode::ALL {
                    if !a.compatible(c) || !b.compatible(c) {
                        assert!(
                            !s.compatible(c),
                            "sup({a},{b})={s} is compatible with {c} but one input is not"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn specific_suprema() {
        assert_eq!(S.supremum(IX), SIX);
        assert_eq!(IS.supremum(IX), IX);
        assert_eq!(S.supremum(X), X);
        assert_eq!(SIX.supremum(IX), SIX);
    }

    #[test]
    fn ancestor_intents() {
        assert_eq!(S.required_ancestor_intent(), IS);
        assert_eq!(IS.required_ancestor_intent(), IS);
        assert_eq!(X.required_ancestor_intent(), IX);
        assert_eq!(IX.required_ancestor_intent(), IX);
        assert_eq!(SIX.required_ancestor_intent(), IX);
    }
}
