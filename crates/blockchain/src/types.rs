//! Ledger-level identifiers and primitive types for the UTXO substrate.

/// A globally unique token (UTXO) identifier, minted in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u64);

/// A transaction identifier (position in global commit order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u64);

/// A block height.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockHeight(pub u64);

/// A token amount (indivisible units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Amount(pub u64);

impl Amount {
    pub const ZERO: Amount = Amount(0);

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, other: Amount) -> Option<Amount> {
        self.0.checked_add(other.0).map(Amount)
    }
}

impl std::ops::Add for Amount {
    type Output = Amount;
    fn add(self, rhs: Amount) -> Amount {
        Amount(self.0 + rhs.0)
    }
}

impl std::iter::Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |a, b| a + b)
    }
}

/// A wall-clock-free logical timestamp (block heights double as time).
pub type Timestamp = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amount_arithmetic() {
        assert_eq!(Amount(2) + Amount(3), Amount(5));
        assert_eq!(
            [Amount(1), Amount(2), Amount(3)]
                .into_iter()
                .sum::<Amount>(),
            Amount(6)
        );
        assert_eq!(Amount(u64::MAX).checked_add(Amount(1)), None);
        assert_eq!(Amount(1).checked_add(Amount(2)), Some(Amount(3)));
    }

    #[test]
    fn ids_are_ordered() {
        assert!(TokenId(1) < TokenId(2));
        assert!(BlockHeight(0) < BlockHeight(10));
    }
}
