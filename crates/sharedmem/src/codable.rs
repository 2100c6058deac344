//! Values a consensus object can hold, encoded as one `u64` word.

/// Values storable in a [`crate::ClusterMemory`] consensus object:
/// encodable into a `u64` word. Every word is a valid proposal.
///
/// Implementations must round-trip: `decode(encode(v)) == v`.
pub trait CodableValue: Copy + Eq {
    /// Encodes into a `u64` word.
    fn encode(self) -> u64;
    /// Decodes a value previously produced by [`CodableValue::encode`].
    fn decode(word: u64) -> Self;
}

impl CodableValue for bool {
    fn encode(self) -> u64 {
        self as u64
    }
    fn decode(word: u64) -> Self {
        word != 0
    }
}

impl CodableValue for u8 {
    fn encode(self) -> u64 {
        self as u64
    }
    fn decode(word: u64) -> Self {
        word as u8
    }
}

impl CodableValue for u32 {
    fn encode(self) -> u64 {
        self as u64
    }
    fn decode(word: u64) -> Self {
        word as u32
    }
}

impl<T: CodableValue> CodableValue for Option<T> {
    fn encode(self) -> u64 {
        match self {
            None => 0,
            // Shift by one so None and Some(zero-encoding) stay distinct.
            Some(v) => v.encode() + 1,
        }
    }
    fn decode(word: u64) -> Self {
        if word == 0 {
            None
        } else {
            Some(T::decode(word - 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codable_round_trips() {
        for v in [0u8, 1, 2, 255] {
            assert_eq!(u8::decode(v.encode()), v);
        }
        for v in [None, Some(true), Some(false)] {
            assert_eq!(Option::<bool>::decode(v.encode()), v);
        }
        assert_eq!(u32::decode(u32::MAX.encode()), u32::MAX);
    }
}
