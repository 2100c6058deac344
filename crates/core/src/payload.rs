//! Fixed-size application payloads.
//!
//! The consensus wire format stays `Copy` end-to-end (messages are hashed
//! into replay traces and stored in per-link queues by value), so
//! application data rides in a fixed 31-byte inline buffer. That is enough
//! for the command encodings of `ofa-smr`; larger application values can
//! be content-addressed on top (out of scope here).

use std::fmt;

/// Maximum payload length in bytes.
pub const MAX_PAYLOAD: usize = 31;

/// An inline, `Copy` application payload of up to [`MAX_PAYLOAD`] bytes.
///
/// # Examples
///
/// ```
/// use ofa_core::Payload;
///
/// let p = Payload::from_bytes(b"PUT k1 v1").unwrap();
/// assert_eq!(p.as_bytes(), b"PUT k1 v1");
/// assert_eq!(p.len(), 9);
/// assert!(Payload::from_bytes(&[0u8; 40]).is_none()); // too long
/// ```
///
/// Payloads serialize as their meaningful bytes (a JSON array), so
/// workloads carrying them — multivalued proposals, replicated-log
/// command queues — round-trip losslessly through scenario corpora.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
#[serde(try_from = "Vec<u8>", into = "Vec<u8>")]
pub struct Payload {
    len: u8,
    bytes: [u8; MAX_PAYLOAD],
}

impl Payload {
    /// The empty payload.
    pub fn empty() -> Self {
        Payload {
            len: 0,
            bytes: [0; MAX_PAYLOAD],
        }
    }

    /// Builds a payload from raw bytes; `None` if longer than
    /// [`MAX_PAYLOAD`].
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() > MAX_PAYLOAD {
            return None;
        }
        let mut bytes = [0u8; MAX_PAYLOAD];
        bytes[..data.len()].copy_from_slice(data);
        Some(Payload {
            len: data.len() as u8,
            bytes,
        })
    }

    /// The payload contents.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Number of meaningful bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` if the payload holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for Payload {
    fn default() -> Self {
        Self::empty()
    }
}

impl From<Payload> for Vec<u8> {
    fn from(p: Payload) -> Vec<u8> {
        p.as_bytes().to_vec()
    }
}

impl TryFrom<Vec<u8>> for Payload {
    type Error = String;

    fn try_from(bytes: Vec<u8>) -> Result<Self, String> {
        Payload::from_bytes(&bytes).ok_or_else(|| {
            format!(
                "Payload: {} bytes exceed the {MAX_PAYLOAD}-byte limit",
                bytes.len()
            )
        })
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(self.as_bytes()) {
            Ok(s) => write!(f, "Payload({s:?})"),
            Err(_) => write!(f, "Payload({:02x?})", self.as_bytes()),
        }
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(self.as_bytes()) {
            Ok(s) => write!(f, "{s}"),
            Err(_) => write!(f, "{:02x?}", self.as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_bounds() {
        let p = Payload::from_bytes(b"hello").unwrap();
        assert_eq!(p.as_bytes(), b"hello");
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        let max = Payload::from_bytes(&[7u8; MAX_PAYLOAD]).unwrap();
        assert_eq!(max.len(), MAX_PAYLOAD);
        assert!(Payload::from_bytes(&[7u8; MAX_PAYLOAD + 1]).is_none());
    }

    #[test]
    fn empty_and_default() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::default(), Payload::empty());
        assert_eq!(Payload::empty().len(), 0);
    }

    #[test]
    fn equality_includes_length() {
        let a = Payload::from_bytes(b"ab").unwrap();
        let b = Payload::from_bytes(b"ab\0").unwrap();
        assert_ne!(a, b, "trailing NUL is significant");
    }

    #[test]
    fn debug_and_display() {
        let p = Payload::from_bytes(b"x=1").unwrap();
        assert_eq!(format!("{p}"), "x=1");
        assert_eq!(format!("{p:?}"), "Payload(\"x=1\")");
        let bin = Payload::from_bytes(&[0xFF, 0xFE]).unwrap();
        assert!(format!("{bin:?}").contains("ff"));
    }
}
