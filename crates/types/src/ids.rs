//! Opaque identifiers for the entities of a VOD system.

use core::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// Constructs an identifier from its raw index.
            #[must_use]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw index.
            #[must_use]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// The raw index as a `usize`, for direct slice indexing.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// Identifies one user request (one stream). VCR operations such as
    /// fast-forward are modelled as *new* requests, following the paper.
    RequestId,
    "R"
);

id_type!(
    /// Identifies a video title in the catalog.
    VideoId,
    "V"
);

id_type!(
    /// Identifies one disk in a (possibly multi-disk) VOD server.
    DiskId,
    "D"
);

/// A monotonically increasing generator for [`RequestId`]s.
#[derive(Debug, Default, Clone)]
pub struct RequestIdGen {
    next: u64,
}

impl RequestIdGen {
    /// Creates a generator starting at `R0`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next fresh identifier.
    pub fn next_id(&mut self) -> RequestId {
        let id = RequestId::new(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(RequestId::new(3).to_string(), "R3");
        assert_eq!(VideoId::new(7).to_string(), "V7");
        assert_eq!(DiskId::new(0).to_string(), "D0");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(RequestId::new(1) < RequestId::new(2));
        assert_eq!(DiskId::from(5).raw(), 5);
        assert_eq!(DiskId::from(5).index(), 5);
    }

    #[test]
    fn generator_is_monotone_and_dense() {
        let mut gen = RequestIdGen::new();
        let a = gen.next_id();
        let b = gen.next_id();
        assert_eq!(a, RequestId::new(0));
        assert_eq!(b, RequestId::new(1));
        assert_eq!(gen.next_id(), RequestId::new(2));
    }
}
