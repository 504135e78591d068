//! Opaque identifiers for the entities of a VOD system.
//!
//! A [`RequestId`] is 64-bit: a long run mints one per request, VCR
//! action and retry. A [`VideoId`] or [`DiskId`] is 32-bit: both index a
//! configured catalog or disk array, whose sizes are checked at the
//! configuration boundary ([`VideoId::try_from_index`]), so no id is ever
//! narrowed silently. The narrower ids keep a trace record at 24 bytes.

use core::fmt;

use crate::error::ConfigError;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $raw:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name($raw);

        impl $name {
            /// Constructs an identifier from its raw index.
            #[must_use]
            pub const fn new(raw: $raw) -> Self {
                Self(raw)
            }

            /// The identifier of the `index`-th entity of a configuration.
            ///
            /// # Errors
            ///
            /// Returns a [`ConfigError`] naming `parameter` when `index`
            /// does not fit the identifier's width.
            pub fn try_from_index(index: usize, parameter: &'static str) -> Result<Self, ConfigError> {
                <$raw>::try_from(index).map(Self).map_err(|_| {
                    ConfigError::new(
                        parameter,
                        format!(
                            concat!("index {} does not fit a {}-bit ", stringify!($name)),
                            index,
                            <$raw>::BITS
                        ),
                    )
                })
            }

            /// The raw index.
            #[must_use]
            pub const fn raw(self) -> $raw {
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

        impl From<$raw> for $name {
            fn from(raw: $raw) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// Identifies one user request (one stream). VCR operations such as
    /// fast-forward are modelled as *new* requests, following the paper.
    /// 64-bit: a run mints one per request and never reuses one.
    RequestId,
    u64,
    "R"
);

id_type!(
    /// Identifies a video title in the catalog. 32-bit: catalogs are
    /// configured, and their builders refuse more than 2³² titles.
    VideoId,
    u32,
    "V"
);

id_type!(
    /// Identifies one disk in a (possibly multi-disk) VOD server. 32-bit:
    /// disk arrays are configured, and their builders refuse more than
    /// 2³² disks.
    DiskId,
    u32,
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
        assert!(VideoId::new(1) < VideoId::new(2));
        assert_eq!(DiskId::from(5).raw(), 5);
        assert_eq!(DiskId::from(5).index(), 5);
    }

    #[test]
    fn video_and_disk_ids_are_32_bit() {
        assert_eq!(core::mem::size_of::<VideoId>(), 4);
        assert_eq!(core::mem::size_of::<DiskId>(), 4);
        assert_eq!(core::mem::size_of::<RequestId>(), 8);
        assert_eq!(VideoId::new(u32::MAX).raw(), u32::MAX);
        assert_eq!(DiskId::new(u32::MAX).index(), 4_294_967_295);
    }

    #[test]
    fn an_index_past_32_bits_is_a_config_error() {
        let last = u32::MAX as usize;
        assert_eq!(
            VideoId::try_from_index(last, "movies"),
            Ok(VideoId::new(u32::MAX))
        );
        assert_eq!(DiskId::try_from_index(7, "disks"), Ok(DiskId::new(7)));
        let err = VideoId::try_from_index(last + 1, "movies").expect_err("too wide");
        assert_eq!(err.parameter, "movies");
        assert_eq!(err.reason, "index 4294967296 does not fit a 32-bit VideoId");
        let err = DiskId::try_from_index(usize::MAX, "disks").expect_err("too wide");
        assert_eq!(err.parameter, "disks");
        assert_eq!(
            RequestId::try_from_index(last + 1, "requests"),
            Ok(RequestId::new(1 << 32))
        );
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
