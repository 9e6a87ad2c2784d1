//! Primitive trace vocabulary: addresses and accesses.

use core::fmt;

/// A byte address in the simulated flat address space.
///
/// A newtype rather than a bare `u64` so traces cannot accidentally mix
/// addresses with sizes or counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// Offsets the address by `bytes`, wrapping on overflow.
    ///
    /// The simulated address space is a flat `u64` ring: synthetic and
    /// fuzzed traces may place a base near `u64::MAX` and stride past it,
    /// and the cache model is indifferent to where the wrap lands (set
    /// and tag are carved out of whatever bits result). Wrapping here
    /// keeps those hostile traces deterministic instead of panicking in
    /// debug builds. One access that runs past `u64::MAX` does not wrap:
    /// the cache, the block packer and the reuse profiler all stop it at
    /// the top of the address space.
    #[inline]
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0.wrapping_add(bytes))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:X}", self.0)
    }
}

/// Whether an access reads or writes memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Which logical variable class an access belongs to, for reuse-distance
/// attribution (Figure 10) and buffer-mapping decisions (Section 3.2).
///
/// The paper's insight is that variables in tiled ML kernels cluster into
/// two or three reuse-distance classes; these tags name the cluster each
/// access *should* fall into so the profiler can verify the claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VarClass {
    /// Data with short reuse distance (HotBuf residents: e.g. centroids,
    /// the tiled reference block, model coefficients).
    Hot,
    /// Data with longer reuse distance (ColdBuf residents: e.g. streamed
    /// testing instances within a tile).
    Cold,
    /// Outputs and temporaries (OutputBuf residents: partial sums,
    /// distances, counters).
    Output,
    /// Streaming data with no reuse at all (synapses, training features).
    Stream,
}

impl fmt::Display for VarClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VarClass::Hot => "hot",
            VarClass::Cold => "cold",
            VarClass::Output => "output",
            VarClass::Stream => "stream",
        };
        f.write_str(s)
    }
}

/// One memory access in a kernel trace: an address range touched by a
/// SIMD operand, tagged with its direction and variable class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Starting byte address.
    pub addr: Addr,
    /// Number of bytes touched (a SIMD operand is 32 bytes; scalar
    /// accesses may be 4).
    pub bytes: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Reuse-class attribution for the profiler.
    pub class: VarClass,
}

impl Access {
    /// A read access.
    #[inline]
    #[must_use]
    pub const fn read(addr: Addr, bytes: u32, class: VarClass) -> Access {
        Access { addr, bytes, kind: AccessKind::Read, class }
    }

    /// A write access.
    #[inline]
    #[must_use]
    pub const fn write(addr: Addr, bytes: u32, class: VarClass) -> Access {
        Access { addr, bytes, kind: AccessKind::Write, class }
    }

    /// The last byte the access touches (a 0-byte access touches one).
    /// An access running past `u64::MAX` stops at the top of the address
    /// space: wrapping inside one access would make its span run
    /// backwards.
    #[inline]
    pub(crate) fn last_byte(self) -> u64 {
        self.addr.0.saturating_add(u64::from(self.bytes.max(1)) - 1)
    }

    /// First and last line the access touches, for `2^line_shift`-byte
    /// lines. The per-access cache path and the block packer both split
    /// accesses with this, so they touch the same lines by construction.
    #[inline]
    pub(crate) fn line_span(self, line_shift: u32) -> (u64, u64) {
        (self.addr.0 >> line_shift, self.last_byte() >> line_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_offset_and_display() {
        let a = Addr(0x1000);
        assert_eq!(a.offset(0x10), Addr(0x1010));
        assert_eq!(format!("{a}"), "0x1000");
    }

    #[test]
    fn addr_offset_wraps_at_u64_max() {
        assert_eq!(Addr(u64::MAX).offset(1), Addr(0));
        assert_eq!(Addr(u64::MAX - 3).offset(8), Addr(4));
    }

    #[test]
    fn access_constructors() {
        let r = Access::read(Addr(64), 32, VarClass::Hot);
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(r.bytes, 32);
        let w = Access::write(Addr(0), 4, VarClass::Output);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(w.class, VarClass::Output);
    }

    #[test]
    fn var_class_display() {
        assert_eq!(VarClass::Hot.to_string(), "hot");
        assert_eq!(VarClass::Stream.to_string(), "stream");
    }
}
