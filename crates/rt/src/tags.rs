//! Registered point-to-point tag namespaces.
//!
//! `Comm::send_*`/`recv_*` tags are raw `u32`s shared by every pipeline
//! stage of the process. Two stages reusing the same tag on the same
//! communicator silently cross their streams — the received payload is
//! well-typed and plausibly shaped, so the bug surfaces as wrong numbers,
//! not a crash. This module carves the tag space into named, disjoint
//! [`TagSpace`]s; in debug builds every point-to-point send/recv asserts
//! its tag belongs to a registered space, so an unregistered (and
//! therefore collision-prone) tag fails loudly in tests.
//!
//! Stages must not share a space: each long-lived protocol registers its
//! own `TagSpace` here, and the `spaces_are_disjoint` self-test keeps the
//! registry collision-free by construction. [`TEST`] is the one shared
//! space — reserved for tests, examples and throwaway experiments, where
//! isolation comes from each test's private `World`.

/// A named, half-open range `[base, base + len)` of point-to-point tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagSpace {
    /// Owning stage, for diagnostics.
    pub name: &'static str,
    /// First tag of the space.
    pub base: u32,
    /// Number of tags in the space.
    pub len: u32,
}

impl TagSpace {
    /// Returns the `off`-th tag of this space.
    ///
    /// # Panics
    /// Panics (at compile time in const contexts) if `off >= len`.
    pub const fn tag(self, off: u32) -> u32 {
        assert!(off < self.len, "tag offset out of the registered space");
        self.base + off
    }

    /// Whether `tag` falls inside this space.
    pub const fn contains(self, tag: u32) -> bool {
        tag >= self.base && tag - self.base < self.len
    }
}

/// Shared scratch space for tests, examples and experiments. Production
/// pipeline stages must register their own space below instead.
pub const TEST: TagSpace = TagSpace { name: "test", base: 0, len: 256 };

/// Distributed factorization (Algorithm II.4): skeleton index exchange
/// and the `B`/`M` coupling-block sends between sibling rank groups.
pub const DIST_FACTOR: TagSpace = TagSpace { name: "dist-factor", base: 256, len: 4 };

/// Distributed solve (Algorithm II.5): `y_top`/`z_bot` partial-solution
/// exchange between sibling rank groups.
pub const DIST_SOLVE: TagSpace = TagSpace { name: "dist-solve", base: 260, len: 4 };

/// Every registered space. Keep sorted by `base`; the registry self-tests
/// enforce disjointness and the collective-range ceiling.
pub const ALL: &[TagSpace] = &[TEST, DIST_FACTOR, DIST_SOLVE];

/// Returns the registered space containing `tag`, if any.
pub(crate) fn space_of(tag: u32) -> Option<&'static TagSpace> {
    ALL.iter().find(|s| s.contains(tag))
}

/// Asserts that `tag` belongs to a registered [`TagSpace`].
///
/// Called by `Comm`'s point-to-point send/recv in debug builds only, so
/// release-mode messaging pays nothing.
///
/// # Panics
/// Panics if `tag` is unregistered.
#[track_caller]
pub(crate) fn assert_registered(tag: u32) {
    assert!(
        space_of(tag).is_some(),
        "point-to-point tag {tag} is not in any registered TagSpace; \
         register a space in kfds_rt::tags (or use tags::TEST in tests) \
         so cross-stage collisions stay impossible"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaces_are_disjoint_and_below_collective_range() {
        for (i, a) in ALL.iter().enumerate() {
            assert!(a.len > 0, "{} is empty", a.name);
            // Stay clear of the reserved collective tags at the top of u32.
            assert!(a.base.checked_add(a.len).expect("space overflows u32") < u32::MAX - 16);
            for b in &ALL[i + 1..] {
                let overlap = a.base < b.base + b.len && b.base < a.base + a.len;
                assert!(!overlap, "spaces {} and {} overlap", a.name, b.name);
                assert_ne!(a.name, b.name, "duplicate space name");
            }
        }
    }

    #[test]
    fn tag_and_contains_agree() {
        assert_eq!(DIST_FACTOR.tag(0), 256);
        assert_eq!(DIST_SOLVE.tag(1), 261);
        assert!(TEST.contains(0) && TEST.contains(255) && !TEST.contains(256));
        assert_eq!(space_of(261).map(|s| s.name), Some("dist-solve"));
        assert_eq!(space_of(1 << 20), None);
    }

    #[test]
    #[should_panic(expected = "not in any registered TagSpace")]
    fn unregistered_tag_is_rejected() {
        assert_registered(1 << 20);
    }
}
