//! Local views of the chain.
//!
//! Robots see only the subchain of their next `V` neighbors in both chain
//! directions ("viewing path length", `V = 11` in the paper), as *relative
//! positions*. Two accessors expose such a view:
//!
//! * [`Ring`] — positions, centered on an observing robot, computed
//!   through the chain's cyclic index on every access. The reference
//!   form: easy to read, used by per-robot oracles and instrumentation.
//! * [`EdgeView`] — the same view as 2-bit edge codes (the
//!   [`packed`](crate::packed) E/S/W/N alphabet), read out of an
//!   [`EdgeCodes`] buffer decoded once per round. Relative positions are
//!   prefix sums of edge steps, so every shape predicate over a `Ring`
//!   has an equivalent over codes; the gathering strategy's hot
//!   predicates run on this form.
//!
//! Both are bounded to a horizon, which makes locality structural.

use crate::chain::ClosedChain;
use crate::packed::{edge_code, opposite};
use grid_geom::{Offset, Point};

/// Cyclic, relative accessor to the chain, centered at robot `center`.
///
/// `at(d)` returns the position of the chain neighbor `d` steps away
/// (positive = successor direction, negative = predecessor direction)
/// relative to the observer's own position — the only geometry the paper's
/// robots can perceive.
#[derive(Clone, Copy)]
pub struct Ring<'a> {
    chain: &'a ClosedChain,
    center: usize,
    /// Maximum |d| this view may access (viewing path length). Accesses
    /// beyond the horizon panic in debug builds: locality violations are
    /// bugs, not policies.
    horizon: isize,
}

impl<'a> Ring<'a> {
    /// A view with limited horizon (the algorithm's constant-size view).
    pub fn with_horizon(chain: &'a ClosedChain, center: usize, horizon: usize) -> Self {
        Ring {
            chain,
            center,
            horizon: horizon as isize,
        }
    }

    /// An unbounded view (engine-side instrumentation only).
    pub fn unbounded(chain: &'a ClosedChain, center: usize) -> Self {
        Ring {
            chain,
            center,
            horizon: isize::MAX,
        }
    }

    /// The observing robot's chain index (engine-side bookkeeping).
    #[inline]
    pub fn center(&self) -> usize {
        self.center
    }

    /// Number of robots on the whole chain. The paper's robots do not know
    /// `n`; the strategy uses this only to clamp scans on tiny chains where
    /// the viewing range wraps around the whole chain (`n ≤ 2V`), which is
    /// information a robot *can* derive from its view (it sees the same
    /// robot in both directions).
    #[inline]
    pub fn chain_len(&self) -> usize {
        self.chain.len()
    }

    /// Chain index of the robot `d` steps away (engine-side bookkeeping).
    #[inline]
    pub fn index(&self, d: isize) -> usize {
        debug_assert!(
            d.abs() <= self.horizon,
            "view horizon exceeded: |{d}| > {}",
            self.horizon
        );
        self.chain.nb(self.center, d)
    }

    /// Position of the robot `d` steps away, relative to the observer.
    #[inline]
    pub fn rel(&self, d: isize) -> Offset {
        self.abs(d) - self.abs(0)
    }

    /// Absolute position of the robot `d` steps away. The *observer* has no
    /// global coordinates; strategies must only use differences of these
    /// (equivariance under translation is enforced by symmetry tests).
    #[inline]
    pub fn abs(&self, d: isize) -> Point {
        self.chain.pos(self.index(d))
    }

    /// The chain step from neighbor `d` to neighbor `d+1`.
    #[inline]
    pub fn step(&self, d: isize) -> Offset {
        self.abs(d + 1) - self.abs(d)
    }

    /// The chain step from neighbor `d` to neighbor `d + dir` for
    /// `dir = ±1`: the "forward step" in a chain direction.
    #[inline]
    pub fn step_dir(&self, d: isize, dir: isize) -> Offset {
        debug_assert!(dir == 1 || dir == -1);
        self.abs(d + dir) - self.abs(d)
    }
}

/// The chain's edge directions, decoded once per round: one
/// [`packed`](crate::packed) code per byte (`codes()[i]` is the step from
/// robot `i` to robot `i + 1`), plus `pad` codes of cyclic padding on
/// each side so that windows around any robot read without index
/// wrapping. Buffers are reused across rounds.
#[derive(Clone, Debug, Default)]
pub struct EdgeCodes {
    /// `pad` codes, the `n` chain codes, `pad` codes (cyclic).
    ext: Vec<u8>,
    pad: usize,
    n: usize,
}

impl EdgeCodes {
    /// Decode the edges of the taut chain `chain`, padding `pad` codes on
    /// each side. A single-robot chain has no edges.
    pub fn decode(&mut self, chain: &ClosedChain, pad: usize) {
        let pos = chain.positions();
        let n = if pos.len() < 2 { 0 } else { pos.len() };
        self.n = n;
        self.pad = pad;
        self.ext.clear();
        if n == 0 {
            return;
        }
        self.ext.resize(n + 2 * pad, 0);
        let body = &mut self.ext[pad..pad + n];
        for (i, code) in body.iter_mut().enumerate() {
            let next = if i + 1 == n { pos[0] } else { pos[i + 1] };
            *code = edge_code(next - pos[i]).expect("taut chains have unit edges");
        }
        for j in 0..pad {
            // Cyclic padding (wraps several times on chains shorter
            // than the pad).
            self.ext[j] = self.ext[pad + (n - (pad - j) % n) % n];
            self.ext[pad + n + j] = self.ext[pad + j % n];
        }
    }

    /// Number of edges (= robots, or 0 for a single robot).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the chain had no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The unpadded codes, in chain order.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.ext[self.pad..self.pad + self.n]
    }

    /// Code of the edge from robot `i + d` to robot `i + d + 1`, for
    /// `i < len()` and `-pad ≤ d < pad`.
    #[inline]
    pub fn edge(&self, i: usize, d: isize) -> u8 {
        self.ext[(self.pad + i).wrapping_add_signed(d)]
    }

    /// The view centered on robot `i`, bounded to the padding.
    #[inline]
    pub fn view(&self, i: usize) -> EdgeView<'_> {
        debug_assert!(i < self.n);
        EdgeView {
            ext: &self.ext,
            at: self.pad + i,
            n: self.n,
            reach: self.pad as isize,
        }
    }
}

/// A robot's local view as edge codes: the [`Ring`] adapter over an
/// [`EdgeCodes`] buffer. Reads beyond the buffer's padding panic in debug
/// builds, like a `Ring`'s horizon.
#[derive(Clone, Copy)]
pub struct EdgeView<'a> {
    ext: &'a [u8],
    at: usize,
    n: usize,
    reach: isize,
}

impl EdgeView<'_> {
    /// Number of robots on the whole chain (see [`Ring::chain_len`]).
    #[inline]
    pub fn chain_len(&self) -> usize {
        self.n
    }

    /// Code of the step from neighbor `j·dir` to neighbor `(j + 1)·dir`
    /// for `dir = ±1` — the `Ring` equivalent is
    /// `abs((j + 1) * dir) - abs(j * dir)`. A step against the chain
    /// orientation is the opposite of the stored edge.
    #[inline]
    pub fn step(&self, dir: isize, j: isize) -> u8 {
        debug_assert!(dir == 1 || dir == -1);
        debug_assert!(
            j >= 0 && j < self.reach,
            "view horizon exceeded: {j} >= {}",
            self.reach
        );
        if dir > 0 {
            self.ext[self.at + j as usize]
        } else {
            opposite(self.ext[self.at - j as usize - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_geom::Point;

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn relative_positions() {
        let c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        let v = Ring::with_horizon(&c, 0, 3);
        assert_eq!(v.rel(0), Offset::ZERO);
        assert_eq!(v.rel(1), Offset::new(1, 0));
        assert_eq!(v.rel(2), Offset::new(1, 1));
        assert_eq!(v.rel(-1), Offset::new(0, 1));
        assert_eq!(v.step(0), Offset::new(1, 0));
        assert_eq!(v.step_dir(0, -1), Offset::new(0, 1));
    }

    #[test]
    fn wrapping() {
        let c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        let v = Ring::with_horizon(&c, 3, 4);
        assert_eq!(v.index(1), 0);
        assert_eq!(v.index(-4), 3);
        assert_eq!(v.rel(4), Offset::ZERO); // all the way around
    }

    #[test]
    fn edge_views_match_ring_steps() {
        // Tiny chains wrap the padding several times; the code view must
        // still agree with the position view everywhere within reach.
        let chains = [
            chain(&[(0, 0), (1, 0)]),
            chain(&[(0, 0), (1, 0), (2, 0), (1, 0)]),
            chain(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]),
        ];
        let mut codes = EdgeCodes::default();
        for c in &chains {
            codes.decode(c, 7);
            assert_eq!(codes.len(), c.len());
            for i in 0..c.len() {
                assert_eq!(codes.codes()[i], edge_code(c.step(i)).unwrap());
                let ring = Ring::unbounded(c, i);
                let view = codes.view(i);
                for dir in [1isize, -1] {
                    for j in 0..7 {
                        let want = ring.abs((j + 1) * dir) - ring.abs(j * dir);
                        assert_eq!(Some(view.step(dir, j)), edge_code(want), "{i} {dir} {j}");
                    }
                }
                for d in -7..7 {
                    assert_eq!(codes.edge(i, d), edge_code(ring.step(d)).unwrap());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "view horizon exceeded")]
    #[cfg(debug_assertions)]
    fn horizon_is_enforced() {
        let c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        let v = Ring::with_horizon(&c, 0, 2);
        let _ = v.rel(3);
    }
}
