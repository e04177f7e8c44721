//! Quasi lines (Definition 1) and local structure scans.
//!
//! A *horizontal quasi line* is a subchain whose maximal horizontal runs
//! have ≥ 3 robots, whose maximal vertical runs have ≤ 2 robots, and whose
//! first/last three robots are horizontally aligned (the vertical case is
//! symmetric). Runs (the moving states of Section 3.2/4.1) live on quasi
//! lines; new runs start at quasi-line *endpoints* (Fig. 5), and a run
//! terminates when it sees the endpoint of its quasi line ahead (Table 1.2).
//!
//! This module implements the two local predicates, both strictly bounded
//! by the observer's viewing range:
//!
//! * [`run_start`] — the Figure 5 shapes (i)/(ii): is this robot a
//!   quasi-line endpoint that must start a run in a given chain direction?
//! * [`quasi_break_ahead`] — does the quasi line structurally end within
//!   view ahead of a runner?
//!
//! All predicates use the *monotone* run notion (equal consecutive unit
//! steps); see DESIGN.md §3.2 for why fold-backs count as breaks. They read
//! the robot's view as edge codes ([`EdgeView`]), decoded once per round;
//! the position-based originals are kept as test references
//! (`tests::reference`) and checked against them exhaustively.

use chain_sim::packed::{edge_offset, opposite, perpendicular};
use chain_sim::EdgeView;
use grid_geom::Offset;

/// Which Figure 5 shape triggered a run start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartShape {
    /// Fig. 5(i): quasi-line endpoint bordered by a stairway (or fold) —
    /// one run starts, moving into the line.
    StairwayEnd,
    /// Fig. 5(ii): simultaneous endpoint of a horizontal and a vertical
    /// line — evaluated per direction; the robot starts two runs overall.
    CornerEnd,
}

/// Decide whether the robot at the view's center starts a run in chain
/// direction `dir` (±1), per the Figure 5 shapes. Returns the shape and the
/// run's *fold side*: the perpendicular unit offset towards the robot's
/// outer neighbor, which is the side the run will reshape towards and the
/// side whose agreement defines good pairs (Fig. 12).
///
/// The decision reads 2 steps ahead and 3 behind — comfortably within the
/// viewing path length. Steps are edge codes: `c ^ 2` is the opposite
/// step and bit 0 the axis, so "perpendicular" is a differing bit 0.
pub fn run_start(v: EdgeView<'_>, dir: isize) -> Option<(StartShape, Offset)> {
    if v.chain_len() < 8 {
        // Tiny chains are handled entirely by merge patterns; the shape
        // windows below would wrap onto themselves.
        return None;
    }
    // Ahead: the robot and its next two neighbors must be monotone aligned
    // ("at least its first ... three robots are horizontally aligned").
    let f1 = v.step(dir, 0);
    if v.step(dir, 1) != f1 {
        return None;
    }
    // Behind: the outer neighbor must sit perpendicular to the line.
    let e1 = v.step(-dir, 0);
    if !perpendicular(e1, f1) {
        return None;
    }
    let e2 = v.step(-dir, 1);
    let shape = if e2 == e1 {
        // Straight perpendicular continuation: r is also the endpoint of a
        // perpendicular 3-aligned subchain — Fig. 5(ii).
        StartShape::CornerEnd
    } else if e2 == opposite(e1) || v.step(-dir, 2) != e2 {
        // A perpendicular fold-back (the line cannot continue behind), or
        // a parallel run of one step behind: a stairway begins (Fig. 5(i)
        // / Fig. 16). A parallel run of ≥ 2 steps is an interior jog of
        // the line — no endpoint.
        StartShape::StairwayEnd
    } else {
        return None;
    };
    Some((shape, edge_offset(e1)))
}

/// Result of [`quasi_break_ahead`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuasiBreak {
    /// Chain distance (in robots ahead, ≥ 1) of the first robot at which
    /// the quasi-line structure is confirmed broken.
    pub distance: isize,
}

/// Scan forward from a runner for a structural end of its quasi line.
///
/// `fold_side` is the edge code of the run's fold side; it identifies the
/// line's perpendicular axis (the run folds toward `fold_side`; the line
/// axis is the other one). The scan walks up to `max_steps` chain steps
/// ahead, grouping maximal equal steps, and reports a break when it sees
///
/// * a perpendicular group of ≥ 2 steps (a vertical line begins — the
///   quasi-line definition allows at most 2 perpendicular robots), or
/// * two consecutive groups on the same axis (a fold-back), or
/// * an *interior* parallel group of exactly 1 step (runs of 2 robots —
///   a stairway, Fig. 16).
///
/// Groups truncated by the horizon are treated as continuing (no break):
/// robots must not act on structure they cannot see.
pub fn quasi_break_ahead(
    v: EdgeView<'_>,
    dir: isize,
    fold_side: u8,
    max_steps: isize,
) -> Option<QuasiBreak> {
    let mut j: isize = 0;
    let mut prev_axis_perp: Option<bool> = None;
    let mut past_first = false;
    while j < max_steps {
        let step = v.step(dir, j);
        let perp = !perpendicular(step, fold_side);
        // Group of equal steps starting at j.
        let mut g: isize = 1;
        while j + g < max_steps && v.step(dir, j + g) == step {
            g += 1;
        }
        if prev_axis_perp == Some(perp) {
            // Same axis, different step (fold-back): break at junction.
            return Some(QuasiBreak { distance: j });
        }
        if perp {
            if g >= 2 {
                // Perpendicular run of ≥ 3 robots: the line ends here
                // (a perpendicular quasi line or worse begins).
                return Some(QuasiBreak { distance: j + 1 });
            }
        } else if g == 1 && past_first && j + g < max_steps {
            // Parallel group: interior (neither first nor cut off by the
            // horizon) groups need ≥ 2 steps (3 robots).
            return Some(QuasiBreak { distance: j + 1 });
        }
        prev_axis_perp = Some(perp);
        past_first = true;
        j += g;
    }
    None
}

/// Definition 1, verbatim, over an explicit subchain of positions: is
/// `pts` a quasi line along `axis`?
///
/// 1. the first and last three robots are aligned on `axis`,
/// 2. every maximal `axis` run has ≥ 3 robots,
/// 3. every maximal perpendicular run has ≤ 2 robots.
///
/// Used by the Lemma 3.2 audit ("after the first three rounds after its
/// start, a run is always located on a quasi line") and by tests.
pub fn is_quasi_line(pts: &[grid_geom::Point], axis: grid_geom::Axis) -> bool {
    if pts.len() < 3 {
        return false;
    }
    let steps: Vec<Offset> = pts.windows(2).map(|w| w[1] - w[0]).collect();
    if steps.iter().any(|s| !s.is_unit_step()) {
        return false;
    }
    let on_axis = |s: Offset| grid_geom::Axis::of_step(s) == axis;
    // Condition 1: first and last three robots aligned on `axis`
    // (monotone).
    let first_ok = steps[0] == steps[1] && on_axis(steps[0]);
    let last_ok =
        steps[steps.len() - 1] == steps[steps.len() - 2] && on_axis(steps[steps.len() - 1]);
    if !first_ok || !last_ok {
        return false;
    }
    // Conditions 2/3 over maximal monotone runs.
    let mut i = 0;
    while i < steps.len() {
        let s = steps[i];
        let mut j = i + 1;
        while j < steps.len() && steps[j] == s {
            j += 1;
        }
        let robots = j - i + 1;
        if on_axis(s) {
            if robots < 3 {
                return false;
            }
        } else if robots > 2 {
            return false;
        }
        // Fold-backs (adjacent runs on the same axis) break the line.
        if j < steps.len() && grid_geom::Axis::of_step(steps[j]) == grid_geom::Axis::of_step(s) {
            return false;
        }
        i = j;
    }
    true
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use chain_sim::packed::{edge_code, EDGE_E, EDGE_N, EDGE_S, EDGE_W};
    use chain_sim::rng::SplitMix64;
    use chain_sim::{ClosedChain, EdgeCodes, Ring};
    use grid_geom::{Axis, Point};

    fn chain(coords: &[(i64, i64)]) -> ClosedChain {
        ClosedChain::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    fn codes(c: &ClosedChain) -> EdgeCodes {
        let mut e = EdgeCodes::default();
        e.decode(c, 16);
        e
    }

    /// A closed chain whose edges `0..window.len()` are `window`: the
    /// window, a 4-robot spike (so even short windows make chains of ≥ 8
    /// robots), and a monotone path back to the start.
    pub(crate) fn chain_from_codes(window: &[u8]) -> ClosedChain {
        let origin = Point::new(0, 0);
        let mut p = origin;
        let mut pts = vec![p];
        for &c in window.iter().chain(&[EDGE_N, EDGE_N, EDGE_S, EDGE_S]) {
            p += edge_offset(c);
            pts.push(p);
        }
        while p != origin {
            p += if p.x != origin.x {
                Offset::new(-(p.x - origin.x).signum(), 0)
            } else {
                Offset::new(0, -(p.y - origin.y).signum())
            };
            pts.push(p);
        }
        pts.pop(); // back at the origin: that is the closing edge
        ClosedChain::new(pts).unwrap()
    }

    /// The position-based originals of the predicates above, over a
    /// [`Ring`]: the references the code-based versions are checked
    /// against.
    pub(crate) mod reference {
        use super::*;

        pub(crate) fn run_start(v: &Ring<'_>, dir: isize) -> Option<(StartShape, Offset)> {
            if v.chain_len() < 8 {
                return None;
            }
            let f1 = v.abs(dir) - v.abs(0);
            let f2 = v.abs(2 * dir) - v.abs(dir);
            if f1 != f2 {
                return None;
            }
            let e1 = v.abs(-dir) - v.abs(0);
            if !e1.perpendicular_to(f1) {
                return None;
            }
            let e2 = v.abs(-2 * dir) - v.abs(-dir);
            if e2 == e1 {
                return Some((StartShape::CornerEnd, e1));
            }
            if e2 == -e1 {
                return Some((StartShape::StairwayEnd, e1));
            }
            let e3 = v.abs(-3 * dir) - v.abs(-2 * dir);
            if e3 == e2 {
                None
            } else {
                Some((StartShape::StairwayEnd, e1))
            }
        }

        pub(crate) fn quasi_break_ahead(
            v: &Ring<'_>,
            dir: isize,
            fold_side: Offset,
            max_steps: isize,
        ) -> Option<QuasiBreak> {
            let is_perp = |s: Offset| (s.dx == 0) == (fold_side.dx == 0);
            let mut j: isize = 0;
            let mut prev_axis_perp: Option<bool> = None;
            let mut group_index = 0usize;
            while j < max_steps {
                let step = v.abs((j + 1) * dir) - v.abs(j * dir);
                let perp = is_perp(step);
                let mut g: isize = 1;
                while j + g < max_steps && (v.abs((j + g + 1) * dir) - v.abs((j + g) * dir)) == step
                {
                    g += 1;
                }
                let truncated = j + g >= max_steps;
                if let Some(prev_perp) = prev_axis_perp {
                    if prev_perp == perp {
                        return Some(QuasiBreak { distance: j });
                    }
                }
                if perp {
                    if g >= 2 {
                        return Some(QuasiBreak { distance: j + 1 });
                    }
                } else {
                    let interior = group_index > 0 && !truncated;
                    if interior && g == 1 {
                        return Some(QuasiBreak { distance: j + 1 });
                    }
                }
                prev_axis_perp = Some(perp);
                group_index += 1;
                j += g;
            }
            None
        }
    }

    #[test]
    fn run_start_matches_reference_on_all_windows() {
        // run_start reads the 3 edges behind and the 3 edges ahead of the
        // robot: every one of the 4^6 windows, both directions.
        for w in 0..4096u32 {
            let window: Vec<u8> = (0..6).map(|t| (w >> (2 * t) & 3) as u8).collect();
            let c = chain_from_codes(&window);
            let e = codes(&c);
            let ring = Ring::with_horizon(&c, 3, 11);
            for dir in [1isize, -1] {
                assert_eq!(
                    run_start(e.view(3), dir),
                    reference::run_start(&ring, dir),
                    "window {window:?} dir {dir}"
                );
            }
        }
    }

    const FOLDS: [u8; 4] = [EDGE_E, EDGE_S, EDGE_W, EDGE_N];

    #[test]
    fn break_ahead_matches_reference_on_all_short_windows() {
        // Every window of up to 8 steps ahead, scanned to its full length,
        // for all four fold sides and both directions. For dir = −1 the
        // window is laid out reversed behind the last robot.
        for len in 1..=8usize {
            for w in 0..1u32 << (2 * len) {
                let window: Vec<u8> = (0..len).map(|t| (w >> (2 * t) & 3) as u8).collect();
                let reversed: Vec<u8> = window.iter().rev().map(|&c| opposite(c)).collect();
                for (dir, layout, center) in [(1isize, &window, 0), (-1, &reversed, len)] {
                    let c = chain_from_codes(layout);
                    let e = codes(&c);
                    let ring = Ring::with_horizon(&c, center, 12);
                    for fold in FOLDS {
                        assert_eq!(
                            quasi_break_ahead(e.view(center), dir, fold, len as isize),
                            reference::quasi_break_ahead(
                                &ring,
                                dir,
                                edge_offset(fold),
                                len as isize
                            ),
                            "window {window:?} dir {dir} fold {fold}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn break_ahead_matches_reference_on_seeded_long_windows() {
        // 1M seeded 12-step windows: every robot of a random closed walk
        // of 2^20 steps, scanned 12 steps ahead in both directions for
        // all four fold sides.
        let mut rng = SplitMix64::new(0x5eed_0b5e);
        let window: Vec<u8> = (0..1 << 20).map(|_| (rng.next_u64() & 3) as u8).collect();
        let c = chain_from_codes(&window);
        let e = codes(&c);
        for i in 0..c.len() {
            let ring = Ring::with_horizon(&c, i, 12);
            for dir in [1isize, -1] {
                for fold in FOLDS {
                    assert_eq!(
                        quasi_break_ahead(e.view(i), dir, fold, 12),
                        reference::quasi_break_ahead(&ring, dir, edge_offset(fold), 12),
                        "robot {i} dir {dir} fold {fold}"
                    );
                }
            }
        }
    }

    #[test]
    fn chain_from_codes_lays_out_the_window() {
        let window = [EDGE_E, EDGE_E, EDGE_N, EDGE_W, EDGE_S, EDGE_S];
        let c = chain_from_codes(&window);
        assert!(c.len() >= 8);
        for (i, &code) in window.iter().enumerate() {
            assert_eq!(edge_code(c.step(i)), Some(code));
        }
    }

    /// A long rectangle: every corner is a Fig. 5(ii) shape.
    fn rectangle(w: i64, h: i64) -> ClosedChain {
        let mut pts = Vec::new();
        for x in 0..w {
            pts.push(Point::new(x, 0));
        }
        for y in 0..h {
            pts.push(Point::new(w - 1, y));
        }
        let mut pts2 = vec![Point::new(0, 0)];
        pts2.extend((1..w).map(|x| Point::new(x, 0)));
        pts2.extend((1..h).map(|y| Point::new(w - 1, y)));
        pts2.extend((1..w).map(|x| Point::new(w - 1 - x, h - 1)));
        pts2.extend((1..h - 1).map(|y| Point::new(0, h - 1 - y)));
        ClosedChain::new(pts2).unwrap()
    }

    #[test]
    fn rectangle_corners_are_corner_ends() {
        let c = rectangle(8, 6);
        // Robot 0 = (0,0): ahead (+1) is the bottom row, behind (-1) is the
        // left column going up: Fig. 5(ii).
        let e = codes(&c);
        let v = e.view(0);
        let got = run_start(v, 1);
        assert_eq!(got, Some((StartShape::CornerEnd, Offset::UP)));
        // Same robot, other direction: endpoint of the vertical line with
        // the horizontal line behind.
        let got = run_start(v, -1);
        assert_eq!(got, Some((StartShape::CornerEnd, Offset::RIGHT)));
    }

    #[test]
    fn rectangle_interior_is_not_a_start() {
        let c = rectangle(8, 6);
        for i in 1..6 {
            let e = codes(&c);
            let v = e.view(i);
            assert_eq!(run_start(v, 1), None, "interior robot {i}");
            assert_eq!(run_start(v, -1), None, "interior robot {i}");
        }
    }

    #[test]
    fn stairway_end_shape() {
        // Horizontal line ending in a stairway going down-left:
        //   ... (3,0)(2,0)(1,0) | (1,-1)(0,-1)(0,-2)(-1,-2) ...
        // The endpoint robot is (1,0) looking in +x direction; behind it the
        // stairway alternates.
        // Build a closed loop containing the shape; use a generous outline.
        // Stairway down-left from (1,0):
        let pts = vec![
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(3, 0),
            Point::new(4, 0),
            Point::new(5, 0),
            Point::new(5, 1),
            Point::new(4, 1),
            Point::new(3, 1),
            Point::new(2, 1),
            Point::new(1, 1),
            Point::new(0, 1),
            Point::new(0, 0),
        ];
        // Closing edge from (0,0) to (1,0): chain closed.
        let c = ClosedChain::new(pts).unwrap();
        // Robot 0 = (1,0): ahead +1: (2,0),(3,0) aligned ✓; behind: (0,0)
        // — horizontal! Not a perpendicular outer neighbor → no start.
        let e = codes(&c);
        let v = e.view(0);
        assert_eq!(run_start(v, 1), None);
        // Robot 9 = (1,1): direction -1 looks toward (2,1),(3,1): aligned;
        // behind (-(-1)) = robot 10 = (0,1): horizontal too → None.
        let e = codes(&c);
        let v = e.view(9);
        assert_eq!(run_start(v, -1), None);
    }

    #[test]
    fn stairway_shape_i_detected() {
        // Construct an explicit Fig. 5(i): endpoint with stairway behind.
        // Chain (closed, 16 robots): a quasi line at y=0 whose left end
        // turns into a stairway going up-left.
        let pts = [
            (2, 0),
            (3, 0),
            (4, 0),
            (5, 0),
            (6, 0),
            (6, 1),
            (6, 2),
            (5, 2),
            (4, 2),
            (3, 2),
            (2, 2),
            (1, 2),
            (1, 1),
            (2, 1), // stairway: from (1,1) step right to (2,1) then down to (2,0)=r0
        ];
        let c = chain(&pts);
        // Robot 0 = (2,0): ahead +1: (3,0),(4,0) aligned. Behind: r13=(2,1)
        // perpendicular (UP); r12=(1,1) parallel (LEFT); r11=(1,2)
        // perpendicular → e3 ≠ e2 → StairwayEnd with fold side UP.
        let e = codes(&c);
        let v = e.view(0);
        assert_eq!(run_start(v, 1), Some((StartShape::StairwayEnd, Offset::UP)));
    }

    #[test]
    fn interior_jog_is_not_an_endpoint() {
        // Quasi line with a jog: ... (0,0)(1,0)(2,0)(2,1)(3,1)(4,1)(5,1) ...
        // The robot at (2,1) must NOT start a run in +x direction: behind it
        // the line continues (jog of height 1, then ≥ 3 horizontal robots).
        let pts = [
            (0, 0),
            (1, 0),
            (2, 0),
            (2, 1),
            (3, 1),
            (4, 1),
            (5, 1),
            (5, 2),
            (4, 2),
            (3, 2),
            (2, 2),
            (1, 2),
            (0, 2),
            (0, 1),
        ];
        let c = chain(&pts);
        // Robot 3 = (2,1): ahead (+1) (3,1),(4,1) aligned; behind r2=(2,0)
        // perpendicular; r1=(1,0) parallel; r0=(0,0) parallel → continues →
        // None.
        let e = codes(&c);
        let v = e.view(3);
        assert_eq!(run_start(v, 1), None);
    }

    #[test]
    fn break_ahead_vertical_line() {
        let c = rectangle(10, 6);
        // Robot 1 = (1,0) looking +1 along the bottom row (fold side UP):
        // the row runs to (9,0) then turns up the right column (≥ 2 perp
        // steps) — a break within view.
        let e = codes(&c);
        let v = e.view(1);
        let b = quasi_break_ahead(v, 1, EDGE_N, 11);
        assert!(b.is_some());
        let d = b.unwrap().distance;
        // The corner (9,0) is 8 ahead; the break is confirmed at the first
        // robot of the vertical run.
        assert!((8..=10).contains(&d), "distance {d}");
    }

    #[test]
    fn no_break_on_long_straight_line() {
        let c = rectangle(30, 8);
        let e = codes(&c);
        let v = e.view(2);
        // 11 steps ahead stay on the bottom row: no break.
        assert_eq!(quasi_break_ahead(v, 1, EDGE_N, 11), None);
    }

    #[test]
    fn jog_is_not_a_break_but_stairway_is() {
        // Quasi line with a single jog — no break; stairway — break.
        let pts = [
            (0, 0),
            (1, 0),
            (2, 0),
            (2, 1),
            (3, 1),
            (4, 1),
            (5, 1),
            (5, 2),
            (4, 2),
            (3, 2),
            (2, 2),
            (1, 2),
            (0, 2),
            (0, 1),
        ];
        let c = chain(&pts);
        // From robot 0 looking +1: steps: R R U R R R U ... The jog at
        // (2,0)→(2,1) is a single perpendicular step between parallel runs
        // of ≥ 2 steps — fine. The next perpendicular step at (5,1)→(5,2)
        // is again single; then the top row runs left ≥ 2 — fine. No break
        // within 10 steps.
        let e = codes(&c);
        let v = e.view(0);
        assert_eq!(quasi_break_ahead(v, 1, EDGE_N, 10), None);

        // A stairway ahead: R U R U R U...
        let stair = [
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 0),
            (3, 1),
            (4, 1),
            (4, 2),
            (5, 2),
            (5, 3),
            (4, 3),
            (3, 3),
            (2, 3),
            (1, 3),
            (0, 3),
            (0, 2),
            (0, 1),
        ];
        let c = chain(&stair);
        let e = codes(&c);
        let v = e.view(0);
        let b = quasi_break_ahead(v, 1, EDGE_N, 11);
        assert!(b.is_some(), "stairway must be a break");
        // Break confirmed at the single-step parallel group (3,1)→(4,1).
        assert!(b.unwrap().distance <= 6);
    }

    #[test]
    fn truncated_groups_do_not_break() {
        // A parallel group cut off by the horizon must not be classified.
        let c = rectangle(30, 8);
        let e = codes(&c);
        let v = e.view(0);
        // Look only 3 steps ahead from the corner: R R R — truncated, fine.
        assert_eq!(quasi_break_ahead(v, 1, EDGE_N, 3), None);
    }

    #[test]
    fn tiny_chain_starts_nothing() {
        let c = chain(&[(0, 0), (1, 0), (1, 1), (0, 1)]);
        let e = codes(&c);
        let v = e.view(0);
        assert_eq!(run_start(v, 1), None);
        assert_eq!(run_start(v, -1), None);
    }

    fn pts(coords: &[(i64, i64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn definition1_accepts_straight_lines_and_jogs() {
        // Straight line of 5.
        assert!(is_quasi_line(
            &pts(&[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]),
            Axis::X
        ));
        // Jogged quasi line: HHH U HHH.
        assert!(is_quasi_line(
            &pts(&[(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (5, 1)]),
            Axis::X
        ));
        // U-bend: HHH U HHH backwards — still a quasi line by Def. 1.
        assert!(is_quasi_line(
            &pts(&[
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (3, 1),
                (2, 1),
                (1, 1),
                (0, 1)
            ]),
            Axis::X
        ));
    }

    #[test]
    fn definition1_rejects_violations() {
        // Too short.
        assert!(!is_quasi_line(&pts(&[(0, 0), (1, 0)]), Axis::X));
        // Wrong axis at the ends.
        assert!(!is_quasi_line(
            &pts(&[(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (3, 2)]),
            Axis::X
        ));
        // Interior horizontal run of 2 (stairway-like).
        assert!(!is_quasi_line(
            &pts(&[
                (0, 0),
                (1, 0),
                (2, 0),
                (2, 1),
                (3, 1),
                (3, 2),
                (4, 2),
                (5, 2),
                (6, 2)
            ]),
            Axis::X
        ));
        // Vertical run of 3 in a horizontal quasi line.
        assert!(!is_quasi_line(
            &pts(&[
                (0, 0),
                (1, 0),
                (2, 0),
                (2, 1),
                (2, 2),
                (3, 2),
                (4, 2),
                (5, 2)
            ]),
            Axis::X
        ));
        // Fold-back within a row.
        assert!(!is_quasi_line(
            &pts(&[(0, 0), (1, 0), (2, 0), (1, 0), (0, 0), (-1, 0)]),
            Axis::X
        ));
    }

    #[test]
    fn definition1_vertical() {
        assert!(is_quasi_line(
            &pts(&[(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (1, 5)]),
            Axis::Y
        ));
        assert!(!is_quasi_line(
            &pts(&[
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 2),
                (2, 3),
                (2, 4),
                (2, 5)
            ]),
            Axis::Y
        ));
    }
}
