//! Property tests for the folding schemes.

use proptest::prelude::*;
use rescomm_decompose::general::{product_general, GenFactor};
use rescomm_distribution::{
    affine_pattern, elementary_pattern, fold_affine_with, fold_general, fold_pattern,
    general_pattern, grouped_rank, locality_fraction, physical_messages, scheme_for_factors,
    Dist1D, Dist2D, ExplicitFold, FoldPath, Msg, Placement,
};
use rescomm_intlin::IMat;

fn any_dist() -> impl Strategy<Value = Dist1D> {
    prop_oneof![
        Just(Dist1D::Block),
        Just(Dist1D::Cyclic),
        (1usize..=4).prop_map(Dist1D::CyclicBlock),
        (1usize..=6).prop_map(Dist1D::Grouped),
    ]
}

/// One unimodular unirow factor: a shear `U(k)`/`L(l)`, or an axis sign
/// flip. Every product of these has `det = ±1`.
fn unimodular_factor() -> impl Strategy<Value = GenFactor> {
    prop_oneof![
        (-4i64..5).prop_map(|k| GenFactor::Unirow {
            row: 0,
            coeffs: vec![1, k],
        }),
        (-4i64..5).prop_map(|l| GenFactor::Unirow {
            row: 1,
            coeffs: vec![l, 1],
        }),
        Just(GenFactor::Unirow {
            row: 0,
            coeffs: vec![-1, 0],
        }),
        Just(GenFactor::Unirow {
            row: 1,
            coeffs: vec![0, -1],
        }),
    ]
}

/// A random unimodular matrix built as a `product_general` of a random
/// factor chain, as the paper's decomposition produces them.
fn unimodular_matrix() -> impl Strategy<Value = IMat> {
    proptest::collection::vec(unimodular_factor(), 0..6).prop_map(|f| product_general(&f, 2))
}

/// The CYCLIC / CYCLIC(b) ownership period of one axis, if any.
fn period(d: Dist1D, p: usize) -> Option<usize> {
    match d {
        Dist1D::Cyclic => Some(p),
        Dist1D::CyclicBlock(b) => Some(b * p),
        Dist1D::Block | Dist1D::Grouped(_) => None,
    }
}

/// The lcm of the two axis periods, when both axes have one.
fn period_lcm(dist: Dist2D, (pr, pc): (usize, usize)) -> Option<usize> {
    let (qr, qc) = (period(dist.rows, pr)?, period(dist.cols, pc)?);
    let l = (1..=qr * qc).find(|l| l % qr == 0 && l % qc == 0);
    Some(l.expect("qr·qc is a common multiple"))
}

/// Whether `FoldPath::Auto` may count one `L×L` period tile: `L` divides
/// both sides and the tile is smaller than the grid. When it may, it
/// does: the tile's dense cost `6L² + 16L` is below the closed estimate
/// `320·S_r²·S_c²` (`S` the segment counts, `L ≤ S_r·S_c`).
fn tiles(dist: Dist2D, (vr, vc): (usize, usize), pshape: (usize, usize)) -> bool {
    period_lcm(dist, pshape).is_some_and(|l| vr % l == 0 && vc % l == 0 && l * l < vr * vc)
}

fn periodic_dist() -> impl Strategy<Value = Dist1D> {
    prop_oneof![
        Just(Dist1D::Cyclic),
        (1usize..=3).prop_map(Dist1D::CyclicBlock),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every scheme is total and in range.
    #[test]
    fn map_total_and_in_range(d in any_dist(), v in 1usize..64, p in 1usize..8) {
        for i in 0..v {
            let q = d.map(i as i64, v, p);
            prop_assert!(q < p, "{d:?} v={v} p={p} i={i} -> {q}");
        }
    }

    /// The grouped permutation is a bijection for every (v, k).
    #[test]
    fn grouped_rank_bijective(v in 1usize..80, k in 1usize..12) {
        let mut seen = vec![false; v];
        for i in 0..v {
            let r = grouped_rank(i, v, k);
            prop_assert!(r < v);
            prop_assert!(!seen[r], "collision v={v} k={k} i={i}");
            seen[r] = true;
        }
    }

    /// owned() partitions the index space.
    #[test]
    fn owned_partitions(d in any_dist(), v in 1usize..48, p in 1usize..6) {
        let mut count = 0;
        for proc in 0..p {
            for i in d.owned(proc, v, p) {
                prop_assert_eq!(d.map(i as i64, v, p), proc);
                count += 1;
            }
        }
        prop_assert_eq!(count, v);
    }

    /// Block load imbalance is at most one block.
    #[test]
    fn block_load_near_balanced(v in 1usize..64, p in 1usize..8) {
        let l = Dist1D::Block.load(v, p);
        let bs = v.div_ceil(p);
        prop_assert!(l.iter().all(|&x| x <= bs));
        prop_assert_eq!(l.iter().sum::<usize>(), v);
    }

    /// The U(k) pattern never leaves its i-mod-k class when k | V.
    #[test]
    fn elementary_class_invariant(k in 1i64..8, mult in 1usize..6, w in 1usize..6) {
        let v = (k as usize) * mult * 2;
        let pat = elementary_pattern(k, (v, w));
        for ((i, _), (i2, _)) in pat {
            prop_assert_eq!(i.rem_euclid(k), i2.rem_euclid(k));
        }
    }

    /// The paper's §5 claim on its own patterns: on `U(k)` (`L(k)`), with
    /// `k` dividing the virtual rows (columns) so the classes `i mod k`
    /// never mix under the toroidal wrap, the grouped partition
    /// `scheme_for_factors` picks folds to no more non-local bytes than
    /// BLOCK, on every mesh shape. Where `k` does not divide the axis it
    /// can send more (EXPERIMENTS.md, Figure 8).
    #[test]
    fn grouped_never_sends_more_than_block_on_elementary_patterns(
        k in 1i64..=8,
        negative in any::<bool>(),
        lower in any::<bool>(),
        mult in 1usize..=12,
        other in 1usize..=12,
        pr in 1usize..=8,
        pc in 1usize..=8,
        bytes in 1u64..=64,
    ) {
        let k = if negative { -k } else { k };
        let along = k.unsigned_abs() as usize * mult;
        let (t, vshape) = if lower {
            (IMat::from_rows(&[&[1, 0], &[k, 1]]), (other, along))
        } else {
            (IMat::from_rows(&[&[1, k], &[0, 1]]), (along, other))
        };
        let pattern = general_pattern(&t, vshape);
        let non_local = |dist| -> u64 {
            fold_pattern(&pattern, dist, vshape, (pr, pc), bytes).msgs.iter().map(|m| m.bytes).sum()
        };
        let grouped = scheme_for_factors(std::slice::from_ref(&t));
        prop_assert!(
            non_local(grouped) <= non_local(Dist2D::uniform(Dist1D::Block)),
            "{t:?} on {vshape:?} over {pr}x{pc}"
        );
    }

    /// physical_messages drops exactly the local sends and conserves
    /// total bytes of the remote ones.
    #[test]
    fn message_bytes_conserved(
        d in any_dist(),
        k in 1i64..6,
        bytes in 1u64..64,
    ) {
        let vshape = (24usize, 8usize);
        let pshape = (4usize, 2usize);
        let pat = elementary_pattern(k, vshape);
        let dist = Dist2D { rows: d, cols: Dist1D::Block };
        let msgs = physical_messages(&pat, dist, vshape, pshape, bytes);
        let loc = locality_fraction(&pat, dist, vshape, pshape);
        let remote = pat.len() - (loc * pat.len() as f64).round() as usize;
        let total: u64 = msgs.iter().map(|m| m.bytes).sum();
        prop_assert_eq!(total, remote as u64 * bytes);
        // No self-messages survive.
        prop_assert!(msgs.iter().all(|m| m.src != m.dst));
    }

    /// The identity dataflow matrix is always fully local.
    #[test]
    fn identity_pattern_local(d in any_dist(), v in 2usize..24, p in 1usize..4) {
        let pat = general_pattern(&IMat::identity(2), (v, v));
        let dist = Dist2D::uniform(d);
        prop_assert_eq!(locality_fraction(&pat, dist, (v, v), (p, p)), 1.0);
    }

    /// The closed-form generator equals the enumeration oracle for random
    /// dataflow matrices, grids and all four distributions — message set
    /// (order included), locality and send counts.
    #[test]
    fn closed_form_matches_enumeration(
        dr in any_dist(),
        dc in any_dist(),
        t00 in -4i64..5, t01 in -4i64..5, t10 in -4i64..5, t11 in -4i64..5,
        vr in 1usize..28, vc in 1usize..28,
        pr in 1usize..5, pc in 1usize..5,
        bytes in 1u64..32,
    ) {
        let t = IMat::from_rows(&[&[t00, t01], &[t10, t11]]);
        let dist = Dist2D { rows: dr, cols: dc };
        let pat = general_pattern(&t, (vr, vc));
        let want = physical_messages(&pat, dist, (vr, vc), (pr, pc), bytes);
        let want_loc = locality_fraction(&pat, dist, (vr, vc), (pr, pc));
        let got = fold_general(&t, dist, (vr, vc), (pr, pc), bytes);
        prop_assert_eq!(&got.msgs, &want);
        prop_assert!((got.locality_fraction() - want_loc).abs() < 1e-12);
        prop_assert_eq!(got.total_sends, (vr * vc) as u64);
    }

    /// The elementary shapes the paper actually sweeps (U(k)/L(k),
    /// including negative k) hit the closed-form fast path and still
    /// agree with the oracle.
    #[test]
    fn closed_form_matches_on_elementary_family(
        dr in any_dist(),
        dc in any_dist(),
        k in -8i64..9,
        upper in proptest::arbitrary::any::<bool>(),
        vr in 1usize..40, vc in 1usize..40,
        pr in 1usize..5, pc in 1usize..5,
    ) {
        let t = if upper {
            IMat::from_rows(&[&[1, k], &[0, 1]])
        } else {
            IMat::from_rows(&[&[1, 0], &[k, 1]])
        };
        let dist = Dist2D { rows: dr, cols: dc };
        let pat = general_pattern(&t, (vr, vc));
        let want = physical_messages(&pat, dist, (vr, vc), (pr, pc), 8);
        prop_assert_eq!(fold_general(&t, dist, (vr, vc), (pr, pc), 8).msgs, want);
    }

    /// The fused explicit-pattern fold agrees with the two separate
    /// passes it replaces.
    #[test]
    fn fused_fold_matches_separate_passes(
        dr in any_dist(),
        dc in any_dist(),
        k in -5i64..6,
        vr in 1usize..32, vc in 1usize..32,
        pr in 1usize..5, pc in 1usize..5,
        bytes in 1u64..32,
    ) {
        let dist = Dist2D { rows: dr, cols: dc };
        let pat = elementary_pattern(k, (vr, vc));
        let folded = fold_pattern(&pat, dist, (vr, vc), (pr, pc), bytes);
        prop_assert_eq!(
            &folded.msgs,
            &physical_messages(&pat, dist, (vr, vc), (pr, pc), bytes)
        );
        prop_assert_eq!(folded.total_sends, pat.len() as u64);
        let sep = locality_fraction(&pat, dist, (vr, vc), (pr, pc));
        prop_assert!((folded.locality_fraction() - sep).abs() < 1e-12);
    }

    /// The sparse fold equals the oracle on arbitrary explicit endpoint
    /// lists, not only whole-grid patterns where every processor sends
    /// once: raw coordinates wrapped into the grid as plan lowering wraps
    /// them, repeated pairs, all-local lists and the empty list.
    #[test]
    fn sparse_fold_matches_oracle_on_explicit_lists(
        dr in any_dist(),
        dc in any_dist(),
        vr in 1usize..20, vc in 1usize..20,
        pr in 1usize..5, pc in 1usize..5,
        raw in proptest::collection::vec((-40i64..40, -40i64..40, -40i64..40, -40i64..40), 0..40),
        shape in 0u8..3,
        bytes in 1u64..32,
    ) {
        let dist = Dist2D { rows: dr, cols: dc };
        let (v, p) = ((vr, vc), (pr, pc));
        let wrap = |i: i64, j: i64| (i.rem_euclid(vr as i64), j.rem_euclid(vc as i64));
        let mut pat: Vec<_> = raw
            .iter()
            .map(|&(a, b, c, d)| (wrap(a, b), wrap(c, d)))
            .collect();
        match shape {
            // Every send stays on its virtual processor.
            1 => pat.iter_mut().for_each(|e| e.1 = e.0),
            // Every pair twice, the copy in reverse order.
            2 => {
                let rev: Vec<_> = pat.iter().rev().copied().collect();
                pat.extend(rev);
            }
            _ => {}
        }
        let folded = fold_pattern(&pat, dist, v, p, bytes);
        prop_assert_eq!(&folded.msgs, &physical_messages(&pat, dist, v, p, bytes));
        let local = pat
            .iter()
            .filter(|&&(s, d)| dist.map(s, v, p) == dist.map(d, v, p))
            .count() as u64;
        prop_assert_eq!(folded.local_sends, local);
        prop_assert_eq!(folded.total_sends, pat.len() as u64);
        if shape == 1 {
            prop_assert!(folded.msgs.is_empty());
        }
    }

    /// Raw coordinates outside the grid, on either side, fold as their
    /// toroidal wrap: `ExplicitFold` wraps them itself, so its runs and
    /// locality on the raw pattern equal `physical_messages` and
    /// `fold_pattern` on the wrapped one.
    #[test]
    fn sparse_fold_wraps_raw_coordinates(
        dr in any_dist(),
        dc in any_dist(),
        vr in 1usize..20, vc in 1usize..20,
        pr in 1usize..5, pc in 1usize..5,
        raw in proptest::collection::vec((-90i64..90, -90i64..90, -90i64..90, -90i64..90), 0..30),
        bytes in 1u64..32,
    ) {
        let dist = Dist2D { rows: dr, cols: dc };
        let (v, p) = ((vr, vc), (pr, pc));
        let wrap = |(i, j): (i64, i64)| (i.rem_euclid(vr as i64), j.rem_euclid(vc as i64));
        let pat: Vec<_> = raw.iter().map(|&(a, b, c, d)| ((a, b), (c, d))).collect();
        let wrapped: Vec<_> = pat.iter().map(|&(s, d)| (wrap(s), wrap(d))).collect();
        let mut fold = ExplicitFold::new(dist, v, p);
        let local = fold.fold(&pat);
        let msgs: Vec<Msg> = fold
            .runs()
            .map(|(src, dst, sends)| Msg { src, dst, bytes: sends * bytes })
            .collect();
        prop_assert_eq!(&msgs, &physical_messages(&wrapped, dist, v, p, bytes));
        let folded = fold_pattern(&wrapped, dist, v, p, bytes);
        prop_assert_eq!(msgs, folded.msgs);
        prop_assert_eq!(local, folded.local_sends);
    }

    /// Random unimodular `T` (a `product_general` of random shear/flip
    /// chains) through `fold_general` equals the enumeration oracle —
    /// message set (order included), locality and send counts — and the
    /// closed path fires for every one of them unless a smaller period
    /// tile applies, which is then always the cheaper estimate.
    #[test]
    fn random_unimodular_chain_matches_enumeration(
        dr in any_dist(),
        dc in any_dist(),
        t in unimodular_matrix(),
        vr in 1usize..26, vc in 1usize..26,
        pr in 1usize..5, pc in 1usize..5,
        bytes in 1u64..32,
    ) {
        let dist = Dist2D { rows: dr, cols: dc };
        let pat = general_pattern(&t, (vr, vc));
        let want = physical_messages(&pat, dist, (vr, vc), (pr, pc), bytes);
        let want_loc = locality_fraction(&pat, dist, (vr, vc), (pr, pc));
        let got = fold_general(&t, dist, (vr, vc), (pr, pc), bytes);
        prop_assert_eq!(
            got.closed,
            !tiles(dist, (vr, vc), (pr, pc)),
            "unimodular T={:?} {:?} v={:?}: wrong fold path",
            t,
            dist,
            (vr, vc)
        );
        prop_assert_eq!(&got.msgs, &want);
        prop_assert!((got.locality_fraction() - want_loc).abs() < 1e-12);
        prop_assert_eq!(got.total_sends, (vr * vc) as u64);
    }

    /// Forcing the closed path never changes the fold: counts, locality
    /// and message order are bit-identical to the dense fold and the
    /// enumeration oracle for arbitrary affine maps (any `T`, any shift).
    #[test]
    fn forced_paths_agree_on_arbitrary_affine_maps(
        dr in any_dist(),
        dc in any_dist(),
        t00 in -4i64..5, t01 in -4i64..5, t10 in -4i64..5, t11 in -4i64..5,
        s0 in -30i64..31, s1 in -30i64..31,
        vr in 1usize..22, vc in 1usize..22,
        pr in 1usize..5, pc in 1usize..5,
    ) {
        let t = IMat::from_rows(&[&[t00, t01], &[t10, t11]]);
        let dist = Dist2D { rows: dr, cols: dc };
        let pat = affine_pattern(&t, (s0, s1), (vr, vc));
        let want = physical_messages(&pat, dist, (vr, vc), (pr, pc), 8);
        let closed = fold_affine_with(FoldPath::Closed, &t, (s0, s1), dist, (vr, vc), (pr, pc), 8);
        let dense = fold_affine_with(FoldPath::Dense, &t, (s0, s1), dist, (vr, vc), (pr, pc), 8);
        prop_assert!(closed.closed && !dense.closed);
        prop_assert_eq!(&closed.msgs, &want);
        // FoldedPattern equality covers msgs + local_sends + total_sends.
        prop_assert_eq!(closed, dense);
    }

    /// CYCLIC / CYCLIC(b) on both axes, on grids that are multiples of the
    /// period lcm `L` (square or not, the tile itself included) and on
    /// grids that are not: `FoldPath::Auto` equals both forced whole-grid
    /// paths and the enumeration oracle for any `T` (singular included)
    /// and shift, and it reports the period tile as a non-closed fold.
    #[test]
    fn period_tile_fold_matches_enumeration(
        dr in periodic_dist(),
        dc in periodic_dist(),
        t00 in -4i64..5, t01 in -4i64..5, t10 in -4i64..5, t11 in -4i64..5,
        s0 in -40i64..41, s1 in -40i64..41,
        pr in 1usize..5, pc in 1usize..5,
        aligned in proptest::arbitrary::any::<bool>(),
        mr in 1usize..4, mc in 1usize..4,
        vr in 1usize..30, vc in 1usize..30,
    ) {
        let t = IMat::from_rows(&[&[t00, t01], &[t10, t11]]);
        let dist = Dist2D { rows: dr, cols: dc };
        let pshape = (pr, pc);
        let l = period_lcm(dist, pshape).expect("both axes periodic");
        let vshape = if aligned { (l * mr, l * mc) } else { (vr, vc) };
        let pat = affine_pattern(&t, (s0, s1), vshape);
        let want = physical_messages(&pat, dist, vshape, pshape, 8);
        let fold = |path| fold_affine_with(path, &t, (s0, s1), dist, vshape, pshape, 8);
        let (auto, closed, dense) = (fold(FoldPath::Auto), fold(FoldPath::Closed), fold(FoldPath::Dense));
        prop_assert_eq!(&auto.msgs, &want);
        prop_assert_eq!(&auto, &closed);
        prop_assert_eq!(&auto, &dense);
        prop_assert_eq!(auto.total_sends, (vshape.0 * vshape.1) as u64);
        let tiled = tiles(dist, vshape, pshape);
        if tiled {
            prop_assert!(!auto.closed, "{:?} v={:?}: the period tile did not fire", dist, vshape);
        } else if t00 * t11 - t01 * t10 == 1 || t00 * t11 - t01 * t10 == -1 {
            prop_assert!(auto.closed, "unimodular T={:?} {:?} v={:?} left the closed path", t, dist, vshape);
        }
    }
}

/// An axis length, processor count or block size: small, just below, at
/// and past 2³¹ and 2³² (where `Placement` leaves its reciprocals for
/// `Dist1D::map`), anywhere between them, or far past them.
fn axis_size() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=40,
        ((1usize << 31) - 1)..=((1 << 31) + 1),
        (1usize << 31)..=(1 << 33),
        ((1usize << 32) - 2)..=((1 << 32) + 1),
        ((1usize << 40) - 1)..=((1 << 40) + 1),
        Just(1usize << 62),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `Placement::place` is `Dist1D::map` on the toroidal wrap, answer
    /// and panic alike: every kind, `v` and `p` up to and past 2³²,
    /// `CYCLIC(b)` and `Grouped(k)` with `b`, `k` anywhere from 0 to past
    /// `v`, and raw coordinates inside the grid, one period off either
    /// side, far off and at the ends of `i64`.
    #[test]
    fn placement_equals_map_on_the_wrapped_coordinate(
        kind in 0usize..4,
        v in axis_size(),
        p in prop_oneof![0usize..=9, axis_size()],
        param in prop_oneof![axis_size(), Just(0usize)],
        param_near_v in any::<bool>(),
        near in -2i64..=2,
        at in 0usize..7,
        raw in any::<i64>(),
    ) {
        let param = if param_near_v { (v as i64 + near).max(0) as usize } else { param };
        let dist = [
            Dist1D::Block,
            Dist1D::Cyclic,
            Dist1D::CyclicBlock(param),
            Dist1D::Grouped(param),
        ][kind];
        let n = v as i64;
        let inside = raw.rem_euclid(n);
        let x = match at {
            0 => inside,
            1 => inside - n,
            2 => inside + n,
            3 => i64::MAX,
            4 => -i64::MAX,
            5 => i64::MIN,
            _ => raw,
        };
        let axis = Placement::new(dist, v, p);
        let got = std::panic::catch_unwind(|| axis.place(x)).ok();
        let want = std::panic::catch_unwind(|| dist.map(x.rem_euclid(n), v, p)).ok();
        prop_assert_eq!(got, want, "{:?} v={} p={} x={}", dist, v, p, x);
    }
}

/// Where `k` does not divide the moved axis the wrap mixes the classes,
/// and the grouped partition can lose to BLOCK: `U(2)` on a 5×4 virtual
/// grid over 2 processor rows sends 10 elements off-processor grouped and
/// 8 under BLOCK (EXPERIMENTS.md, Figure 8).
#[test]
fn grouped_can_send_more_than_block_when_k_does_not_divide_the_axis() {
    let u2 = IMat::from_rows(&[&[1, 2], &[0, 1]]);
    let pattern = general_pattern(&u2, (5, 4));
    let non_local = |dist| -> u64 {
        let msgs = fold_pattern(&pattern, dist, (5, 4), (2, 1), 1).msgs;
        msgs.iter().map(|m| m.bytes).sum()
    };
    let grouped = scheme_for_factors(std::slice::from_ref(&u2));
    assert_eq!(grouped.rows, Dist1D::Grouped(2));
    assert_eq!(
        (
            non_local(grouped),
            non_local(Dist2D::uniform(Dist1D::Block))
        ),
        (10, 8)
    );
}

/// An empty pattern folds to nothing without panicking under every kind,
/// the inputs `Dist1D::map` rejects and axes past 2³² included: a
/// `Placement` defers every check to the coordinate it places.
#[test]
fn an_empty_pattern_folds_under_every_kind() {
    let kinds = [
        Dist1D::Block,
        Dist1D::Cyclic,
        Dist1D::CyclicBlock(0),
        Dist1D::CyclicBlock(3),
        Dist1D::Grouped(0),
        Dist1D::Grouped(5),
        Dist1D::Grouped(1 << 33),
    ];
    for rows in kinds {
        for cols in kinds {
            let dist = Dist2D { rows, cols };
            for vshape in [(0, 0), (12, 8), (1 << 33, 3)] {
                for pshape in [(0, 0), (4, 2), (1 << 20, 3)] {
                    let mut fold = ExplicitFold::new(dist, vshape, pshape);
                    assert_eq!(fold.fold(&[]), 0, "{dist:?} {vshape:?} {pshape:?}");
                    assert_eq!(fold.runs().len(), 0, "{dist:?} {vshape:?} {pshape:?}");
                }
            }
        }
    }
}

/// `fold_pattern` keeps `Dist1D::map`'s range contract: a coordinate
/// outside the grid panics instead of folding as its wrap.
#[test]
#[should_panic(expected = "virtual index -1 outside [0, 8)")]
fn fold_pattern_rejects_a_coordinate_outside_the_grid() {
    let dist = Dist2D::uniform(Dist1D::Cyclic);
    fold_pattern(&[((0, 0), (-1, 3))], dist, (8, 8), (2, 2), 8);
}

/// The empty explicit list folds to nothing, on every distribution.
#[test]
fn sparse_fold_of_the_empty_list_is_empty() {
    for d in [
        Dist1D::Block,
        Dist1D::Cyclic,
        Dist1D::CyclicBlock(2),
        Dist1D::Grouped(3),
    ] {
        let dist = Dist2D::uniform(d);
        let folded = fold_pattern(&[], dist, (8, 8), (2, 2), 8);
        assert!(folded.msgs.is_empty());
        assert_eq!(folded.msgs, physical_messages(&[], dist, (8, 8), (2, 2), 8));
        assert_eq!((folded.local_sends, folded.total_sends), (0, 0));
        assert_eq!(folded.locality_fraction(), 1.0);
    }
}
