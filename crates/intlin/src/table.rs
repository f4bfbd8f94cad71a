//! Interned matrices: one dense [`MatId`] per distinct matrix.
//!
//! The mapping pipeline reads and makes only a handful of distinct
//! matrices per nest (a few access matrices, their weights, a few
//! allocations), but it reads them hundreds of times. A [`MatTable`]
//! stores each distinct matrix once; passes then carry, compare and hash
//! 4-byte ids instead of 152-byte matrices, and [`MatTable::mul`]
//! memoizes each product by its id pair.

use crate::IMat;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Multiply-rotate hashing (the rustc "Fx" hash) for memo keys made of
/// [`MatId`]s: the table hands out ids densely, so no input can make
/// them collide. Matrices themselves, which come from outside the
/// program, are looked up under the default (keyed) hasher.
#[derive(Default, Clone, Copy)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` under [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Dense id of a matrix in one [`MatTable`]: two ids of the same table
/// are equal exactly when their matrices are (shape included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatId(u32);

impl MatId {
    /// Position of the matrix in its table (ids are dense from 0).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Source of [`MatTable::tag`]s: every table, and every `clear`, draws a
/// fresh one.
static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

/// An interning table of [`IMat`]s with a product memo.
///
/// * [`MatTable::intern`] looks a matrix up by borrow (the last hit is
///   checked first) and clones it only on its first insert;
/// * [`MatTable::mul`] forms `a·b` once per id pair, and forms it before
///   anything is stored, so a product that panics (an entry leaves `i64`)
///   leaves the table as it was;
/// * [`MatTable::clear`] drops everything and invalidates every id handed
///   out so far, which [`MatTable::tag`] makes checkable.
#[derive(Debug)]
pub struct MatTable {
    mats: Vec<IMat>,
    index: HashMap<IMat, MatId>,
    products: FxMap<(MatId, MatId), MatId>,
    last: Option<MatId>,
    tag: u64,
}

impl Default for MatTable {
    fn default() -> Self {
        MatTable::new()
    }
}

impl MatTable {
    /// An empty table with a fresh tag.
    pub fn new() -> Self {
        MatTable {
            mats: Vec::new(),
            index: HashMap::new(),
            products: FxMap::default(),
            last: None,
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Identifies the id space: two tables, or one table before and after
    /// [`MatTable::clear`], never share a tag, so a holder of ids can
    /// check that they still belong to the table it is given.
    #[inline]
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The id of `m`, inserting a clone on first sight.
    pub fn intern(&mut self, m: &IMat) -> MatId {
        if let Some(id) = self.last {
            if self.mats[id.index()] == *m {
                return id;
            }
        }
        let id = match self.index.get(m) {
            Some(&id) => id,
            None => self.insert(m.clone()),
        };
        self.last = Some(id);
        id
    }

    /// [`MatTable::intern`] of an owned matrix (no clone on first sight).
    pub fn intern_owned(&mut self, m: IMat) -> MatId {
        let id = match self.index.get(&m) {
            Some(&id) => id,
            None => self.insert(m),
        };
        self.last = Some(id);
        id
    }

    fn insert(&mut self, m: IMat) -> MatId {
        let id = MatId(u32::try_from(self.mats.len()).expect("MatTable holds < 2^32 matrices"));
        self.index.insert(m.clone(), id);
        self.mats.push(m);
        id
    }

    /// The matrix of `id`.
    ///
    /// # Panics
    /// Panics if `id` is not from this table.
    #[inline]
    pub fn get(&self, id: MatId) -> &IMat {
        &self.mats[id.index()]
    }

    /// The id of `get(a) · get(b)`, formed once per id pair.
    ///
    /// # Panics
    /// Panics as `&get(a) * &get(b)` does (shape mismatch, an entry
    /// leaving `i64`), with nothing stored.
    pub fn mul(&mut self, a: MatId, b: MatId) -> MatId {
        if let Some(&p) = self.products.get(&(a, b)) {
            return p;
        }
        let prod = &self.mats[a.index()] * &self.mats[b.index()];
        let p = self.intern_owned(prod);
        self.products.insert((a, b), p);
        p
    }

    /// Distinct matrices plus memoized products.
    pub fn len(&self) -> usize {
        self.mats.len() + self.products.len()
    }

    /// `true` when the table holds nothing.
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Drop every matrix and product; ids handed out so far become
    /// invalid and the tag changes.
    pub fn clear(&mut self) {
        self.mats.clear();
        self.index.clear();
        self.products.clear();
        self.last = None;
        self.tag = NEXT_TAG.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::ops::Index<MatId> for MatTable {
    type Output = IMat;
    #[inline]
    fn index(&self, id: MatId) -> &IMat {
        self.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_equal_exactly_when_matrices_are() {
        let mut t = MatTable::new();
        let shapes = [
            IMat::zeros(0, 2),
            IMat::zeros(2, 0),
            IMat::zeros(1, 0),
            IMat::zeros(0, 0),
        ];
        let ids: Vec<MatId> = shapes.iter().map(|m| t.intern(m)).collect();
        for i in 0..ids.len() {
            for j in 0..ids.len() {
                assert_eq!(
                    ids[i] == ids[j],
                    i == j,
                    "{:?} vs {:?}",
                    shapes[i],
                    shapes[j]
                );
            }
        }
        // Inline and heap-stored copies of one matrix share an id, both
        // ways round.
        let a = IMat::from_rows(&[&[1, 2], &[3, 4]]);
        let mut heap = a.clone();
        heap.force_heap();
        assert!(!heap.is_inline());
        let ia = t.intern(&a);
        assert_eq!(t.intern(&heap), ia);
        let mut t2 = MatTable::new();
        let ih = t2.intern(&heap);
        assert_eq!(t2.intern(&a), ih);
        assert_eq!(t2.get(ih), &a);
        // A different matrix of the same shape gets a different id, also
        // right after the first one was the last hit.
        let b = IMat::from_rows(&[&[1, 2], &[3, 5]]);
        assert_ne!(t.intern(&b), ia);
        assert_eq!(t.intern(&a), ia);
        assert_ne!(t.intern(&IMat::from_rows(&[&[1, 2, 3, 4]])), ia);
    }

    #[test]
    fn mul_matches_the_product_and_is_memoized() {
        let mut t = MatTable::new();
        let a = t.intern(&IMat::from_rows(&[&[1, 1], &[0, 1]]));
        let b = t.intern(&IMat::from_rows(&[&[2, 0, 1], &[1, 3, 0]]));
        let p = t.mul(a, b);
        assert_eq!(t[p], &t[a] * &t[b]);
        let len = t.len();
        assert_eq!(t.mul(a, b), p);
        assert_eq!(t.len(), len, "a repeated product stores nothing");
        // The product is interned like any other matrix.
        assert_eq!(t.intern(&(&t[a] * &t[b])), p);
    }

    #[test]
    fn overflowing_mul_panics_and_stores_nothing() {
        let mut t = MatTable::new();
        let big = t.intern(&IMat::from_rows(&[&[i64::MAX, i64::MAX]]));
        let col = t.intern(&IMat::from_rows(&[&[1], &[1]]));
        let before = (t.len(), t.mats.len(), t.products.len());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.mul(big, col)));
        let msg = caught.expect_err("the product leaves i64");
        let direct = std::panic::catch_unwind(|| {
            &IMat::from_rows(&[&[i64::MAX, i64::MAX]]) * &IMat::from_rows(&[&[1], &[1]])
        })
        .expect_err("IMat multiplication panics too");
        let text = |p: &Box<dyn std::any::Any + Send>| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        };
        assert_eq!(text(&msg), text(&direct));
        assert_eq!((t.len(), t.mats.len(), t.products.len()), before);
        // The table still works.
        let p = t.mul(col, big);
        assert_eq!(t[p], &t[col] * &t[big]);
    }

    #[test]
    fn clear_invalidates_ids_and_changes_the_tag() {
        let mut t = MatTable::new();
        let other = MatTable::new();
        assert_ne!(t.tag(), other.tag());
        let a = t.intern(&IMat::identity(2));
        let tag = t.tag();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_ne!(t.tag(), tag);
        // A fresh insert after clear reuses index 0 for another matrix.
        let b = t.intern(&IMat::identity(3));
        assert_eq!(a.index(), b.index());
        assert_eq!(t[b], IMat::identity(3));
    }
}
