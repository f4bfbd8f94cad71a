//! # rescomm-machine — an event-driven DMPC simulator
//!
//! The paper evaluates on two distributed-memory machines we do not have:
//! a 32-processor **CM-5** (fat-tree data network plus a dedicated control
//! network with hardware broadcast/reduction — the source of Table 1's
//! ratios) and an **Intel Paragon** (2-D wormhole mesh where "communication
//! conflicts are generated by serial messages on a single link" — the
//! mechanism behind Table 2 and Figure 8). Per the substitution rule we
//! rebuild both as simulators that model exactly those mechanisms:
//!
//! * [`model`] — the linear cost model (start-up, per-hop, per-byte) both
//!   machines share;
//! * [`mesh`] — a `P×Q` wormhole mesh with XY routing and per-link
//!   serialization (greedy list scheduling of whole-route reservations);
//! * [`fattree`] — a 4-ary fat tree with single-capacity tree edges for
//!   point-to-point traffic and a control network for collectives;
//! * [`collective`] — software collectives on the mesh (tree broadcasts
//!   along rows/columns — a reduction is the mirrored tree at the same
//!   cost — and shifts) used by the benchmark harness;
//! * [`phasesim`] — the simulation engine: one transport step and one
//!   run driver behind every mesh schedule. [`PhaseSim`] runs healthy
//!   phases per call or from precompiled [`CachedPhase`]s for sweeps,
//!   bit-identical to [`Mesh2D::simulate_phase`]; [`FaultSim`] compiles
//!   a phase set and a fault plan once and replays faulty or
//!   checkpoint/rollback runs over many seeds;
//! * [`overlap`] — the schedule vocabulary the driver takes
//!   ([`ScheduleMode`], [`OverlapOrder`], [`SchedulePolicy`]): phased
//!   barriers, or dependency-aware overlap in which a phase-(k+1)
//!   message releases as soon as its source node has received all of
//!   its phase-k inflows (the default order guarantees makespan ≤ the
//!   phased barrier schedule), or adaptive degradation from overlap to
//!   barriers; plus byte-scale sweeps over compiled plans
//!   ([`par_schedule_sweep`]);
//! * [`reference`](mod@reference) — the fault-semantics oracle the engine is tested
//!   against: one plain restatement of every faulty and recovering run,
//!   sharing no code with the engine;
//! * [`pool`] — the execution substrate every `par_*` fan-out in the
//!   workspace runs on: [`pool::sweep`] runs its workers in one
//!   `std::thread::scope` (the caller is worker 0), each claiming
//!   blocks of tasks from one shared atomic cursor, keeps one scratch
//!   engine per worker and returns results in input order, bit-identical
//!   regardless of worker count ([`SweepReport`] surfaces the workers
//!   actually used);
//! * [`sweep`] — the Monte Carlo fault sweeps on top of the sweep
//!   ([`pool::sweep`] runs every other fan-out), sharded at
//!   plan×seed granularity ([`par_fault_sweep`], faulty or
//!   checkpoint/rollback by its `Option<&CheckpointPolicy>`:
//!   [`replication_seed`]-derived seeds, Welford [`OnlineStats`], results
//!   bit-identical to serial evaluation);
//! * [`fault`] + [`rng`] — deterministic fault injection ([`FaultPlan`]:
//!   link/node outage windows, permanent node deaths, drop/duplication
//!   probabilities, control-network outage) with a resilient transport
//!   (retry + exponential backoff, XY→YX rerouting, software-collective
//!   degraded mode), checkpoint/rollback recovery from permanent node
//!   loss ([`FaultSim::replay_recovering`]), full degradation
//!   accounting ([`FaultReport`], [`RecoveryReport`]), and the
//!   plan-compilation pass behind the fast paths ([`CompiledFaultPlan`]).
//!
//! Simulated time is in nanoseconds (`u64`); all results are exact and
//! deterministic for a given message order (messages are sorted before
//! scheduling).

pub mod collective;
pub mod fattree;
pub mod fault;
pub mod mesh;
pub mod model;
pub mod overlap;
pub mod phasesim;
pub mod pool;
pub mod reference;
pub mod rng;
pub mod sweep;
pub mod trace;

pub use collective::{broadcast_rows_time, shift_time};
pub use fattree::FatTree;
pub use fault::{
    fold_target, CompiledFaultPlan, FaultPlan, FaultReport, LinkOutage, NodeDeath, NodeOutage,
    RecoveryReport, RetryPolicy,
};
pub use mesh::{Mesh2D, MAX_MESH_NODES};
pub use model::{CostModel, PMsg};
pub use overlap::{par_schedule_sweep, OverlapEvent, OverlapOrder, ScheduleMode, SchedulePolicy};
pub use phasesim::{CachedPhase, CheckpointPolicy, FaultSim, PhaseSim, LANES};
pub use pool::{auto_grain, SweepReport};
pub use rng::XorShift64;
pub use sweep::{
    mttf_death_schedule, par_fault_sweep, replication_seed, FaultSweepStats, OnlineStats,
};
pub use trace::{trace_phase, PhaseTrace};
