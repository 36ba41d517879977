//! The process-wide trajectory store behind the sweep's trace-replay
//! executor.
//!
//! The paper's agents are deterministic and oblivious, so an agent's solo
//! trajectory is a pure function of `(family, n, tree_seed, start,
//! variant)` — that tuple is the store key (the ISSUE-level cache key
//! `(family, n, start, variant)`, plus the tree seed so differently-seeded
//! grids can never collide). Every `(delay, pair)` cell of a sweep then
//! replays recorded timelines (`rvz_sim::trace`) instead of stepping
//! agents: the delay column of a pair shares two recordings, reruns of the
//! same grid (benchmark repetitions, overlapping experiments) share all of
//! them, and recordings grow on demand — `rvz_sim::replay_ensemble`
//! reports how many activations each lane actually needed (one store key
//! serves pairs and ensembles alike: the key has no lane-count or
//! schedule axis) and [`VariantRecorder::record_to`] extends
//! the prefix in place, never re-stepping it. Extending costs one step
//! per active round and one per idle span (`Agent::idle_span`): the
//! delay-robust agent's passive windows, most of its rounds, are jumped
//! in O(1), so its recordings cost time in proportion to its tours.
//!
//! Bounds: a recording is never grown past [`MAX_RECORD_ROUNDS`] (cells
//! that stay undecided there fall back to the dyn-stepping path — in
//! practice only adversarial timeout cells with multi-billion-round
//! budgets and no fixed-point tail), and the store holds at most
//! [`MAX_STORE_KEYS`] trajectories. A full store evicts *per key*, and
//! only keys no worker currently holds (slot `Arc` strong count 1): the
//! old wholesale `clear()` could drop a slot another thread was
//! mid-extend on, so the extension work was lost and a second recorder
//! for the same key could be created and stepped concurrently — pure
//! waste (replay results are pure either way, so eviction can never
//! change a row, but it used to throw recordings away mid-use).

use crate::sweep::{Family, SweepInstance, Variant};
use rvz_agent::model::Agent;
use rvz_agent::OwnedFsaRunner;
use rvz_core::prime_path::PrimePathAgent;
use rvz_core::{DelayRobustAgent, TreeRendezvousAgent};
use rvz_sim::{TraceRecorder, Trajectory};
use rvz_trees::{NodeId, Tree};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Hard per-trajectory recording cap (rounds of recorded horizon). At 16
/// bytes per RLE run this bounds a worst-case (move-every-round) recording
/// at ~128 MiB; every workload in the perf grids decides orders of
/// magnitude earlier. Stay-heavy schedules compress to a handful of runs
/// per period and, where the agent reports idle spans, record in a
/// handful of steps per period too; for those the cap bounds memory
/// rather than time.
pub(crate) const MAX_RECORD_ROUNDS: u64 = 1 << 23;

/// Store capacity in trajectories — the cache's memory bound; a full
/// store evicts idle keys only.
const MAX_STORE_KEYS: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StoreKey {
    family: Family,
    /// Requested grid size (with `tree_seed`, determines the exact tree).
    n: usize,
    tree_seed: u64,
    start: NodeId,
    variant: Variant,
}

/// A [`TraceRecorder`] over whichever concrete agent the variant runs,
/// recording the same memory meter the stepping executor reports
/// (measured bits for the procedural Theorem-4.1 / delay-robust agents,
/// trait-level bits for `prime` and the basic-walk automaton).
pub(crate) enum VariantRecorder {
    // Boxed: the procedural agents' recorders are hundreds of bytes; the
    // slot map should pay pointer-sized variants.
    TreeRvz(Box<TraceRecorder<TreeRendezvousAgent>>),
    DelayRobust(Box<TraceRecorder<DelayRobustAgent>>),
    PrimePath(Box<TraceRecorder<PrimePathAgent>>),
    BwFsa(Box<TraceRecorder<OwnedFsaRunner>>),
    /// A trajectory restored from the persistent store
    /// ([`crate::stores`]): the recorded prefix without its recorder (the
    /// agent's live state is not persisted). Replays within the restored
    /// horizon never step an agent; the first extension rebuilds the
    /// concrete recorder and re-steps from scratch — determinism makes
    /// the re-recorded prefix identical, and the restored prefix is never
    /// spliced with fresh stepping.
    Restored {
        variant: Variant,
        start: NodeId,
        traj: Trajectory,
    },
}

impl VariantRecorder {
    fn new(variant: Variant, start: NodeId, inst: &SweepInstance) -> Self {
        if variant == Variant::BasicWalkFsa {
            // Reuse the instance's cached automaton table.
            return VariantRecorder::BwFsa(Box::new(TraceRecorder::new(
                start,
                inst.basic_walk_fsa().runner_owned(),
                |a| a.memory_bits(),
            )));
        }
        VariantRecorder::rebuild(variant, start, &inst.tree)
    }

    /// A fresh, parked recorder built from the tree alone — the restored
    /// path's constructor (no [`SweepInstance`] in scope at load time).
    /// Matches [`VariantRecorder::new`] exactly: the basic-walk automaton
    /// is a pure function of the tree's maximum degree.
    pub(crate) fn rebuild(variant: Variant, start: NodeId, t: &Tree) -> Self {
        match variant {
            Variant::TreeRvz => VariantRecorder::TreeRvz(Box::new(TraceRecorder::new(
                start,
                TreeRendezvousAgent::new(),
                TreeRendezvousAgent::memory_bits_measured,
            ))),
            Variant::DelayRobust => VariantRecorder::DelayRobust(Box::new(TraceRecorder::new(
                start,
                DelayRobustAgent::new(),
                DelayRobustAgent::memory_bits_measured,
            ))),
            Variant::PrimePath => VariantRecorder::PrimePath(Box::new(TraceRecorder::new(
                start,
                PrimePathAgent::unbounded(),
                |a| a.memory_bits(),
            ))),
            Variant::BasicWalkFsa => VariantRecorder::BwFsa(Box::new(TraceRecorder::new(
                start,
                rvz_agent::Fsa::basic_walk(t.max_degree().max(1)).runner_owned(),
                |a| a.memory_bits(),
            ))),
        }
    }

    pub(crate) fn trajectory(&self) -> &Trajectory {
        match self {
            VariantRecorder::TreeRvz(r) => r.trajectory(),
            VariantRecorder::DelayRobust(r) => r.trajectory(),
            VariantRecorder::PrimePath(r) => r.trajectory(),
            VariantRecorder::BwFsa(r) => r.trajectory(),
            VariantRecorder::Restored { traj, .. } => traj,
        }
    }

    pub(crate) fn record_to(&mut self, t: &Tree, rounds: u64) {
        match self {
            VariantRecorder::TreeRvz(r) => r.record_to(t, rounds),
            VariantRecorder::DelayRobust(r) => r.record_to(t, rounds),
            VariantRecorder::PrimePath(r) => r.record_to(t, rounds),
            VariantRecorder::BwFsa(r) => r.record_to(t, rounds),
            VariantRecorder::Restored { variant, start, traj } => {
                // No live recorder to extend: re-step from scratch to at
                // least the restored horizon, then swap wholesale.
                let target = rounds.max(traj.rounds());
                let mut fresh = VariantRecorder::rebuild(*variant, *start, t);
                fresh.record_to(t, target);
                *self = fresh;
            }
        }
    }
}

/// A shared, lockable recorder slot.
pub(crate) type Slot = Arc<Mutex<VariantRecorder>>;

static STORE: OnceLock<Mutex<HashMap<StoreKey, Slot>>> = OnceLock::new();

/// The store slot for `(family, n, tree_seed, start, variant)`, creating a
/// fresh recorder (parked, nothing stepped) on first use.
pub(crate) fn slot(
    inst: &SweepInstance,
    family: Family,
    n: usize,
    variant: Variant,
    start: NodeId,
) -> Slot {
    let key = StoreKey { family, n, tree_seed: inst.tree_seed, start, variant };
    let mut map = STORE.get_or_init(Mutex::default).lock().expect("trace store lock");
    if map.len() >= MAX_STORE_KEYS && !map.contains_key(&key) {
        // Per-key eviction: drop only idle recordings (strong count 1 ⇒
        // the map holds the sole reference, no worker is extending it),
        // oldest-irrelevant — just enough to admit the new key. In-use
        // slots are never dropped, so a held `Arc` keeps naming the
        // stored recording and extensions are never silently orphaned.
        let need = map.len() + 1 - MAX_STORE_KEYS;
        let idle: Vec<StoreKey> = map
            .iter()
            .filter(|(_, slot)| Arc::strong_count(slot) == 1)
            .map(|(k, _)| *k)
            .take(need)
            .collect();
        for k in idle {
            map.remove(&k);
        }
        // If every slot is in use the store briefly exceeds the cap;
        // admitting the key is strictly better than duplicating work.
    }
    map.entry(key)
        .or_insert_with(|| Arc::new(Mutex::new(VariantRecorder::new(variant, start, inst))))
        .clone()
}

/// Snapshots the store for persistence: every nonempty recording as
/// `(family, n, tree_seed, start, variant, trajectory bytes)`, in
/// canonical key order (so a save produces byte-identical files across
/// runs with equal contents). Slots currently locked by a worker are
/// skipped — a snapshot never blocks the sweep.
pub(crate) fn export() -> Vec<(Family, usize, u64, NodeId, Variant, Vec<u8>)> {
    let map = STORE.get_or_init(Mutex::default).lock().expect("trace store lock");
    let mut out: Vec<_> = map
        .iter()
        .filter_map(|(k, slot)| {
            // A slot poisoned by a cancelled (unwound) attempt still holds
            // a consistent recording prefix — checkpoints sit at round
            // boundaries — so it is exported like any other.
            let guard = match slot.try_lock() {
                Ok(g) => g,
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => return None,
            };
            let traj = guard.trajectory();
            if traj.rounds() == 0 {
                return None;
            }
            Some((k.family, k.n, k.tree_seed, k.start, k.variant, traj.to_bytes()))
        })
        .collect();
    out.sort_by(|a, b| {
        (a.0.name(), a.1, a.2, a.3, a.4.name()).cmp(&(b.0.name(), b.1, b.2, b.3, b.4.name()))
    });
    out
}

/// Installs a restored recording under its key. `false` (not installed)
/// when the key is already live — a fresh recorder always outranks a
/// restored prefix — or the store is at capacity.
pub(crate) fn install_restored(
    family: Family,
    n: usize,
    tree_seed: u64,
    start: NodeId,
    variant: Variant,
    traj: Trajectory,
) -> bool {
    let key = StoreKey { family, n, tree_seed, start, variant };
    let mut map = STORE.get_or_init(Mutex::default).lock().expect("trace store lock");
    if map.len() >= MAX_STORE_KEYS || map.contains_key(&key) {
        return false;
    }
    map.insert(key, Arc::new(Mutex::new(VariantRecorder::Restored { variant, start, traj })));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Cell, Delay};
    use std::sync::Arc;

    fn enum_cell(n: usize, index: u64) -> Cell {
        Cell {
            experiment: Arc::from("cache-test"),
            family: Family::EnumFree,
            n,
            delay: Delay::Zero,
            variant: Variant::BasicWalkFsa,
            pair_index: 0,
            pairs_total: 1,
            base_seed: 0xE7,
            tree_index: Some(index),
            agents: 2,
        }
    }

    #[test]
    fn eviction_is_per_key_and_never_drops_held_slots() {
        // Hold one slot's Arc, then insert enough fresh keys to overflow
        // the store (n = 10 and n = 9 enumerated trees × all starts is
        // ~1500 distinct keys > MAX_STORE_KEYS). The held key must keep
        // resolving to the *same* recorder (pointer-identical), and the
        // extension made through the held Arc must be visible on re-lookup
        // — the regression the wholesale `clear()` used to cause.
        let held_inst = SweepInstance::for_cell(&enum_cell(6, 0));
        let held = slot(&held_inst, Family::EnumFree, 6, Variant::BasicWalkFsa, 0);
        held.lock().unwrap().record_to(&held_inst.tree, 32);
        assert!(held.lock().unwrap().trajectory().rounds() >= 32);

        for n in [10usize, 9] {
            for index in 0..rvz_trees::enumerate::free_tree_count(n) {
                let inst = SweepInstance::for_cell(&enum_cell(n, index));
                for start in 0..inst.tree.num_nodes() as NodeId {
                    let _ = slot(&inst, Family::EnumFree, n, Variant::BasicWalkFsa, start);
                }
            }
        }

        let again = slot(&held_inst, Family::EnumFree, 6, Variant::BasicWalkFsa, 0);
        assert!(Arc::ptr_eq(&held, &again), "held slot must survive eviction pressure");
        assert!(again.lock().unwrap().trajectory().rounds() >= 32, "extension must be kept");
    }
}
