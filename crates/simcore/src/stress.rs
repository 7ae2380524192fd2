//! Interleaving stress hook for the sharded executor — the *dynamic*
//! complement to the static shared-state rules (D007/D010).
//!
//! The byte-identity contract (DESIGN.md §4i) says a sharded run's
//! output is a pure function of the seed, independent of how the OS
//! happens to schedule worker threads. The clippy rules forbid the
//! constructs that could break that; this module attacks it from the
//! other side: with a nonzero perturbation seed, every shard worker
//! injects deterministic-per-seed but *schedule-shifting* yields and
//! micro-sleeps between event dispatches, forcing window phases to
//! overlap in orders a quiet machine would never produce. A test then
//! asserts the report JSON is byte-identical across perturbation seeds
//! (`tests/shard_stress.rs`) — a poor-man's race detector: any hidden
//! cross-shard ordering dependence shows up as a fingerprint mismatch.
//!
//! The hook is a process-global knob rather than per-`Simulation`
//! state because it must be reachable from inside worker threads
//! without widening the engine API it exists to audit. It is a no-op
//! (one relaxed load) unless a test turns it on, and nothing in the
//! simulation may ever read it back into event state.
//!
//! [`force_windows`] is the second test hook here: the equivalence
//! suites run sims of 10–150 nodes, which the executor's policy would
//! keep serial, and use it to put the windowed path under test anyway.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::rng::derive_seed;

/// Perturbation seed; 0 disables the hook (the default).
static INTERLEAVE_SEED: AtomicU64 = AtomicU64::new(0);

/// Sets the interleaving perturbation seed for subsequent sharded runs
/// (0 disables). Test-only by convention: perturbation changes *thread
/// timing*, never results — that is exactly the property under test.
pub fn set_interleave_seed(seed: u64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "test-harness knob written before a run; perturbs thread timing only and is never read into sim state"
    )]
    INTERLEAVE_SEED.store(seed, Ordering::Relaxed);
}

thread_local! {
    /// Per thread, not per process: a test binary runs its tests on
    /// concurrent threads, and some of them pin adaptive window counts.
    static FORCE_WINDOWS: Cell<bool> = const { Cell::new(false) };
}

/// While the returned guard lives, every simulation this thread asks
/// shards for — built in an [`ExecPolicy`] scope or given them by
/// [`set_shards`] — runs all of its events in conservative windows,
/// however few each window holds. Test-only by convention, like the
/// interleave seed: it changes how events are executed, never what they
/// compute.
///
/// [`ExecPolicy`]: crate::engine::ExecPolicy
/// [`set_shards`]: crate::engine::Simulation::set_shards
pub fn force_windows() -> ForceWindows {
    ForceWindows {
        was: FORCE_WINDOWS.replace(true),
    }
}

/// Restores the thread's previous setting when dropped.
#[derive(Debug)]
#[must_use = "windows are forced only while the guard lives"]
pub struct ForceWindows {
    was: bool,
}

impl Drop for ForceWindows {
    fn drop(&mut self) {
        FORCE_WINDOWS.set(self.was);
    }
}

/// Read by `Simulation::new` and `set_shards`.
pub(crate) fn windows_forced() -> bool {
    FORCE_WINDOWS.get()
}

/// Called by shard workers between event dispatches. With a nonzero
/// seed, derives a per-(shard, tick) decision and injects a yield or a
/// micro-sleep to shift the OS schedule; otherwise returns immediately.
pub(crate) fn perturb(shard: usize, tick: u64) {
    let seed = INTERLEAVE_SEED.load(Ordering::Relaxed);
    if seed == 0 {
        return;
    }
    let x = derive_seed(seed ^ (shard as u64).rotate_left(17), tick);
    match x & 7 {
        // Mostly do nothing, so windows still make progress at
        // realistic speed and the perturbed schedule stays irregular.
        0..=4 => {}
        5 | 6 => std::thread::yield_now(),
        _ => std::thread::sleep(std::time::Duration::from_micros((x >> 3) % 50 + 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hook_is_a_noop_and_enabled_hook_returns() {
        set_interleave_seed(0);
        perturb(0, 0); // must return immediately
        set_interleave_seed(42);
        for tick in 0..64 {
            perturb(1, tick); // must terminate quickly for any decision
        }
        set_interleave_seed(0);
    }
}
