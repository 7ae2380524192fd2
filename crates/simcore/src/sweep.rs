//! Parallel parameter sweeps.
//!
//! Individual simulations are single-threaded and deterministic, but
//! sweep *points* are independent, so experiments can fan them out
//! across OS threads. Results come back in input order, and
//! determinism is preserved because each point owns its seed.

use std::sync::atomic::{AtomicUsize, Ordering};
#[expect(
    clippy::disallowed_types,
    reason = "sweep harness, not node code: one uncontended Mutex per pre-sized result slot"
)]
use std::sync::Mutex;

/// Runs `f` over every parameter on up to `jobs` worker threads (capped
/// by the number of parameters), returning results in input order.
/// Panics in `f` propagate.
///
/// Workers claim points with a single atomic fetch-add over the
/// immutable input slice; each result lands in its own pre-allocated
/// slot. Nothing is locked on the hot path, so dense grids of cheap
/// points do not serialize on a shared work-queue mutex.
///
/// `jobs = 1` runs the points serially on the calling thread — same
/// code path per point, so serial and parallel sweeps produce
/// identical results for deterministic `f`.
///
/// # Examples
///
/// ```
/// use decent_sim::sweep::sweep_with;
///
/// let squares = sweep_with(&[1u64, 2, 3, 4], 2, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Panics if `jobs == 0`, or if `f` panics.
pub fn sweep_with<P, R, F>(params: &[P], jobs: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    assert!(jobs > 0, "jobs must be >= 1");
    let n = params.len();
    if n == 0 {
        return Vec::new();
    }
    if jobs == 1 || n == 1 {
        return params.iter().map(f).collect();
    }
    let workers = jobs.min(n);
    // Points are claimed by a lock-free atomic cursor over the input
    // slice; each worker writes into a distinct pre-sized result slot
    // guarded by its own (uncontended) mutex.
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(n, || None);
    #[expect(
        clippy::disallowed_types,
        reason = "each slot has exactly one writer; the lock never blocks a sim event"
    )]
    let slots: Vec<Mutex<&mut Option<R>>> = results.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "work-stealing cursor: claim order cannot affect results, which are written by input index"
                )]
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(param) = params.get(i) else { break };
                let out = f(param);
                **slots[i].lock().expect("slot lock") = Some(out);
            });
        }
    });
    drop(slots);
    results
        .into_iter()
        .map(|r| r.expect("every point completed"))
        .collect()
}

/// An evenly spaced inclusive grid of `steps` points from `lo` to `hi`.
///
/// `steps = 1` yields just `[lo]`; the first point is always exactly
/// `lo` and (for `steps > 1`) the last exactly `hi`.
///
/// # Examples
///
/// ```
/// use decent_sim::sweep::grid;
///
/// assert_eq!(grid(0.0, 1.0, 3), vec![0.0, 0.5, 1.0]);
/// assert_eq!(grid(0.1, 0.5, 1), vec![0.1]);
/// ```
///
/// # Panics
///
/// Panics if `steps == 0`.
pub fn grid(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(steps > 0, "a grid needs at least one point");
    if steps == 1 {
        return vec![lo];
    }
    (0..steps)
        .map(|i| {
            if i == steps - 1 {
                hi
            } else {
                lo + (hi - lo) * i as f64 / (steps - 1) as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let input: Vec<u64> = (0..100).collect();
        let out = sweep_with(&input, 4, |x| x * 2);
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = sweep_with(&[], 4, |x: &u64| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn serial_equals_parallel() {
        let input: Vec<u64> = (0..64).collect();
        let serial = sweep_with(&input, 1, |x| x.wrapping_mul(0x9E37).rotate_left(7));
        let parallel = sweep_with(&input, 8, |x| x.wrapping_mul(0x9E37).rotate_left(7));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn grid_endpoints_are_exact() {
        let g = grid(0.1, 0.5, 3);
        assert_eq!(g.len(), 3);
        assert_eq!(g[0], 0.1);
        assert_eq!(g[2], 0.5);
        assert_eq!(grid(2.0, 9.0, 1), vec![2.0]);
        assert_eq!(grid(0.0, 10.0, 11)[4], 4.0);
    }

    #[test]
    fn runs_simulations_deterministically_in_parallel() {
        use crate::prelude::*;

        struct Echo;
        impl Node for Echo {
            type Msg = ();
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
        }
        let run = |seed: &u64| {
            let mut sim: Simulation<Echo> =
                Simulation::new(*seed, ConstantLatency::from_millis(1.0));
            let a = sim.add_node(Echo);
            for i in 0..50 {
                sim.inject(a, (), SimDuration::from_millis(i as f64));
            }
            sim.run_until(SimTime::from_secs(1.0));
            sim.events_processed()
        };
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let parallel = sweep_with(&seeds, 4, run);
        let serial: Vec<u64> = seeds.iter().map(run).collect();
        assert_eq!(parallel, serial);
    }
}
