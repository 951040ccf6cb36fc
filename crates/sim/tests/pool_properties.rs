//! Property-based tests for pooled resources: per-unit exclusivity,
//! work-conservation and exact ordering of the unit selectors, and exact
//! equivalence of `k = 1` pools with the classic single-resource schedules.
//!
//! Every task is placed the way a session rig places a remote chain:
//! select a unit with [`Engine::least_loaded_unit_in`] or
//! [`Engine::most_loaded_unit_in`], then [`Engine::submit`] to it.

use proptest::prelude::*;
use qvr_sim::{Engine, PoolId, TaskId};
use std::ops::Range;

/// A reproducible pseudo-random workload: `(duration_ms, dep_offset)` pairs.
/// `dep_offset = 0` means no dependency; `d > 0` depends on the task
/// submitted `d` positions earlier (if any).
fn workload_strategy() -> impl Strategy<Value = Vec<(f64, usize)>> {
    collection::vec((0.1f64..12.0, 0usize..4), 48)
}

/// The dependency list of job `i`: the task `dep` positions earlier.
fn deps_of(ids: &[TaskId], i: usize, dep: usize) -> Vec<TaskId> {
    if dep > 0 && dep <= i {
        vec![ids[i - dep]]
    } else {
        Vec::new()
    }
}

/// Selects the least-loaded unit of `range` at the dependencies' ready
/// time and submits to it.
fn submit_least_loaded(
    sim: &mut Engine,
    label: &str,
    pool: PoolId,
    duration_ms: f64,
    deps: &[TaskId],
    range: Range<usize>,
) -> TaskId {
    let ready = sim.deps_ready_ms(deps);
    let unit = sim.pool_units(pool)[sim.least_loaded_unit_in(pool, ready, range)];
    sim.submit(label, Some(unit), duration_ms, deps)
}

fn submit_pooled(sim: &mut Engine, k: usize, jobs: &[(f64, usize)]) -> Vec<TaskId> {
    let pool = sim.resource_pool("POOL", k);
    let mut ids: Vec<TaskId> = Vec::new();
    for (i, (dur, dep)) in jobs.iter().enumerate() {
        let deps = deps_of(&ids, i, *dep);
        ids.push(submit_least_loaded(
            sim,
            &format!("t{i}"),
            pool,
            *dur,
            &deps,
            0..k,
        ));
    }
    ids
}

proptest! {
    #[test]
    fn pool_units_never_overlap(jobs in workload_strategy(), k in 1usize..9) {
        let mut sim = Engine::new();
        submit_pooled(&mut sim, k, &jobs);
        prop_assert!(sim.verify_exclusivity(), "a pool unit ran two tasks at once");
    }

    #[test]
    fn least_loaded_selection_is_work_conserving(jobs in workload_strategy(), k in 1usize..9) {
        // No unit may sit idle past a task's ready time while that task
        // waits on a busier unit: every pooled task must start at the
        // earliest instant any unit allows.
        let mut sim = Engine::new();
        let pool = sim.resource_pool("POOL", k);
        let units = sim.pool_units(pool).to_vec();
        let mut ids: Vec<TaskId> = Vec::new();
        for (i, (dur, dep)) in jobs.iter().enumerate() {
            let deps = deps_of(&ids, i, *dep);
            let ready = sim.deps_ready_ms(&deps);
            let earliest = units
                .iter()
                .map(|u| sim.free_at(*u).max(ready))
                .fold(f64::INFINITY, f64::min);
            let id = submit_least_loaded(&mut sim, &format!("t{i}"), pool, *dur, &deps, 0..k);
            prop_assert!(
                (sim.start_of(id) - earliest).abs() < 1e-9,
                "task {i} started at {} but a unit was free at {earliest}",
                sim.start_of(id)
            );
            ids.push(id);
        }
    }

    #[test]
    fn selection_is_an_exact_total_order(jobs in workload_strategy(), k in 2usize..9) {
        // The chosen unit must be the lexicographic minimum of
        // (start, free_at, index) over all units — computed here by
        // scanning in *reverse* index order, so any iteration-order
        // dependence (the failure mode of the old epsilon tie-break, which
        // was not transitive near 1e-12 boundaries) would be caught.
        let mut sim = Engine::new();
        let pool = sim.resource_pool("POOL", k);
        let units = sim.pool_units(pool).to_vec();
        let mut ids: Vec<TaskId> = Vec::new();
        for (i, (dur, dep)) in jobs.iter().enumerate() {
            let deps = deps_of(&ids, i, *dep);
            let ready = sim.deps_ready_ms(&deps);
            let expected = units
                .iter()
                .enumerate()
                .rev()
                .min_by(|(ia, ua), (ib, ub)| {
                    let (fa, fb) = (sim.free_at(**ua), sim.free_at(**ub));
                    fa.max(ready)
                        .total_cmp(&fb.max(ready))
                        .then(fa.total_cmp(&fb))
                        .then(ia.cmp(ib))
                })
                .map(|(i, _)| i)
                .expect("non-empty pool");
            prop_assert_eq!(sim.least_loaded_unit_in(pool, ready, 0..k), expected);
            ids.push(submit_least_loaded(&mut sim, &format!("t{i}"), pool, *dur, &deps, 0..k));
        }
    }

    #[test]
    fn most_loaded_selection_is_an_exact_total_order(
        jobs in workload_strategy(),
        k in 2usize..9,
        split in 0usize..7,
        aging_ms in 0.0f64..20.0,
    ) {
        // The packing selector must pick the lexicographic maximum of
        // (start, free_at) over the slice, with the lowest index on ties —
        // computed here by scanning the slice in *reverse* index order.
        // Tasks are placed as the rig's packing directive places them: on
        // the most-loaded unit, unless that unit is busy more than
        // `aging_ms` past the ready time, then on the least-loaded one.
        let lo = split.min(k - 2);
        let mut sim = Engine::new();
        let pool = sim.resource_pool("POOL", k);
        let units = sim.pool_units(pool).to_vec();
        let mut ids: Vec<TaskId> = Vec::new();
        for (i, (dur, dep)) in jobs.iter().enumerate() {
            let deps = deps_of(&ids, i, *dep);
            let ready = sim.deps_ready_ms(&deps);
            let expected = (lo..k)
                .rev()
                .max_by(|&ia, &ib| {
                    let (fa, fb) = (sim.free_at(units[ia]), sim.free_at(units[ib]));
                    fa.max(ready)
                        .total_cmp(&fb.max(ready))
                        .then(fa.total_cmp(&fb))
                        .then(ib.cmp(&ia))
                })
                .expect("non-empty slice");
            let packed = sim.most_loaded_unit_in(pool, ready, lo..k);
            prop_assert_eq!(packed, expected);
            let id = if sim.free_at(units[packed]) > ready + aging_ms {
                submit_least_loaded(&mut sim, &format!("t{i}"), pool, *dur, &deps, lo..k)
            } else {
                sim.submit(&format!("t{i}"), Some(units[packed]), *dur, &deps)
            };
            ids.push(id);
        }
        prop_assert!(sim.verify_exclusivity());
    }

    #[test]
    fn restricted_selection_is_work_conserving_within_its_slice(
        jobs in workload_strategy(),
        k in 2usize..9,
        split in 1usize..8,
    ) {
        // Class-aware scheduling: tasks confined to units[lo..k] must start
        // at the earliest instant any unit *of the slice* allows, and must
        // never touch a unit outside it.
        let lo = split.min(k - 1);
        let mut sim = Engine::new();
        let pool = sim.resource_pool("POOL", k);
        let units = sim.pool_units(pool).to_vec();
        let mut ids: Vec<TaskId> = Vec::new();
        for (i, (dur, dep)) in jobs.iter().enumerate() {
            let deps = deps_of(&ids, i, *dep);
            let ready = sim.deps_ready_ms(&deps);
            let earliest = units[lo..]
                .iter()
                .map(|u| sim.free_at(*u).max(ready))
                .fold(f64::INFINITY, f64::min);
            let id = submit_least_loaded(&mut sim, &format!("t{i}"), pool, *dur, &deps, lo..k);
            prop_assert_eq!(sim.start_of(id), earliest);
            ids.push(id);
        }
        for u in &units[..lo] {
            prop_assert_eq!(sim.busy_ms(*u), 0.0, "excluded units must stay idle");
        }
        prop_assert!(sim.verify_exclusivity());
    }

    #[test]
    fn k1_pool_reproduces_single_resource_schedule(jobs in workload_strategy()) {
        // The same submission sequence through a k = 1 pool and through the
        // classic single resource must yield the identical schedule, task
        // by task — the old API is exactly the degenerate pool.
        let mut pooled = Engine::new();
        let pooled_ids = submit_pooled(&mut pooled, 1, &jobs);

        let mut plain = Engine::new();
        let res = plain.resource("POOL");
        let mut plain_ids: Vec<TaskId> = Vec::new();
        for (i, (dur, dep)) in jobs.iter().enumerate() {
            let deps = deps_of(&plain_ids, i, *dep);
            plain_ids.push(plain.submit(&format!("t{i}"), Some(res), *dur, &deps));
        }

        for (a, b) in pooled_ids.iter().zip(&plain_ids) {
            prop_assert_eq!(pooled.start_of(*a), plain.start_of(*b));
            prop_assert_eq!(pooled.end_of(*a), plain.end_of(*b));
        }
        prop_assert_eq!(pooled.makespan(), plain.makespan());
        let pool = pooled.resource_pool("POOL", 1);
        prop_assert_eq!(pooled.pool_busy_ms(pool), plain.busy_ms(res));
    }

    #[test]
    fn pool_busy_time_equals_sum_of_durations(jobs in workload_strategy(), k in 1usize..9) {
        let mut sim = Engine::new();
        submit_pooled(&mut sim, k, &jobs);
        let pool = sim.resource_pool("POOL", k);
        let total: f64 = jobs.iter().map(|(d, _)| d).sum();
        prop_assert!((sim.pool_busy_ms(pool) - total).abs() < 1e-6);
        prop_assert!(sim.pool_utilization(pool) <= 1.0 + 1e-12);
    }

    #[test]
    fn wider_pools_never_lengthen_the_schedule(jobs in workload_strategy(), k in 1usize..8) {
        // Adding units can only help a greedy earliest-start scheduler for
        // independent tasks (with dependencies the argument stays true here
        // because chains only serialise on task ends, not unit identity).
        let independent: Vec<(f64, usize)> = jobs.iter().map(|(d, _)| (*d, 0)).collect();
        let mut narrow = Engine::new();
        submit_pooled(&mut narrow, k, &independent);
        let mut wide = Engine::new();
        submit_pooled(&mut wide, k + 1, &independent);
        prop_assert!(wide.makespan() <= narrow.makespan() + 1e-9);
    }
}
