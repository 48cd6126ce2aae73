//! Local-search building blocks shared by the greedy and GRASP solvers.

use crate::OrienteeringInstance;
use uavdc_graph::improve::two_opt_by;

/// 2-opt cost reduction on a tour of *global* vertex indices, in place.
/// Prize is unaffected (the vertex set does not change); only the order —
/// and thus cost — improves. Returns the new cost.
pub fn two_opt_cost(inst: &OrienteeringInstance, tour: &mut [usize]) -> f64 {
    two_opt_by(tour, 100, |&a, &b| inst.dist(a, b));
    inst.tour_cost(tour)
}

/// Marginal cost of inserting `v` at its best position, and that position.
pub fn best_insertion(inst: &OrienteeringInstance, tour: &[usize], v: usize) -> (f64, usize) {
    match tour.len() {
        0 => (0.0, 0),
        1 => (2.0 * inst.dist(tour[0], v), 1),
        n => {
            let mut best = f64::INFINITY;
            let mut pos = 0;
            for i in 0..n {
                let a = tour[i];
                let b = tour[(i + 1) % n];
                let delta = inst.dist(a, v) + inst.dist(v, b) - inst.dist(a, b);
                if delta < best {
                    best = delta;
                    // Inserting on the closing edge appends at the end so
                    // the depot stays first.
                    pos = i + 1;
                }
            }
            (best, pos)
        }
    }
}

/// Greedily inserts every vertex that still fits, best prize/cost ratio
/// first. `in_tour[v]` must reflect `tour` membership; both are updated.
/// Returns the updated cost.
pub fn fill_insertions(
    inst: &OrienteeringInstance,
    tour: &mut Vec<usize>,
    in_tour: &mut [bool],
    mut cost: f64,
) -> f64 {
    loop {
        let mut best_v = usize::MAX;
        let mut best_pos = 0;
        let mut best_ratio = -1.0;
        let mut best_delta = 0.0;
        #[allow(clippy::needless_range_loop)] // several arrays indexed by v
        for v in 0..inst.len() {
            if in_tour[v] || inst.prize(v) <= 0.0 {
                continue;
            }
            let (delta, pos) = best_insertion(inst, tour, v);
            if cost + delta > inst.budget + 1e-12 {
                continue;
            }
            let ratio = if delta <= 1e-12 {
                f64::INFINITY
            } else {
                inst.prize(v) / delta
            };
            if ratio > best_ratio {
                best_ratio = ratio;
                best_v = v;
                best_pos = pos;
                best_delta = delta;
            }
        }
        if best_v == usize::MAX {
            return cost;
        }
        tour.insert(best_pos, best_v);
        in_tour[best_v] = true;
        cost += best_delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_graph::DistMatrix;

    fn square_instance(budget: f64) -> OrienteeringInstance {
        let m = DistMatrix::from_euclidean(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        OrienteeringInstance::new(m, vec![0.0, 1.0, 1.0, 1.0], 0, budget)
    }

    #[test]
    fn two_opt_fixes_crossed_square() {
        let inst = square_instance(100.0);
        let mut tour = vec![0, 2, 1, 3];
        let cost = two_opt_cost(&inst, &mut tour);
        assert!((cost - 4.0).abs() < 1e-9);
    }

    #[test]
    fn two_opt_on_small_tours_is_identity() {
        let inst = square_instance(100.0);
        let mut tour = vec![0, 1];
        assert_eq!(two_opt_cost(&inst, &mut tour), 2.0);
        assert_eq!(tour, vec![0, 1]);
    }

    #[test]
    fn best_insertion_positions() {
        let inst = square_instance(100.0);
        // Inserting 1 into tour [0, 2] — both positions cost the same on a
        // square; delta = d(0,1)+d(1,2)-d(0,2) = 2 - sqrt(2).
        let (d, pos) = best_insertion(&inst, &[0, 2], 1);
        assert!((d - (2.0 - 2f64.sqrt())).abs() < 1e-12);
        assert!(pos == 1 || pos == 0);
    }

    #[test]
    fn fill_insertions_respects_budget() {
        let inst = square_instance(3.9); // full square needs 4.0
        let mut tour = vec![0];
        let mut in_tour = vec![false; 4];
        in_tour[0] = true;
        let cost = fill_insertions(&inst, &mut tour, &mut in_tour, 0.0);
        assert!(cost <= 3.9 + 1e-9);
        assert!(tour.len() < 4, "cannot fit every vertex in budget 3.9");
        assert!((inst.tour_cost(&tour) - cost).abs() < 1e-9);
    }

    #[test]
    fn fill_insertions_takes_everything_when_budget_allows() {
        let inst = square_instance(4.0);
        let mut tour = vec![0];
        let mut in_tour = vec![false; 4];
        in_tour[0] = true;
        let cost = fill_insertions(&inst, &mut tour, &mut in_tour, 0.0);
        assert_eq!(tour.len(), 4);
        assert!((cost - 4.0).abs() < 1e-9);
    }
}
