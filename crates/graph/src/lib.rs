//! Dense metric graph algorithms for UAV tour planning.
//!
//! The planners in `uavdc-core` repeatedly need classic combinatorial
//! machinery over complete Euclidean/metric graphs:
//!
//! * **Christofides' TSP heuristic** \[Christofides 1976\] — the tour
//!   subroutine of the paper's Algorithm 2, Algorithm 3, and benchmark
//!   heuristic. Built here from its three ingredients:
//!   [`mst::prim_mst`], a minimum-weight perfect matching
//!   ([`matching::min_weight_perfect_matching`], exact DP for small
//!   instances, an O(n³) blossom algorithm in general), and a Hierholzer
//!   Euler circuit ([`euler::euler_circuit`]).
//! * **Tour improvement** — 2-opt and Or-opt local search ([`improve`]).
//!   One 2-opt sweep, [`improve::two_opt_by`], serves every tour in the
//!   workspace: matrix tours, the incremental tour's cached distances,
//!   Algorithm 2's point tours and the orienteering solvers.
//! * **Incremental tours** — [`incremental::IncrementalTour`] patches a
//!   Christofides tour under single-stop insertion and removal, with the
//!   cached insertion kernels Algorithm 2's engines scan.
//! * **Exact TSP** — Held–Karp dynamic programming for small instances
//!   ([`exact::held_karp`]), used as ground truth in tests and for tiny
//!   tours inside the planners.
//!
//! All algorithms operate on a [`DistMatrix`], a dense symmetric matrix of
//! non-negative edge weights; tours are permutations of `0..n` wrapped in
//! [`Tour`].
//!
//! # Example
//!
//! ```
//! use uavdc_graph::{DistMatrix, christofides::christofides};
//!
//! // Four corners of a unit square: optimal tour length 4.
//! let pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
//! let m = DistMatrix::from_euclidean(&pts);
//! let tour = christofides(&m);
//! assert!(tour.length(&m) <= 1.5 * 4.0 + 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bound;
pub mod christofides;
pub mod euler;
pub mod exact;
pub mod improve;
pub mod incremental;
pub mod matching;
mod matrix;
pub mod mst;
mod tour;

pub use matrix::DistMatrix;
pub use tour::Tour;
