//! Component barrier algorithms as stages of signal lists.
//!
//! §V-B of the paper selects three building blocks spanning the design
//! space: the *linear* barrier (simplicity), the *binary tree* barrier
//! (the widely used hierarchical method, Fig. 4), and the *dissemination*
//! barrier (participant-count neutral, no explicit departure phase).
//! The paper's future work asks to "generalize … with respect to
//! algorithms employed as components"; we add k-ary trees and the
//! butterfly (pairwise-exchange) pattern.
//!
//! Every generator produces **arrival phases** over a local index space
//! `0..p` with local rank 0 as the root, and is lifted onto global ranks
//! with [`Algorithm::arrival_embedded`]. Departure phases are always
//! derived by the schedule-level transposition (see
//! [`BarrierSchedule::departure_reversed`]); algorithms that synchronize
//! fully in their arrival phases ([`Algorithm::needs_departure`] == false)
//! skip it when used standalone or at the root of a hierarchy.

mod butterfly;
mod dissemination;
mod kary;
mod linear;
mod tree;

pub use butterfly::butterfly_full;
pub(crate) use dissemination::dissemination_radices;
pub use dissemination::{dissemination_full, nway_dissemination_full};
pub use kary::kary_arrival;
pub use linear::linear_arrival;
pub use tree::tree_arrival;

use crate::schedule::{BarrierSchedule, Stage};
use hbar_matrix::SparseBoolMatrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ordered set of global ranks an algorithm instance runs over; the
/// first member acts as the root/representative.
pub type RankSet = Vec<usize>;

/// The component algorithms available to the tuner.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// All ranks signal a master; the master signals everyone back (Fig. 2).
    Linear,
    /// The textbook binary-tree barrier of Fig. 4: pairs combine with
    /// doubling strides, `⌈log₂ p⌉` arrival stages (binomial structure).
    Tree,
    /// `⌈log₂ p⌉` stages of `i → (i + 2^s) mod p` (Fig. 3). Arrival phases
    /// alone synchronize everyone; no departure needed standalone.
    Dissemination,
    /// Heap-shaped k-ary tree reduction (extension; `KAry(2)` is the
    /// pointer-heap binary tree, distinct from [`Algorithm::Tree`]'s
    /// stride-doubling pairing).
    KAry(usize),
    /// Pairwise exchange on hypercube edges (extension; power-of-two
    /// participant counts only). Fully synchronizing like dissemination.
    Butterfly,
    /// n-way dissemination from Hoefler et al.'s survey (the paper's
    /// reference [7]): `⌈log_w P⌉` stages of `w − 1` signals each
    /// (extension; `NWay(2)` coincides with [`Algorithm::Dissemination`]).
    NWay(usize),
}

impl Algorithm {
    /// The paper's three building blocks, in its order of presentation.
    pub const PAPER_SET: [Algorithm; 3] =
        [Algorithm::Linear, Algorithm::Dissemination, Algorithm::Tree];

    /// The extended candidate set including the future-work algorithms.
    pub fn extended_set() -> Vec<Algorithm> {
        vec![
            Algorithm::Linear,
            Algorithm::Dissemination,
            Algorithm::Tree,
            Algorithm::KAry(2),
            Algorithm::KAry(4),
            Algorithm::Butterfly,
            Algorithm::NWay(3),
            Algorithm::NWay(4),
        ]
    }

    /// One-letter tag used in figures ("D", "T", "L") and derived labels.
    pub fn tag(&self) -> String {
        match self {
            Algorithm::Linear => "L".into(),
            Algorithm::Tree => "T".into(),
            Algorithm::Dissemination => "D".into(),
            Algorithm::KAry(k) => format!("K{k}"),
            Algorithm::Butterfly => "B".into(),
            Algorithm::NWay(w) => format!("D{w}"),
        }
    }

    /// Whether this algorithm can be generated for `p` participants.
    pub fn applicable(&self, p: usize) -> bool {
        match self {
            Algorithm::Butterfly => p.is_power_of_two(),
            Algorithm::KAry(k) => *k >= 2,
            Algorithm::NWay(w) => *w >= 2,
            _ => true,
        }
    }

    /// Whether a departure phase is required for non-participants of the
    /// arrival root to learn of completion. Dissemination and butterfly
    /// leave *every* participant fully informed after arrival.
    pub fn needs_departure(&self) -> bool {
        !matches!(
            self,
            Algorithm::Dissemination | Algorithm::Butterfly | Algorithm::NWay(_)
        )
    }

    /// Arrival-phase matrices over local ranks `0..p` (root = 0).
    ///
    /// # Panics
    /// Panics if the algorithm is not applicable to `p` participants.
    pub fn arrival_local(&self, p: usize) -> Vec<SparseBoolMatrix> {
        assert!(self.applicable(p), "{self:?} not applicable to p={p}");
        match self {
            Algorithm::Linear => linear_arrival(p),
            Algorithm::Tree => tree_arrival(p),
            Algorithm::Dissemination => dissemination_full(p),
            Algorithm::KAry(k) => kary_arrival(p, *k),
            Algorithm::Butterfly => butterfly_full(p),
            Algorithm::NWay(w) => nway_dissemination_full(p, *w),
        }
    }

    /// Arrival-phase matrices over global ranks, for the participant set
    /// `members` embedded in an `n`-rank system (root = `members[0]`).
    pub fn arrival_embedded(&self, n: usize, members: &[usize]) -> Vec<SparseBoolMatrix> {
        self.arrival_local(members.len())
            .iter()
            .map(|local| {
                let mut pairs = Vec::new();
                local.embed_into(members, &mut pairs);
                SparseBoolMatrix::from_pairs(n, pairs)
            })
            .collect()
    }

    /// A complete standalone barrier schedule for `members` within an
    /// `n`-rank system: arrival phases plus (if needed) the transposed
    /// departure phases in reverse order.
    pub fn full_schedule(&self, n: usize, members: &[usize]) -> BarrierSchedule {
        let mut sched = BarrierSchedule::new(n);
        for m in self.arrival_embedded(n, members) {
            sched.push(Stage::arrival(m));
        }
        if self.needs_departure() {
            sched.append(sched.departure_reversed(0));
        }
        sched
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Linear => write!(f, "linear"),
            Algorithm::Tree => write!(f, "tree"),
            Algorithm::Dissemination => write!(f, "dissemination"),
            Algorithm::KAry(k) => write!(f, "{k}-ary tree"),
            Algorithm::Butterfly => write!(f, "butterfly"),
            Algorithm::NWay(w) => write!(f, "{w}-way dissemination"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    /// Every generator writes the signals its bitset-filling predecessor
    /// did, kept in the algorithm files as the oracle.
    #[test]
    fn sparse_generators_match_the_dense_ones() {
        for p in 1..=40 {
            for alg in Algorithm::extended_set() {
                if !alg.applicable(p) {
                    continue;
                }
                let dense = match alg {
                    Algorithm::Linear => linear::linear_arrival_dense(p),
                    Algorithm::Tree => tree::tree_arrival_dense(p),
                    Algorithm::Dissemination => dissemination::nway_dissemination_dense(p, 2),
                    Algorithm::KAry(k) => kary::kary_arrival_dense(p, k),
                    Algorithm::Butterfly => butterfly::butterfly_dense(p),
                    Algorithm::NWay(w) => dissemination::nway_dissemination_dense(p, w),
                };
                let sparse: Vec<_> = alg.arrival_local(p).iter().map(|m| m.to_dense()).collect();
                assert_eq!(sparse, dense, "{alg} p={p}");
            }
        }
    }

    #[test]
    fn all_algorithms_yield_valid_barriers() {
        for p in [1usize, 2, 3, 4, 5, 8, 13, 22, 32] {
            for alg in Algorithm::extended_set() {
                if !alg.applicable(p) {
                    continue;
                }
                let members: Vec<usize> = (0..p).collect();
                let sched = alg.full_schedule(p, &members);
                assert!(
                    verify::is_barrier(&sched),
                    "{alg} is not a barrier for p={p}:\n{sched}"
                );
            }
        }
    }

    #[test]
    fn subset_barriers_synchronize_members_only() {
        let members = vec![3, 1, 6, 9];
        for alg in [
            Algorithm::Linear,
            Algorithm::Tree,
            Algorithm::Dissemination,
            Algorithm::Butterfly,
        ] {
            let sched = alg.full_schedule(12, &members);
            assert!(verify::synchronizes_subset(&sched, &members), "{alg}");
            assert!(
                !verify::is_barrier(&sched),
                "{alg} must not touch outsiders"
            );
        }
    }

    #[test]
    fn stage_counts_match_paper() {
        // Linear: 2 stages. Tree: 2·⌈log₂p⌉. Dissemination: ⌈log₂p⌉.
        let members: Vec<usize> = (0..22).collect();
        assert_eq!(Algorithm::Linear.full_schedule(22, &members).len(), 2);
        assert_eq!(Algorithm::Tree.full_schedule(22, &members).len(), 10);
        assert_eq!(
            Algorithm::Dissemination.full_schedule(22, &members).len(),
            5
        );
        let m64: Vec<usize> = (0..64).collect();
        assert_eq!(Algorithm::Dissemination.full_schedule(64, &m64).len(), 6);
        assert_eq!(Algorithm::Butterfly.full_schedule(64, &m64).len(), 6);
    }

    #[test]
    fn butterfly_rejects_non_powers_of_two() {
        assert!(!Algorithm::Butterfly.applicable(6));
        assert!(Algorithm::Butterfly.applicable(8));
    }

    #[test]
    fn paper_set_is_d_t_l() {
        let tags: Vec<String> = Algorithm::PAPER_SET.iter().map(|a| a.tag()).collect();
        assert_eq!(tags, vec!["L", "D", "T"]);
    }

    #[test]
    fn signal_counts_linear_vs_tree() {
        // Linear sends 2(p−1) signals; tree also sends 2(p−1): every
        // non-root has exactly one parent edge, transposed once.
        let members: Vec<usize> = (0..16).collect();
        assert_eq!(
            Algorithm::Linear
                .full_schedule(16, &members)
                .total_signals(),
            30
        );
        assert_eq!(
            Algorithm::Tree.full_schedule(16, &members).total_signals(),
            30
        );
        // Dissemination sends p·⌈log₂p⌉.
        assert_eq!(
            Algorithm::Dissemination
                .full_schedule(16, &members)
                .total_signals(),
            16 * 4
        );
    }

    #[test]
    fn single_member_is_empty_schedule() {
        for alg in Algorithm::extended_set() {
            let sched = alg.full_schedule(5, &[2]);
            assert_eq!(sched.total_signals(), 0, "{alg}");
        }
    }
}
