//! Feature-vector descriptions of process pairs (§IV-B generalized).
//!
//! The paper's profiling-cost shortcut replicates one measurement per
//! [`LinkClass`]. That is the right idea but the wrong granularity for
//! machines beyond the two paper clusters: a fat-tree has several
//! inter-node distances, a NUMA node has asymmetric socket pairs, and a
//! partially noisy machine mixes measurement regimes. This module
//! generalizes the classing to an explicit **feature vector** per pair —
//! two pairs are interchangeable (measure one, reuse for both) exactly
//! when their feature vectors are equal.
//!
//! The extraction is pluggable ([`PairFeatureExtractor`]): the default
//! [`TopologyExtractor`] derives features from the machine description
//! (interconnect class, socket relation), while [`ExactExtractor`] makes
//! every pair its own class, which degrades the clustered profiling sweep
//! to the exhaustive one — the bit-parity regime the regression harness
//! gates on.
//!
//! Features carry only what the machine model can tell apart, and no
//! floating-point fields: they are hash keys, and the classing keeps no
//! copy of them — a class is known by its index.

use crate::machine::{LinkClass, MachineSpec};
use serde::{Deserialize, Serialize};

/// Marker for "no socket relation" (the endpoints are on different nodes,
/// so their socket indices are not comparable NUMA-wise).
pub const SOCKET_RELATION_REMOTE: u16 = u16::MAX;

/// The equivalence-class key of one ordered pair of cores.
///
/// Two pairs with equal features are assumed to have statistically
/// exchangeable `(O, L)` measurements; the clustered sweep measures one
/// representative per distinct value and validates the assumption with
/// per-class probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PairFeatures {
    /// Coarsest interconnect layer the pair communicates through.
    pub link: LinkClass,
    /// NUMA/socket relation: the unordered `(min, max)` socket indices for
    /// an intra-node pair, `(SOCKET_RELATION_REMOTE, _)` otherwise. On
    /// asymmetric NUMA boards, socket pair (0,1) and (0,2) may have
    /// different interconnect distances even though both are `CrossSocket`.
    pub socket_relation: (u16, u16),
    /// Quantized measurement-noise regime the pair is profiled under
    /// (0 = deterministic). Supplied by the profiling layer, not the
    /// topology: pairs measured under different noise regimes must not
    /// share a representative.
    pub noise_regime: u16,
    /// Extractor-specific refinement. The topology extractor leaves it 0;
    /// [`ExactExtractor`] packs the rank pair here so every pair is a
    /// singleton class.
    pub refinement: u64,
}

/// The equivalence-class key of one rank's diagonal (`O_ii`) measurement:
/// a transmission-free call costs the same on every core of a homogeneous
/// machine, so all diagonals usually collapse into one class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RankFeatures {
    /// Socket index of the rank's core (future-proofing for machines with
    /// heterogeneous sockets; constant on the paper clusters).
    pub socket: u16,
    /// Noise regime, as in [`PairFeatures::noise_regime`].
    pub noise_regime: u16,
    /// Extractor-specific refinement (the rank index under
    /// [`ExactExtractor`]).
    pub refinement: u64,
}

/// Pluggable feature extraction over a machine's core pairs.
///
/// Implementations must be deterministic pure functions of
/// `(machine, ranks, cores)`. The classing calls them once per *pair of
/// rank kinds* ([`Self::rank_kind`]), not once per pair of ranks:
/// `pair_features` keys the off-diagonal cells `(i, j)`, `rank_features`
/// the diagonal cells `(i, i)`. Every later stage of the sweep reads the
/// classing's map, one class id per cell, instead of calling the
/// extractor again.
pub trait PairFeatureExtractor: Sync {
    /// Features of the ordered pair `(rank_i on core_a, rank_j on core_b)`.
    /// `ranks` are provided for extractors that refine by rank identity.
    fn pair_features(
        &self,
        machine: &MachineSpec,
        ranks: (usize, usize),
        cores: (usize, usize),
    ) -> PairFeatures;

    /// Features of one rank's diagonal measurement.
    fn rank_features(&self, machine: &MachineSpec, rank: usize, core: usize) -> RankFeatures;

    /// The rank's *kind*: everything about `(rank, core)` that this
    /// extractor's features can depend on.
    ///
    /// Contract: `pair_features` depends on its two ranks (and their
    /// cores) only through their kinds, and `rank_features` on its rank
    /// only through its kind — replacing either endpoint by another of
    /// equal kind (leaving the two endpoints distinct and, for a symmetric
    /// sweep, in the same rank order) returns equal features. The classing
    /// relies on this to evaluate the extractor on `K²` kind pairs instead
    /// of `|P|²` rank pairs, where `K` is the number of distinct kinds.
    ///
    /// The default — the rank itself — satisfies the contract for every
    /// extractor (`K = |P|`); override it only to make the classing
    /// cheaper.
    fn rank_kind(&self, _machine: &MachineSpec, rank: usize, _core: usize) -> u64 {
        rank as u64
    }
}

/// The default extractor: classes pairs by interconnect topology alone
/// (link class, socket relation), so a homogeneous machine
/// collapses `|P|²` pairs into a handful of classes.
#[derive(Clone, Copy, Debug, Default)]
pub struct TopologyExtractor {
    /// Noise regime stamped into every feature vector (see
    /// [`PairFeatures::noise_regime`]).
    pub noise_regime: u16,
}

impl TopologyExtractor {
    /// Extractor for measurements under the given quantized noise regime.
    pub fn with_noise_regime(noise_regime: u16) -> Self {
        TopologyExtractor { noise_regime }
    }
}

impl PairFeatureExtractor for TopologyExtractor {
    fn pair_features(
        &self,
        machine: &MachineSpec,
        _ranks: (usize, usize),
        (core_a, core_b): (usize, usize),
    ) -> PairFeatures {
        let a = machine.core(core_a);
        let b = machine.core(core_b);
        let link = a.link_class(&b);
        // Read off the link class, so an inter-node pair (most pairs) reads
        // no socket. As a select on node equality both arms got computed,
        // and the classing's kind-table fill took ~20 % longer.
        let socket_relation = match link {
            LinkClass::InterNode => (SOCKET_RELATION_REMOTE, SOCKET_RELATION_REMOTE),
            _ => (a.socket.min(b.socket) as u16, a.socket.max(b.socket) as u16),
        };
        PairFeatures {
            link,
            socket_relation,
            noise_regime: self.noise_regime,
            refinement: 0,
        }
    }

    fn rank_features(&self, machine: &MachineSpec, _rank: usize, core: usize) -> RankFeatures {
        RankFeatures {
            socket: machine.core(core).socket as u16,
            noise_regime: self.noise_regime,
            refinement: 0,
        }
    }

    /// `(node, socket)`: all the features above read of a core.
    fn rank_kind(&self, machine: &MachineSpec, _rank: usize, core: usize) -> u64 {
        let c = machine.core(core);
        ((c.node as u64) << 32) | c.socket as u64
    }
}

/// The degenerate extractor: every pair (and every diagonal) is its own
/// class, so the clustered sweep performs exactly the exhaustive sweep's
/// measurements. This is the regime where clustered and exhaustive
/// profiles must agree bit-for-bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactExtractor {
    /// Noise regime stamped into every feature vector.
    pub noise_regime: u16,
}

impl PairFeatureExtractor for ExactExtractor {
    fn pair_features(
        &self,
        machine: &MachineSpec,
        (i, j): (usize, usize),
        cores: (usize, usize),
    ) -> PairFeatures {
        let mut f = TopologyExtractor::with_noise_regime(self.noise_regime).pair_features(
            machine,
            (i, j),
            cores,
        );
        f.refinement = ((i as u64) << 32) | j as u64;
        f
    }

    fn rank_features(&self, machine: &MachineSpec, rank: usize, core: usize) -> RankFeatures {
        let mut f = TopologyExtractor::with_noise_regime(self.noise_regime)
            .rank_features(machine, rank, core);
        f.refinement = rank as u64;
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Topology features of the core pair `(a, b)`, noise regime 0.
    fn features(m: &MachineSpec, a: usize, b: usize) -> PairFeatures {
        TopologyExtractor::default().pair_features(m, (0, 1), (a, b))
    }

    #[test]
    fn topology_features_track_link_classes() {
        let m = MachineSpec::dual_quad_cluster(2);
        let same = features(&m, 0, 1);
        assert_eq!(same.link, LinkClass::SameSocket);
        assert_eq!(same.socket_relation, (0, 0));

        let cross = features(&m, 0, 4);
        assert_eq!(cross.link, LinkClass::CrossSocket);
        assert_eq!(cross.socket_relation, (0, 1));

        let inter = features(&m, 0, 8);
        assert_eq!(inter.link, LinkClass::InterNode);
        assert_eq!(
            inter.socket_relation,
            (SOCKET_RELATION_REMOTE, SOCKET_RELATION_REMOTE)
        );
    }

    #[test]
    fn topology_features_are_direction_invariant() {
        let m = MachineSpec::dual_hex_cluster(3);
        for (a, b) in [(0usize, 7usize), (2, 13), (5, 30)] {
            assert_eq!(features(&m, a, b), features(&m, b, a));
        }
    }

    #[test]
    fn homogeneous_machine_collapses_to_four_pair_classes() {
        // Same-socket pairs keep their socket identity (asymmetric-NUMA
        // future-proofing), so a dual-socket machine has two same-socket
        // classes plus cross-socket plus inter-node.
        let m = MachineSpec::dual_quad_cluster(4);
        let mut distinct = std::collections::HashSet::new();
        let total = m.total_cores();
        for a in 0..total {
            for b in 0..total {
                if a != b {
                    distinct.insert(features(&m, a, b));
                }
            }
        }
        assert_eq!(distinct.len(), 4, "{distinct:?}");
    }

    #[test]
    fn exact_extractor_separates_every_pair() {
        let m = MachineSpec::new(1, 1, 4);
        let ex = ExactExtractor::default();
        let f01 = ex.pair_features(&m, (0, 1), (0, 1));
        let f02 = ex.pair_features(&m, (0, 2), (0, 2));
        let f10 = ex.pair_features(&m, (1, 0), (1, 0));
        assert_ne!(f01, f02);
        assert_ne!(f01, f10, "ordered pairs stay distinct");
    }

    #[test]
    fn noise_regime_separates_classes() {
        let m = MachineSpec::new(1, 1, 2);
        let quiet = TopologyExtractor::with_noise_regime(0);
        let noisy = TopologyExtractor::with_noise_regime(3);
        assert_ne!(
            quiet.pair_features(&m, (0, 1), (0, 1)),
            noisy.pair_features(&m, (0, 1), (0, 1))
        );
    }

    #[test]
    fn rank_features_record_socket() {
        let m = MachineSpec::dual_quad_cluster(1);
        let ex = TopologyExtractor::default();
        assert_eq!(ex.rank_features(&m, 0, 0).socket, 0);
        assert_eq!(ex.rank_features(&m, 4, 4).socket, 1);
        assert_eq!(ex.rank_features(&m, 0, 0), ex.rank_features(&m, 9, 1));
    }

    #[test]
    fn features_serde_roundtrip() {
        let m = MachineSpec::dual_quad_cluster(2);
        let f = features(&m, 0, 9);
        let json = serde_json::to_string(&f).unwrap();
        let back: PairFeatures = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }
}
