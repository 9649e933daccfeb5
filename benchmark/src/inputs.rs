//! Input generation. Everything random in a run derives from `--seed`
//! through the generator here; the program under test receives only the
//! generated inputs.

use hbar_topo::cost::CostMatrices;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;

/// SplitMix64 (Steele, Lea & Flood): small, seedable, and the benchmark's
/// own copy so that no crate under test can change the draws.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator for one purpose (`stream`) of a run seeded with `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        g.next_u64();
        g
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// The cluster-A-derived machine every workload uses: dual quad-core
/// nodes, as many as `p` ranks need.
pub fn machine_for(p: usize) -> MachineSpec {
    MachineSpec::new(p.div_ceil(8), 2, 4)
}

/// Zipf(s) over `0..n` by inverse CDF; item 0 is the most popular.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n >= 1` items with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Draws one item.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// The serve fleet: `count` distinct cost matrices, three of rank count
/// `ps[0]` for every one of `ps[1]`, each the ground-truth costs of a
/// block-placed machine with ±10 % multiplicative jitter per entry. The
/// jitter makes every fingerprint (cache key) distinct and keeps the
/// hierarchy the clustering feeds on.
pub fn serve_fleet(count: usize, ps: [usize; 2], seed: u64) -> Vec<CostMatrices> {
    let bases = ps.map(|p| {
        TopologyProfile::from_ground_truth_for(&machine_for(p), &RankMapping::Block, p).cost
    });
    let mut rng = SplitMix64::new(seed, 0x5e27e);
    (0..count)
        .map(|k| {
            let mut cost = bases[usize::from(k % 4 == 3)].clone();
            for m in [&mut cost.o, &mut cost.l] {
                for i in 0..m.n() {
                    for v in m.row_mut(i) {
                        *v *= 1.0 + 0.2 * (rng.next_f64() - 0.5);
                    }
                }
            }
            cost
        })
        .collect()
}

/// The re-tuning workload's cost drift: congestion on a seeded subset of
/// nodes slows every inter-node entry that touches them.
pub struct Congestion {
    base: CostMatrices,
    node_of: Vec<usize>,
    nodes: usize,
    rng: SplitMix64,
}

impl Congestion {
    /// Drift generator over the ground-truth costs of `p` ranks placed
    /// round-robin on [`machine_for`]`(p)`.
    pub fn new(p: usize, seed: u64) -> Self {
        let machine = machine_for(p);
        let mapping = RankMapping::RoundRobin;
        let node_of: Vec<usize> = mapping.cores(&machine, p).iter().map(|c| c.node).collect();
        Congestion {
            base: TopologyProfile::from_ground_truth_for(&machine, &mapping, p).cost,
            node_of,
            nodes: machine.nodes,
            rng: SplitMix64::new(seed, 0xc0_96e5),
        }
    }

    /// The uncongested costs.
    pub fn base(&self) -> &CostMatrices {
        &self.base
    }

    /// The next drifted matrix: one node in eight (at least one) is
    /// congested by its own factor in `[1, 4]`, and `O_ij`, `L_ij` of ranks
    /// on different nodes are multiplied by the larger of the two nodes'
    /// factors, which keeps the costs symmetric.
    pub fn next_costs(&mut self) -> CostMatrices {
        let mut factor = vec![1.0f64; self.nodes];
        for _ in 0..(self.nodes / 8).max(1) {
            let node = self.rng.below(self.nodes);
            factor[node] = 1.0 + 3.0 * self.rng.next_f64();
        }
        let mut cost = self.base.clone();
        for m in [&mut cost.o, &mut cost.l] {
            for i in 0..m.n() {
                let (ni, fi) = (self.node_of[i], factor[self.node_of[i]]);
                for (j, v) in m.row_mut(i).iter_mut().enumerate() {
                    let nj = self.node_of[j];
                    if nj != ni {
                        *v *= fi.max(factor[nj]);
                    }
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbar_topo::cost::CostProvider;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = serve_fleet(8, [8, 16], 1);
        assert_eq!(a, serve_fleet(8, [8, 16], 1));
        assert_ne!(a, serve_fleet(8, [8, 16], 2));
        assert_eq!(a[0].p(), 8);
        assert_eq!(a[3].p(), 16);
        let fps: std::collections::BTreeSet<u64> = a.iter().map(|c| c.fingerprint()).collect();
        assert_eq!(fps.len(), 8, "every fleet entry is its own cache key");
    }

    #[test]
    fn congestion_only_slows_inter_node_entries() {
        let mut c = Congestion::new(64, 3);
        let drift = c.next_costs();
        let base = c.base().clone();
        let mut changed = 0;
        for i in 0..64 {
            for j in 0..64 {
                let ratio = drift.o[(i, j)] / base.o[(i, j)];
                assert!((1.0..=4.0).contains(&ratio));
                assert_eq!(drift.o[(i, j)], drift.o[(j, i)]);
                if ratio > 1.0 {
                    assert_ne!(c.node_of[i], c.node_of[j]);
                    changed += 1;
                }
            }
        }
        assert!(changed > 0);
        assert_ne!(drift.fingerprint(), base.fingerprint());
    }

    #[test]
    fn zipf_prefers_the_head() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SplitMix64::new(9, 0);
        let mut head = 0;
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!(k < 100);
            head += usize::from(k < 10);
        }
        // Zipf(1) over 100 items puts 56 % of the mass on the first ten.
        assert!((5000..6200).contains(&head), "{head}");
    }
}
