//! Figure 9: `L`-matrix structure of one dual quad-core node.

use hbar_simnet::profiling::ProfilingConfig;
use hbar_simnet::{measure_profile_decomposed, LocalExecutor, NoiseModel, SweepConfig};
use hbar_topo::heatmap::{block_means, render_labelled, BlockMeans};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;

/// Result of the Fig. 9 experiment.
#[derive(Clone, Debug)]
pub struct HeatmapFigure {
    /// The measured single-node profile (8 ranks, block mapping).
    pub profile: TopologyProfile,
    /// Rendered heat map of the `L` matrix.
    pub rendering: String,
    /// On-chip vs off-chip block means of `L` (block size 4).
    pub l_blocks: BlockMeans,
}

/// Profiles one dual quad-core node under block mapping (ranks 0–3 on
/// socket 0, ranks 4–7 on socket 1 — the layout of Fig. 9) and renders
/// its `L` matrix.
pub fn run_heatmap(noise: NoiseModel, cfg: &ProfilingConfig) -> HeatmapFigure {
    let machine = MachineSpec::dual_quad_cluster(1);
    let (profile, _) = measure_profile_decomposed(
        &machine,
        &RankMapping::Block,
        8,
        noise,
        &SweepConfig::exact(cfg.clone()),
        &mut LocalExecutor::new(machine.clone(), noise, cfg.clone()),
    )
    .expect("local execution is infallible");
    let rendering = render_labelled(&profile.cost.l, "L Matrix Heat Map, 2x4 cores");
    let l_blocks = block_means(&profile.cost.l, 4);
    HeatmapFigure {
        profile,
        rendering,
        l_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shows_two_dark_blocks_with_factor_4_gap() {
        let fig = run_heatmap(NoiseModel::none(), &ProfilingConfig::fast());
        // "around a factor 4 observable difference between on-chip and
        // off-chip messages."
        let ratio = fig.l_blocks.ratio();
        assert!((2.5..6.0).contains(&ratio), "ratio {ratio}");
        // Values land in the paper's colour-scale range (0–7e-7 s).
        assert!(
            fig.l_blocks.on > 5e-8 && fig.l_blocks.off < 7e-7,
            "{:?}",
            fig.l_blocks
        );
        assert!(fig.rendering.contains("L Matrix Heat Map"));
    }

    #[test]
    fn fig9_survives_noise() {
        let fig = run_heatmap(NoiseModel::realistic(99), &ProfilingConfig::fast());
        assert!(fig.l_blocks.ratio() > 1.5, "structure must remain visible");
    }
}
