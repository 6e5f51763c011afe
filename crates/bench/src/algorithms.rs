//! The six algorithms of the §5 evaluation, behind one dispatcher.

use rand::RngCore;
use rapidviz_core::{AlgoConfig, GroupSource, IFocus, IRefine, RoundRobin, RunResult};

/// The algorithm lineup of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// IFOCUS(δ).
    IFocus,
    /// IFOCUSR(δ, r).
    IFocusR,
    /// IREFINE(δ).
    IRefine,
    /// IREFINER(δ, r).
    IRefineR,
    /// ROUNDROBIN(δ).
    RoundRobin,
    /// ROUNDROBINR(δ, r).
    RoundRobinR,
}

impl AlgorithmKind {
    /// All six, in the paper's legend order.
    pub const PAPER_SIX: [AlgorithmKind; 6] = [
        AlgorithmKind::IFocus,
        AlgorithmKind::IFocusR,
        AlgorithmKind::IRefine,
        AlgorithmKind::IRefineR,
        AlgorithmKind::RoundRobin,
        AlgorithmKind::RoundRobinR,
    ];

    /// Display name matching the paper's figure legends.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::IFocus => "ifocus",
            AlgorithmKind::IFocusR => "ifocusr",
            AlgorithmKind::IRefine => "irefine",
            AlgorithmKind::IRefineR => "irefiner",
            AlgorithmKind::RoundRobin => "roundrobin",
            AlgorithmKind::RoundRobinR => "roundrobinr",
        }
    }

    /// Whether this is a resolution (`-R`) variant.
    #[must_use]
    pub fn uses_resolution(self) -> bool {
        matches!(
            self,
            AlgorithmKind::IFocusR | AlgorithmKind::IRefineR | AlgorithmKind::RoundRobinR
        )
    }

    /// Runs the algorithm: `base` carries `(c, δ, …)`; `r` is the minimum
    /// resolution applied to the `-R` variants only.
    pub fn run<G: GroupSource>(
        self,
        base: &AlgoConfig,
        r: f64,
        groups: &mut [G],
        rng: &mut dyn RngCore,
    ) -> RunResult {
        let config = if self.uses_resolution() {
            base.clone().with_resolution(r)
        } else {
            base.clone()
        };
        match self {
            AlgorithmKind::IFocus | AlgorithmKind::IFocusR => IFocus::new(config).run(groups, rng),
            AlgorithmKind::IRefine | AlgorithmKind::IRefineR => {
                IRefine::new(config).run(groups, rng)
            }
            AlgorithmKind::RoundRobin | AlgorithmKind::RoundRobinR => {
                RoundRobin::new(config).run(groups, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rapidviz_core::group::VecGroup;

    #[test]
    fn names_and_resolution_flags() {
        assert_eq!(AlgorithmKind::PAPER_SIX.len(), 6);
        assert_eq!(AlgorithmKind::IFocus.name(), "ifocus");
        assert!(AlgorithmKind::IFocusR.uses_resolution());
        assert!(!AlgorithmKind::RoundRobin.uses_resolution());
    }

    #[test]
    fn all_six_run_and_order() {
        let base = AlgoConfig::new(100.0, 0.05);
        for kind in AlgorithmKind::PAPER_SIX {
            let mut groups = vec![
                VecGroup::new("lo", vec![10.0; 2000]),
                VecGroup::new("hi", vec![90.0; 2000]),
            ];
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let result = kind.run(&base, 1.0, &mut groups, &mut rng);
            assert!(
                result.estimates[0] < result.estimates[1],
                "{} mis-ordered",
                kind.name()
            );
        }
    }
}
