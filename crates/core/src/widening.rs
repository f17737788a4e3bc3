//! Widening strategies for the fixpoint engines.
//!
//! Naive interval widening is *order-sensitive* at dependency-cycle heads:
//! when a cycle head's input arrives piecemeal over several worklist steps
//! (as it does through §5 relay chains with bypassing off), each partial
//! join looks like a "still growing" bound and naive widening extrapolates
//! it to ±∞ — while the bypassed run, receiving the full join at once,
//! stabilizes finitely. The strategies here restore order-independence:
//!
//! * **Threshold widening** clamps a moving bound to the nearest harvested
//!   program constant (guards, array sizes, allocation sites) before
//!   escaping to ±∞ — see [`sga_cfront::thresholds`].
//! * **Delayed widening** performs the first `delay` *changing* joins at a
//!   cycle head as plain joins; only counting changed updates means the
//!   transient partial-join steps are absorbed and both evaluation orders
//!   enter actual widening with the same accumulated state.
//!
//! Both apply only at the already-identified real (non-relay) cycle heads
//! (`DataDeps::cycle_nodes` sparse-side, `Icfg::is_widen_point` dense-side);
//! everywhere else plain join keeps full precision.

use sga_domains::Thresholds;
use sga_ir::Program;

/// Which widening strategy a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WideningStrategy {
    /// Plain interval widening: any moving bound escapes to ±∞ immediately.
    Naive,
    /// Clamp moving bounds to harvested program constants before escaping.
    Threshold,
    /// Threshold widening plus `delay` plain joins at each cycle head
    /// before widening kicks in. The default.
    #[default]
    Delayed,
}

impl WideningStrategy {
    /// Parses a `--widening` argument value.
    pub fn parse(s: &str) -> Option<WideningStrategy> {
        match s {
            "naive" => Some(WideningStrategy::Naive),
            "threshold" => Some(WideningStrategy::Threshold),
            "delayed" => Some(WideningStrategy::Delayed),
            _ => None,
        }
    }

    /// The canonical CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            WideningStrategy::Naive => "naive",
            WideningStrategy::Threshold => "threshold",
            WideningStrategy::Delayed => "delayed",
        }
    }
}

/// Number of plain joins a `Delayed` run performs at each cycle head before
/// widening. Two steps absorb the partial-join transients relay chains
/// introduce (each relay hop contributes at most one extra changing update
/// per ascending pass) while keeping convergence fast.
pub const DEFAULT_DELAY: u32 = 2;

/// Analysis-level widening configuration, threaded from the CLI through
/// `AnalyzeOptions` down to the engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct WideningConfig {
    /// The strategy.
    pub strategy: WideningStrategy,
}

impl WideningConfig {
    /// Configuration for a named strategy.
    pub fn of(strategy: WideningStrategy) -> WideningConfig {
        WideningConfig { strategy }
    }

    /// The naive (pre-strategy-layer) behavior.
    pub fn naive() -> WideningConfig {
        WideningConfig::of(WideningStrategy::Naive)
    }
}

/// A widening configuration *resolved against a program*: the harvested
/// threshold set plus the join delay, ready for the engines to consume.
#[derive(Clone, Debug, Default)]
pub struct WideningPlan {
    /// Plain joins to perform at each cycle head before widening.
    pub delay: u32,
    /// Threshold set (empty ⇒ naive bound escape).
    pub thresholds: Thresholds,
}

impl WideningPlan {
    /// The plan equivalent to the engines' historical behavior: widen on
    /// the first change, no thresholds.
    pub fn naive() -> WideningPlan {
        WideningPlan::default()
    }

    /// Resolves `config` against `program`, harvesting thresholds when the
    /// strategy calls for them.
    pub fn for_program(program: &Program, config: WideningConfig) -> WideningPlan {
        match config.strategy {
            WideningStrategy::Naive => WideningPlan::naive(),
            WideningStrategy::Threshold => WideningPlan {
                delay: 0,
                thresholds: Thresholds::new(sga_cfront::thresholds::harvest(program)),
            },
            WideningStrategy::Delayed => WideningPlan {
                delay: DEFAULT_DELAY,
                thresholds: Thresholds::new(sga_cfront::thresholds::harvest(program)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips() {
        for s in [
            WideningStrategy::Naive,
            WideningStrategy::Threshold,
            WideningStrategy::Delayed,
        ] {
            assert_eq!(WideningStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(WideningStrategy::parse("bogus"), None);
    }

    #[test]
    fn default_is_delayed() {
        assert_eq!(
            WideningConfig::default().strategy,
            WideningStrategy::Delayed
        );
    }

    #[test]
    fn plans_resolve_per_strategy() {
        let program =
            sga_cfront::parse("int main() { int i = 0; while (i < 10) { i = i + 1; } return i; }")
                .expect("valid source");
        let naive = WideningPlan::for_program(&program, WideningConfig::naive());
        assert_eq!(naive.delay, 0);
        assert!(naive.thresholds.is_empty());
        let th =
            WideningPlan::for_program(&program, WideningConfig::of(WideningStrategy::Threshold));
        assert_eq!(th.delay, 0);
        assert!(th.thresholds.clamp_hi(10) == Some(10));
        let delayed =
            WideningPlan::for_program(&program, WideningConfig::of(WideningStrategy::Delayed));
        assert_eq!(delayed.delay, DEFAULT_DELAY);
        assert!(!delayed.thresholds.is_empty());
    }
}
