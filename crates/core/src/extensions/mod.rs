//! Every algorithm variant of §6 — most of them [`crate::focus`]'s one
//! round under a different crate-private *rule* (named in brackets).
//!
//! * [`trends`], [`graph`] — Problem 3: trend-lines and choropleths need
//!   only *adjacent* groups ordered correctly \[`Neighbours`; a trend line
//!   is the path graph\].
//! * [`topt`] — Problem 4: certify and order only the top-`t` groups \[`TopT`\].
//! * [`mistakes`] — Problem 5: stop early once the ordering of all but an
//!   allowed fraction of pairs is certified \[`Mistakes`\].
//! * [`values`] — Problem 6: ordering *plus* per-group value accuracy `±d`
//!   \[`Values`\].
//! * [`partial`] — Problem 7: stream each group's estimate out the moment
//!   it becomes inactive \[`FullOrder`, plus an emission queue\].
//! * [`sum`] — §6.3.1/§6.3.2: `SUM` with known sizes \[Algorithm 4,
//!   `ScaledSum`\], unknown sizes and `COUNT` \[Algorithm 5, `FullOrder`
//!   over the `x·z` stream\].
//! * [`adaptive`] — variance-adaptive IFOCUS \[`FullOrder` with the
//!   empirical-Bernstein width\].
//!
//! Multiple aggregates (§6.3.5, Problem 8) and no index on the group-by
//! attribute (§6.3.6, Problem 9) have no rule and no product caller: they
//! are paper instruments in `rapidviz-bench` (`multi`, `noindex`), each a
//! loop of its own over this crate's [`crate::FixpointScratch`].
//!
//! Selection predicates (§6.3.3) and multiple group-bys (§6.3.4) change
//! *which rows are eligible*, not the algorithm, and are provided by the
//! storage layer: `rapidviz_needletail::NeedleTail::group_handles` accepts
//! an arbitrary predicate, and a multi-attribute group-by is expressed by
//! handing the algorithm one group per cell of the cross product.

pub mod adaptive;
pub mod graph;
pub mod mistakes;
pub mod partial;
pub mod sum;
pub mod topt;
pub mod trends;
pub mod values;

pub use adaptive::IFocusBernstein;
pub use graph::{is_graph_correct, IFocusGraph};
pub use mistakes::IFocusMistakes;
pub use partial::{IFocusPartial, IFocusPartialStepper, PartialEmission};
pub use sum::{
    count_config, ifocus_count, CountSource, IFocusSum1, IFocusSum1Stepper, IFocusSum2,
    IFocusSum2Stepper, SizedGroupSource, VecSizedGroup,
};
pub use topt::{IFocusTopT, TopTDirection};
pub use trends::IFocusTrends;
pub use values::IFocusValues;
