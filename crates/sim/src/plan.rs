//! Episode plans: everything an episode does, derived from one seed.
//!
//! [`episode_plan`] expands a root `u64` seed into an [`EpisodePlan`] — a
//! plain data description of the table, the query workload, the chaos
//! event schedule, and the resource/fault knobs. The plan is the unit the
//! minimizer edits: dropping an event or a knob yields another valid plan
//! that [`crate::run_episode`] can execute.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rapidviz::needletail::{ColumnDef, DataType, NeedleTail, Predicate, Schema, TableBuilder};
use rapidviz::{AlgorithmChoice, SchedulePolicy};

/// Deterministic recipe for the episode's table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Seed for the table's value stream.
    pub seed: u64,
    /// Total row count.
    pub rows: usize,
    /// Number of distinct primary-group values.
    pub groups: usize,
    /// Number of distinct filter-attribute values.
    pub filter_values: usize,
}

impl TableSpec {
    /// Primary group label for group id `g`.
    #[must_use]
    pub fn group_label(g: usize) -> String {
        format!("grp{g}")
    }

    /// Materializes the table and engine. Columns: `g` (primary group),
    /// `g2` (secondary group, two values), `f` (filter), `v` (measure,
    /// values in `[0, 100]`); all attribute columns indexed.
    ///
    /// # Panics
    ///
    /// Panics only if the engine rejects its own schema (impossible by
    /// construction).
    #[must_use]
    pub fn build(&self) -> NeedleTail {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let means: Vec<f64> = (0..self.groups)
            .map(|_| rng.gen_range(10.0..90.0))
            .collect();
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("g", DataType::Str),
            ColumnDef::new("g2", DataType::Str),
            ColumnDef::new("f", DataType::Str),
            ColumnDef::new("v", DataType::Float),
        ]));
        for i in 0..self.rows {
            // Round-robin assignment keeps every (group, filter) and
            // (group, g2) cell populated, so no generated predicate can
            // empty a group entirely.
            let g = i % self.groups;
            let g2 = if (i / self.groups).is_multiple_of(2) {
                "x"
            } else {
                "y"
            };
            let f = (i / self.groups) % self.filter_values;
            let v = (means[g] + rng.gen_range(-10.0..10.0)).clamp(0.0, 100.0);
            b.push_row(vec![
                Self::group_label(g).into(),
                g2.into(),
                format!("f{f}").into(),
                v.into(),
            ]);
        }
        NeedleTail::new(b.finish(), &["g", "g2", "f"]).expect("sim schema indexes its own columns")
    }
}

/// Which aggregate + algorithm a generated query runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `AVG(v)` under the given ordering algorithm.
    Avg(AlgorithmChoice),
    /// `SUM(v)` (Algorithm 4, known group sizes).
    Sum,
    /// `COUNT`, read from the plan.
    Count,
}

/// The columns a generated query groups by. The engine clusters its rows
/// by `g`, its first indexed column, so `g` groups (and `(g, g2)` cells,
/// whose rows follow `g`'s) keep the draws they had before clustering;
/// `g2` alone is grouped the way every other column is, through per-group
/// intersections over rows the clustering moved. `(g2, g)` is the
/// partition `(g, g2)` is, labelled and ordered by `g2` first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// `g`.
    G,
    /// `(g, g2)`.
    GThenG2,
    /// `(g2, g)`: a multi-column group-by not led by the clustered column.
    G2ThenG,
    /// `g2`.
    G2,
}

impl GroupBy {
    /// The group-by column list.
    #[must_use]
    pub fn columns(self) -> &'static [&'static str] {
        match self {
            GroupBy::G => &["g"],
            GroupBy::GThenG2 => &["g", "g2"],
            GroupBy::G2ThenG => &["g2", "g"],
            GroupBy::G2 => &["g2"],
        }
    }

    /// Draws a group-by: a two-column one with probability `multi` (either
    /// order, equally likely), `g2` alone with probability `other`, else
    /// `g`.
    pub(crate) fn draw(rng: &mut impl Rng, multi: f64, other: f64) -> Self {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < multi / 2.0 {
            GroupBy::GThenG2
        } else if u < multi {
            GroupBy::G2ThenG
        } else if u < multi + other {
            GroupBy::G2
        } else {
            GroupBy::G
        }
    }
}

/// A selection predicate, in "spelling" form: distinct spellings of the
/// same selection share a canonical key, so episodes exercise warm plan
/// cache hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredSpec {
    /// `f = f<value>`.
    FilterEq(usize),
    /// `f = f<a> OR f = f<b>` — `swapped` flips the operand order, which
    /// canonicalization collapses back onto the same plan cache entry.
    FilterIn {
        /// First filter value.
        a: usize,
        /// Second filter value.
        b: usize,
        /// Whether to spell the disjunction in reverse operand order.
        swapped: bool,
    },
}

impl PredSpec {
    /// Builds the engine predicate this spec spells.
    #[must_use]
    pub fn build(&self) -> Predicate {
        let eq = |v: usize| Predicate::eq("f", format!("f{v}"));
        match *self {
            PredSpec::FilterEq(v) => eq(v),
            PredSpec::FilterIn { a, b, swapped } => {
                if swapped {
                    eq(b).or(eq(a))
                } else {
                    eq(a).or(eq(b))
                }
            }
        }
    }
}

/// A query's wall-clock budget, in simulated milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeBudget {
    /// `.timeout(ms)` — relative, anchored at admission.
    Timeout(u64),
    /// `.deadline(now + ms)` — absolute; `0` admits an already-expired
    /// session.
    Deadline(u64),
    /// Both; whichever ends first wins.
    Both {
        /// Timeout milliseconds.
        timeout: u64,
        /// Deadline offset milliseconds.
        deadline: u64,
    },
}

/// One generated query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Session RNG seed (the replay runs the same seed standalone).
    pub seed: u64,
    /// Aggregate + algorithm.
    pub kind: QueryKind,
    /// Selection predicate, if any.
    pub predicate: Option<PredSpec>,
    /// The group-by columns.
    pub group_by: GroupBy,
    /// Failure probability δ.
    pub delta: f64,
    /// Resolution relaxation, in percent of the value range.
    pub resolution_pct: Option<f64>,
    /// Samples per round per active group.
    pub samples_per_round: u64,
    /// Session sample cap. Almost always set — it bounds episode length
    /// and makes budget exhaustion a routinely exercised path.
    pub max_samples: Option<u64>,
    /// Wall-clock budget against the episode's simulated clock.
    pub time_budget: Option<TimeBudget>,
    /// Explicit value bound `c`; `None` exercises bound inference.
    pub bound: Option<f64>,
}

/// Chaos events, applied between scheduler quanta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// Admit `queries[idx]`.
    Admit(usize),
    /// Cancel (`finish()`) the session admitted for `queries[idx]`, if it
    /// is still held; a no-op otherwise (so the minimizer can drop the
    /// matching admit independently).
    Cancel(usize),
    /// Advance the simulated clock by this many milliseconds.
    AdvanceClock(u64),
    /// Switch the scheduler policy mid-stream.
    SwitchPolicy(SchedulePolicy),
    /// Drop the engine's planning caches mid-stream.
    ClearPlanCaches,
}

/// A [`SimEvent`] pinned to a scheduler quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// The quantum before which the event fires.
    pub at_quantum: u64,
    /// The event.
    pub event: SimEvent,
}

/// A fully-derived episode: pure data, cheap to clone, editable by the
/// minimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodePlan {
    /// The root seed the plan was derived from (the `SIM_SEED` repro
    /// handle).
    pub seed: u64,
    /// Scheduler policy the episode starts under.
    pub policy: SchedulePolicy,
    /// Table recipe.
    pub table: TableSpec,
    /// Generated queries (admitted by [`SimEvent::Admit`] events).
    pub queries: Vec<QuerySpec>,
    /// Chaos schedule, sorted by quantum.
    pub events: Vec<ScheduledEvent>,
    /// Global sample budget across the whole scheduler, if any.
    pub global_budget: Option<u64>,
    /// Per-session memory cap in bytes, if any.
    pub memory_cap: Option<usize>,
    /// Storage-read fault injection `(seed, rate)`, if any.
    pub faults: Option<(u64, f64)>,
}

/// All three policies, in a stable order.
pub(crate) const POLICIES: [SchedulePolicy; 3] = [
    SchedulePolicy::FairShare,
    SchedulePolicy::DeadlineAware,
    SchedulePolicy::GreedyConvergence,
];

/// Expands one root seed into a full episode plan under `policy`. Pure:
/// the same `(seed, policy)` always yields the same plan.
#[must_use]
pub fn episode_plan(seed: u64, policy: SchedulePolicy) -> EpisodePlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = rng.gen_range(2..=6usize);
    let table = TableSpec {
        seed: rng.next_u64(),
        rows: rng.gen_range(60..=240usize),
        groups,
        filter_values: 3,
    };

    let n_queries = rng.gen_range(2..=4usize);
    let queries: Vec<QuerySpec> = (0..n_queries).map(|_| query_spec(&mut rng)).collect();

    let mut events: Vec<ScheduledEvent> = Vec::new();
    // Admits: the first query lands before the first quantum so the
    // scheduler has work; the rest trickle in.
    events.push(ScheduledEvent {
        at_quantum: 0,
        event: SimEvent::Admit(0),
    });
    for idx in 1..n_queries {
        events.push(ScheduledEvent {
            at_quantum: rng.gen_range(0..=60),
            event: SimEvent::Admit(idx),
        });
    }
    for _ in 0..rng.gen_range(1..=4usize) {
        let at_quantum = rng.gen_range(0..=150);
        let event = match rng.gen_range(0..5u32) {
            0 => SimEvent::AdvanceClock(rng.gen_range(1..=40)),
            1 => SimEvent::Cancel(rng.gen_range(0..n_queries)),
            2 => SimEvent::SwitchPolicy(POLICIES[rng.gen_range(0..POLICIES.len())]),
            3 => SimEvent::ClearPlanCaches,
            _ => SimEvent::AdvanceClock(rng.gen_range(20..=120)),
        };
        events.push(ScheduledEvent { at_quantum, event });
    }
    events.sort_by_key(|e| e.at_quantum);

    let global_budget = rng.gen_bool(0.3).then(|| rng.gen_range(300..=4000u64));
    let memory_cap = rng.gen_bool(0.2).then(|| rng.gen_range(400..=2500usize));
    let faults = rng
        .gen_bool(0.25)
        .then(|| (rng.next_u64(), rng.gen_range(0.02..=0.3f64)));

    EpisodePlan {
        seed,
        policy,
        table,
        queries,
        events,
        global_budget,
        memory_cap,
        faults,
    }
}

fn query_spec(rng: &mut StdRng) -> QuerySpec {
    let kind = match rng.gen_range(0..8u32) {
        0 | 1 => QueryKind::Avg(AlgorithmChoice::IFocus),
        2 => QueryKind::Avg(AlgorithmChoice::IRefine),
        3 => QueryKind::Avg(AlgorithmChoice::RoundRobin),
        4 => QueryKind::Avg(AlgorithmChoice::ExactScan),
        5 | 6 => QueryKind::Sum,
        _ => QueryKind::Count,
    };
    let is_scan = kind == QueryKind::Avg(AlgorithmChoice::ExactScan);
    let predicate = if rng.gen_bool(0.45) {
        None
    } else if rng.gen_bool(0.5) {
        Some(PredSpec::FilterEq(rng.gen_range(0..3)))
    } else {
        let a = rng.gen_range(0..3);
        let b = (a + 1 + rng.gen_range(0..2)) % 3;
        Some(PredSpec::FilterIn {
            a,
            b,
            swapped: rng.gen_bool(0.5),
        })
    };
    let group_by = GroupBy::draw(rng, 0.2, 0.15);
    // SCAN terminates in k rounds on its own; everything else gets a cap
    // so episode length stays bounded regardless of convergence.
    let max_samples = if is_scan && rng.gen_bool(0.5) {
        None
    } else {
        Some(rng.gen_range(100..=800u64))
    };
    let time_budget = rng.gen_bool(0.35).then(|| match rng.gen_range(0..3u32) {
        0 => TimeBudget::Timeout(rng.gen_range(1..=80)),
        1 => TimeBudget::Deadline(rng.gen_range(0..=80)),
        _ => TimeBudget::Both {
            timeout: rng.gen_range(1..=80),
            deadline: rng.gen_range(0..=80),
        },
    });
    QuerySpec {
        seed: rng.next_u64(),
        kind,
        predicate,
        group_by,
        delta: *[0.05, 0.1, 0.2]
            .get(rng.gen_range(0..3usize))
            .expect("index in range"),
        resolution_pct: rng.gen_bool(0.8).then(|| rng.gen_range(4.0..=15.0f64)),
        samples_per_round: rng.gen_range(1..=6),
        max_samples,
        time_budget,
        // COUNT rejects a value bound: it answers on the [0, 1] scale.
        bound: if kind == QueryKind::Count {
            None
        } else {
            rng.gen_bool(0.7).then_some(100.0)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = episode_plan(seed, SchedulePolicy::FairShare);
            let b = episode_plan(seed, SchedulePolicy::FairShare);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_plans() {
        let a = episode_plan(7, SchedulePolicy::FairShare);
        let b = episode_plan(8, SchedulePolicy::FairShare);
        assert_ne!(a, b);
    }

    #[test]
    fn table_builds_with_every_cell_populated() {
        let spec = TableSpec {
            seed: 3,
            rows: 90,
            groups: 6,
            filter_values: 3,
        };
        let engine = spec.build();
        let handles = engine
            .group_handles("g", "v", &PredSpec::FilterEq(2).build())
            .unwrap();
        assert_eq!(handles.len(), 6, "no filter value empties a group");
        assert!(handles.iter().all(|h| !h.is_empty()));
    }

    #[test]
    fn both_grammars_draw_every_group_by() {
        let mut in_process = Vec::new();
        let mut wire = Vec::new();
        for seed in 0..100u64 {
            let plan = episode_plan(seed, SchedulePolicy::FairShare);
            in_process.extend(plan.queries.iter().map(|q| q.group_by));
            let plan = crate::wire::wire_episode_plan(seed);
            wire.extend(plan.clients.iter().map(|c| c.query.group_by));
        }
        for group_by in [GroupBy::G, GroupBy::GThenG2, GroupBy::G2ThenG, GroupBy::G2] {
            assert!(in_process.contains(&group_by), "in-process {group_by:?}");
            assert!(wire.contains(&group_by), "wire {group_by:?}");
        }
    }

    #[test]
    fn swapped_disjunction_shares_a_canonical_key() {
        let plain = PredSpec::FilterIn {
            a: 0,
            b: 2,
            swapped: false,
        };
        let swapped = PredSpec::FilterIn {
            a: 0,
            b: 2,
            swapped: true,
        };
        assert_eq!(
            plain.build().canonical_key(),
            swapped.build().canonical_key()
        );
    }
}
