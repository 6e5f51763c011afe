//! The session-list generator is a pure function of the seed: the table
//! seed, the predicate pool, the Zipf draws and the disconnect points all
//! repeat exactly, and a different seed changes them.

#[allow(dead_code)]
#[path = "../benches/stack/workload.rs"]
mod workload;

use workload::{plan, predicate_pool, table_seed, Filter, Workload, PREDICATE_POOL};

const SEEDS: [u64; 2] = [31, 97];

#[test]
fn same_seed_same_plan() {
    for w in Workload::ALL {
        for seed in SEEDS {
            assert_eq!(plan(w, seed), plan(w, seed), "{} @ {seed}", w.name());
            assert_eq!(table_seed(seed), table_seed(seed));
        }
    }
}

#[test]
fn another_seed_another_plan() {
    for w in Workload::ALL {
        assert_ne!(
            plan(w, SEEDS[0]),
            plan(w, SEEDS[1]),
            "{} ignores the seed",
            w.name()
        );
    }
    assert_ne!(table_seed(SEEDS[0]), table_seed(SEEDS[1]));
}

#[test]
fn predicate_pool_is_256_distinct_canonical_predicates() {
    let pool = predicate_pool();
    assert_eq!(pool, predicate_pool());
    assert_eq!(pool.len(), PREDICATE_POOL);
    for (i, a) in pool.iter().enumerate() {
        assert!(!pool[..i].contains(a), "duplicate predicate {a:?}");
        if let Filter::OriginIn(origins) = a {
            assert!(
                origins.windows(2).all(|w| w[0] < w[1]),
                "pool entries are canonical"
            );
        }
    }
}

#[test]
fn dashboards_share_one_where_and_seeds_are_unique() {
    let p = plan(Workload::PlanFanout, SEEDS[0]);
    assert_eq!(p.tiles_per_dashboard, 4);
    for tiles in p.lanes[0].chunks(p.tiles_per_dashboard) {
        assert!(tiles.iter().all(|t| t.filter == tiles[0].filter));
    }
    for w in Workload::ALL {
        let p = plan(w, SEEDS[0]);
        let mut seeds: Vec<u64> = p.lanes.iter().flatten().map(|s| s.seed).collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(
            seeds.len(),
            n,
            "{}: two sessions share an RNG seed",
            w.name()
        );
    }
}

#[test]
fn churn_drops_between_round_10_and_40() {
    for seed in SEEDS {
        let p = plan(Workload::WireChurn, seed);
        assert_eq!(p.lanes.len(), 2);
        for spec in p.lanes.iter().flatten() {
            let at = spec.drop_after_round.expect("every churn session drops");
            assert!((10..=40).contains(&at), "drop at round {at}");
        }
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        assert!(
            w.why().len() <= 200,
            "{}: why exceeds 200 characters",
            w.name()
        );
    }
    assert_eq!(Workload::from_name("nope"), None);
}
