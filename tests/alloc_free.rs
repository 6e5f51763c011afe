//! Steady-state allocation accounting for the batched sampling pipeline.
//!
//! The PR's acceptance criterion: once the per-sampler scratch arena and
//! the caller's output buffers have warmed up, drawing further batches must
//! perform **zero heap allocation** — the memory-bottleneck regime the
//! PIM-analytics line of work identifies is dominated by exactly this kind
//! of per-batch churn. A counting global allocator (installed for this test
//! binary only) verifies it directly.

#![expect(unsafe_code, reason = "a counting GlobalAlloc is an unsafe trait impl")]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapidviz::core::extensions::{IFocusSum1, IFocusSum2, VecSizedGroup};
use rapidviz::core::group::VecGroup;
use rapidviz::core::{AlgoConfig, AlgorithmStepper, IFocus, SamplingMode, StepOutcome};
use rapidviz::needletail::{
    Bitmap, BitmapSampler, ColumnDef, DataType, FaultInjector, FaultSite, NeedleTail, Predicate,
    RowSet, Schema, SizeEstimatingSampler, TableBuilder,
};
use rapidviz::NeedletailGroup;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator wrapper that counts every allocation (and
/// reallocation; frees are not counted — the claim under test is about
/// acquiring memory, not returning it) **per thread**: libtest runs the
/// tests in this binary concurrently, and a process-global counter would
/// see every sibling test's warm-up allocations inside another test's
/// measurement window. Alongside the count, requested **bytes** are
/// tracked, so tests can additionally assert that a path performs no
/// *table-sized* allocation (an allocation count alone cannot tell a
/// 16-byte label clone from a megabyte bitmap clone).
struct CountingAllocator;

thread_local! {
    // Const-initialized so the first access from inside `alloc` cannot
    // itself allocate (lazy TLS initializers may).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bumps this thread's counters; silently skipped during TLS teardown,
/// where the slots are no longer accessible (no measurement runs there).
fn count_alloc(bytes: usize) {
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY-FREE: pure delegation to `System` plus thread-local bumps.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many allocations this thread performed in it.
fn allocations_during(mut f: impl FnMut()) -> u64 {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    f();
    THREAD_ALLOCATIONS.with(Cell::get) - before
}

/// Runs `f` and returns how many bytes this thread requested in it.
fn alloc_bytes_during(mut f: impl FnMut()) -> u64 {
    let before = THREAD_ALLOC_BYTES.with(Cell::get);
    f();
    THREAD_ALLOC_BYTES.with(Cell::get) - before
}

fn mixed_bitmap() -> Bitmap {
    let mut positions: Vec<u64> = (10_000..30_000).collect();
    positions.extend((30_000..200_000).step_by(9).map(|p| p as u64));
    Bitmap::from_sorted_positions(&positions, 200_000)
}

#[test]
fn with_replacement_batches_are_allocation_free_at_steady_state() {
    let mut sampler = BitmapSampler::new(mixed_bitmap());
    let mut rng = StdRng::seed_from_u64(1);
    let mut out = Vec::new();
    // Warm-up: grows the scratch arena and the output buffer.
    for _ in 0..3 {
        out.clear();
        sampler.sample_batch_with_replacement(512, &mut rng, &mut out);
    }
    let allocs = allocations_during(|| {
        for _ in 0..50 {
            out.clear();
            sampler.sample_batch_with_replacement(512, &mut rng, &mut out);
        }
    });
    assert_eq!(allocs, 0, "steady-state WR batch must not allocate");
}

#[test]
fn radix_sized_batches_are_allocation_free_at_steady_state() {
    let mut sampler = BitmapSampler::new(mixed_bitmap());
    let mut rng = StdRng::seed_from_u64(2);
    let mut out = Vec::new();
    for _ in 0..3 {
        out.clear();
        sampler.sample_batch_with_replacement(4096, &mut rng, &mut out);
    }
    let allocs = allocations_during(|| {
        for _ in 0..20 {
            out.clear();
            sampler.sample_batch_with_replacement(4096, &mut rng, &mut out);
        }
    });
    assert_eq!(allocs, 0, "a 4,096-key batch must not allocate");
}

#[test]
fn size_estimating_batches_are_allocation_free_at_steady_state() {
    let mut sampler = SizeEstimatingSampler::new(mixed_bitmap(), 200_000);
    let mut rng = StdRng::seed_from_u64(3);
    let mut out = Vec::new();
    for _ in 0..3 {
        out.clear();
        sampler.sample_batch_with_size_estimate(512, &mut rng, &mut out);
    }
    let allocs = allocations_during(|| {
        for _ in 0..50 {
            out.clear();
            sampler.sample_batch_with_size_estimate(512, &mut rng, &mut out);
        }
    });
    assert_eq!(allocs, 0, "unknown-size SUM batch path must not allocate");
}

#[test]
fn without_replacement_batches_only_allocate_for_swap_growth() {
    let mut sampler = BitmapSampler::new(mixed_bitmap());
    let mut rng = StdRng::seed_from_u64(4);
    let mut out = Vec::new();
    // One batch of the measured size warms the scratch arena; the keyed
    // permutation itself stores nothing per draw, so nothing else grows.
    sampler.sample_batch_without_replacement(512, &mut rng, &mut out);
    let allocs = allocations_during(|| {
        for _ in 0..3 {
            out.clear();
            sampler.sample_batch_without_replacement(512, &mut rng, &mut out);
        }
    });
    assert_eq!(allocs, 0, "WOR batches must not allocate");
}

#[test]
fn range_and_positions_batches_are_allocation_free_after_one_warm_up() {
    // These two shapes resolve ranks in draw order without the sort's
    // buffers: one batch of the measured size must be all the warm-up.
    let positions: Vec<u64> = (0..200_000).map(|i| i * 3 + 2).collect();
    let shapes = [
        RowSet::Range {
            start: 7,
            count: 200_000,
            universe: 600_000,
        },
        RowSet::Positions {
            positions: Arc::new(positions),
            universe: 600_000,
        },
    ];
    for rows in shapes {
        for batch in [16, 256] {
            for replace in [false, true] {
                let mut sampler = BitmapSampler::from_rows(rows.clone());
                let mut rng = StdRng::seed_from_u64(batch as u64);
                let mut out = Vec::new();
                let mut draw = |out: &mut Vec<u64>| {
                    out.clear();
                    if replace {
                        sampler.sample_batch_with_replacement(batch, &mut rng, out)
                    } else {
                        sampler.sample_batch_without_replacement(batch, &mut rng, out)
                    }
                };
                assert_eq!(draw(&mut out), batch);
                let allocs = allocations_during(|| {
                    for _ in 0..20 {
                        assert_eq!(draw(&mut out), batch);
                    }
                });
                let shape = if matches!(rows, RowSet::Range { .. }) {
                    "range"
                } else {
                    "positions"
                };
                assert_eq!(allocs, 0, "{shape} batches of {batch}, replace {replace}");
            }
        }
    }
}

#[test]
fn ifocus_stepper_rounds_are_allocation_free_at_steady_state() {
    // A full IFOCUS round — batched draws through the per-state scratch,
    // ε recomputation, and the deactivation fixpoint in the reusable
    // FixpointScratch arena (members, interval set, removal list) — must
    // not touch the heap once warm. Near-tied means keep both groups
    // active for far more rounds than the measurement window; sampling
    // with replacement keeps the VecGroup draw itself state-free.
    let mut rng = StdRng::seed_from_u64(10);
    let values = |mu: f64, rng: &mut StdRng| -> Vec<f64> {
        (0..20_000)
            .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
            .collect()
    };
    let mut groups = vec![
        VecGroup::new("a", values(45.0, &mut rng)),
        VecGroup::new("b", values(45.3, &mut rng)),
    ];
    let config = AlgoConfig::new(100.0, 0.05).with_mode(SamplingMode::WithReplacement);
    let mut run_rng = StdRng::seed_from_u64(11);
    let mut stepper = IFocus::new(config).start(&mut groups, &mut run_rng);
    // Warm-up: grows the draw scratch, round-index buffer, and fixpoint
    // arena to their steady sizes.
    for _ in 0..5 {
        assert_eq!(
            stepper.step(&mut groups, &mut run_rng),
            StepOutcome::Running
        );
    }
    let allocs = allocations_during(|| {
        for _ in 0..50 {
            assert_eq!(
                stepper.step(&mut groups, &mut run_rng),
                StepOutcome::Running,
                "near-tie must outlast the measurement window"
            );
        }
    });
    assert_eq!(allocs, 0, "steady-state IFOCUS step must not allocate");
}

/// Counts the row reads made off the thread that built it; fails none.
#[derive(Debug)]
struct OffThreadReads {
    home: std::thread::ThreadId,
    reads: AtomicU64,
}

impl FaultInjector for OffThreadReads {
    fn fails(&self, _site: FaultSite, _row: u64) -> bool {
        if std::thread::current().id() != self.home {
            self.reads.fetch_add(1, Ordering::SeqCst);
        }
        false
    }
}

#[test]
fn wide_needletail_rounds_are_allocation_free_after_one_warm_up() {
    // 14 groups with one value multiset never separate, and each round
    // draws 14 × 256 keyed rows into the stepper's reused out-buffers.
    // Every row is read on the stepping thread, whatever the core count,
    // so the per-thread count sees every allocation a round makes.
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    for i in 0..14 * 20_000u32 {
        b.push_row(vec![
            format!("g{:02}", i % 14).into(),
            f64::from(i % 97).into(),
        ]);
    }
    let mut engine = NeedleTail::new(b.finish(), &["g"]).unwrap();
    let watch = Arc::new(OffThreadReads {
        home: std::thread::current().id(),
        reads: 0.into(),
    });
    engine.set_fault_injector(watch.clone());
    let handles = engine.group_handles("g", "v", &Predicate::True).unwrap();
    let mut groups: Vec<NeedletailGroup> = handles.into_iter().map(NeedletailGroup::new).collect();
    let config = AlgoConfig::new(100.0, 0.05).with_samples_per_round(256);
    let mut rng = StdRng::seed_from_u64(12);
    let mut stepper = IFocus::new(config).start(&mut groups, &mut rng);
    assert!(stepper.step(&mut groups, &mut rng).is_running());
    let allocs = allocations_during(|| {
        for _ in 0..20 {
            assert!(stepper.step(&mut groups, &mut rng).is_running());
        }
    });
    assert_eq!(allocs, 0, "a warm wide round must not allocate");
    let reads = watch.reads.load(Ordering::SeqCst);
    assert_eq!(reads, 0, "rows were read off the stepping thread");
}

#[test]
fn sum1_stepper_rounds_are_allocation_free_at_steady_state() {
    // Same claim for the Algorithm-4 stepper at a wide batch: 64 draws per
    // group through the draw scratch, then the sum-space cut-off and
    // deactivation fixpoint. Equal sizes and near-tied means keep both
    // groups active through the window; with replacement nothing exhausts.
    let mut rng = StdRng::seed_from_u64(14);
    let values = |mu: f64, rng: &mut StdRng| -> Vec<f64> {
        (0..20_000)
            .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
            .collect()
    };
    let mut groups = vec![
        VecGroup::new("a", values(45.0, &mut rng)),
        VecGroup::new("b", values(45.3, &mut rng)),
    ];
    let config = AlgoConfig::new(100.0, 0.05)
        .with_mode(SamplingMode::WithReplacement)
        .with_samples_per_round(64);
    let mut run_rng = StdRng::seed_from_u64(15);
    let mut stepper = IFocusSum1::new(config).start(&mut groups, &mut run_rng);
    for _ in 0..5 {
        assert_eq!(
            stepper.step(&mut groups, &mut run_rng),
            StepOutcome::Running
        );
    }
    let allocs = allocations_during(|| {
        for _ in 0..50 {
            assert_eq!(
                stepper.step(&mut groups, &mut run_rng),
                StepOutcome::Running,
                "near-tie must outlast the measurement window"
            );
        }
    });
    assert_eq!(allocs, 0, "steady-state SUM1 step must not allocate");
    assert_eq!(stepper.total_samples(), 2 * (1 + 55 * 64));
}

#[test]
fn sum2_stepper_rounds_are_allocation_free_at_steady_state() {
    // Same claim for the Algorithm-5 stepper: the batched (x, z) draw into
    // the reusable pair buffer plus its deactivation fixpoint (formerly
    // fresh `members`/`to_remove` vectors and a fresh IntervalSet per
    // iteration — the open ROADMAP item) must be allocation-free once the
    // scratch arena has warmed up.
    let mut rng = StdRng::seed_from_u64(12);
    let values = |mu: f64, rng: &mut StdRng| -> Vec<f64> {
        (0..10_000)
            .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
            .collect()
    };
    let mut groups = vec![
        VecSizedGroup::new("a", values(50.0, &mut rng), 0.40),
        VecSizedGroup::new("b", values(50.0, &mut rng), 0.41),
    ];
    let config = AlgoConfig::new(100.0, 0.05);
    let mut run_rng = StdRng::seed_from_u64(13);
    let mut stepper = IFocusSum2::new(config).start(&mut groups, &mut run_rng);
    for _ in 0..5 {
        assert_eq!(
            stepper.step(&mut groups, &mut run_rng),
            StepOutcome::Running
        );
    }
    let allocs = allocations_during(|| {
        for _ in 0..50 {
            assert_eq!(
                stepper.step(&mut groups, &mut run_rng),
                StepOutcome::Running,
                "near-tied fractions must outlast the measurement window"
            );
        }
    });
    assert_eq!(allocs, 0, "steady-state SUM2 step must not allocate");
}

#[test]
fn warm_plan_calls_allocate_no_table_sized_memory() {
    // The PR 5 satellite claim: planning a repeat query must not clone
    // table-sized bitmaps. `Predicate::True` handles alias the index's
    // own bitmaps behind `Arc`, and filtered repeats hit the plan cache,
    // so a warm `group_handles` call allocates only per-handle slivers
    // (labels, sampler state, the output Vec) — a few hundred bytes —
    // while one dense bitmap clone of this 200k-row table would be ≥25 KB
    // on its own. Byte accounting (not allocation counting) is what can
    // tell those apart.
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("year", DataType::Float),
        ColumnDef::new("v", DataType::Float),
    ]));
    for i in 0..200_000u32 {
        let name = match i % 3 {
            0 => "a",
            1 => "b",
            _ => "c",
        };
        b.push_row(vec![
            name.into(),
            f64::from(2000 + i % 4).into(),
            f64::from(i % 97).into(),
        ]);
    }
    let engine = NeedleTail::new(b.finish(), &["g", "year"]).unwrap();
    let filter = Predicate::eq("year", 2001.0).and(Predicate::ge("v", 50.0));
    // Warm-up: populate the predicate and plan caches.
    for _ in 0..2 {
        let _ = engine.group_handles("g", "v", &Predicate::True).unwrap();
        let _ = engine.group_handles("g", "v", &filter).unwrap();
    }
    let calls = 10u64;
    let per_call_budget = 4096u64;
    for (label, predicate) in [("True", Predicate::True), ("filtered", filter)] {
        let bytes = alloc_bytes_during(|| {
            for _ in 0..calls {
                let handles = engine.group_handles("g", "v", &predicate).unwrap();
                assert_eq!(handles.len(), 3);
                std::hint::black_box(&handles);
            }
        });
        assert!(
            bytes < calls * per_call_budget,
            "{label}: warm planning allocated {bytes} bytes over {calls} calls \
             (> {per_call_budget}/call) — something is cloning table-scale state"
        );
    }
}

#[test]
fn dense_pair_boolean_ops_allocate_only_their_result() {
    // AND/OR of two dense bitmaps reads both operands in place: the only
    // memory acquired is the result's word vector and its two rank
    // directories, never a copy of an operand.
    let len = 1_000_000u64;
    let evens: Vec<u64> = (0..len).step_by(2).collect();
    let thirds: Vec<u64> = (0..len).step_by(3).collect();
    let a = Bitmap::from_sorted_positions(&evens, len);
    let b = Bitmap::from_sorted_positions(&thirds, len);
    for (name, op) in [
        ("and", Bitmap::and as fn(&Bitmap, &Bitmap) -> Bitmap),
        ("or", Bitmap::or),
    ] {
        let mut result = None;
        let bytes = alloc_bytes_during(|| {
            let allocs = allocations_during(|| result = Some(op(&a, &b)));
            assert!(allocs <= 3, "dense {name} made {allocs} allocations");
        });
        let result = result.expect("ran");
        assert!(
            bytes <= result.heap_bytes() as u64,
            "dense {name} requested {bytes} bytes for a {}-byte result",
            result.heap_bytes()
        );
    }
    assert_eq!(a.and(&b).count_ones(), len.div_ceil(6));
}

#[test]
fn engine_group_handle_batches_are_allocation_free_at_steady_state() {
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    for i in 0..40_000u32 {
        let name = if i % 3 == 0 { "a" } else { "b" };
        b.push_row(vec![name.into(), f64::from(i % 97).into()]);
    }
    let engine = NeedleTail::new(b.finish(), &["g"]).unwrap();
    let mut handles = engine.group_handles("g", "v", &Predicate::True).unwrap();
    let handle = &mut handles[0];
    let mut rng = StdRng::seed_from_u64(5);
    let mut out = Vec::new();
    for _ in 0..3 {
        out.clear();
        handle.sample_batch_with_replacement(256, &mut rng, &mut out);
    }
    let allocs = allocations_during(|| {
        for _ in 0..50 {
            out.clear();
            handle.sample_batch_with_replacement(256, &mut rng, &mut out);
        }
    });
    assert_eq!(allocs, 0, "engine batch path must not allocate");
}

#[test]
fn filtered_clustered_group_batches_are_allocation_free_at_steady_state() {
    // `g` is the first indexed column, so an unfiltered `g` group is a row
    // range (a batch adds its start to the ranks) and a filtered one is a
    // rank window of the filter's bitmap (a batch shifts its ranks in the
    // sampler's scratch instead of a fresh buffer).
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("f", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    for i in 0..60_000u32 {
        let name = if i % 3 == 0 { "a" } else { "b" };
        let f = if i % 5 < 2 { "x" } else { "y" };
        b.push_row(vec![name.into(), f.into(), f64::from(i % 97).into()]);
    }
    let engine = NeedleTail::new(b.finish(), &["g", "f"]).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let mut out = Vec::new();
    for (filter, mode) in [
        (Predicate::True, SamplingMode::WithReplacement),
        (Predicate::True, SamplingMode::WithoutReplacement),
        (Predicate::eq("f", "x"), SamplingMode::WithReplacement),
        (Predicate::eq("f", "x"), SamplingMode::WithoutReplacement),
    ] {
        let mut handles = engine.group_handles("g", "v", &filter).unwrap();
        let handle = &mut handles[0];
        let mut draw = |handle: &mut rapidviz::needletail::GroupHandle, n: usize| {
            out.clear();
            match mode {
                SamplingMode::WithReplacement => {
                    handle.sample_batch_with_replacement(n, &mut rng, &mut out)
                }
                SamplingMode::WithoutReplacement => {
                    handle.sample_batch_without_replacement(n, &mut rng, &mut out)
                }
            }
        };
        // One batch of the measured size grows the scratch and the output
        // buffer; the filtered group's 8 000 rows outlast all 2 816 draws.
        assert_eq!(draw(handle, 256), 256);
        let allocs = allocations_during(|| {
            for _ in 0..10 {
                assert_eq!(draw(handle, 256), 256);
            }
        });
        assert_eq!(
            allocs, 0,
            "{mode:?} batches under {filter:?} must not allocate"
        );
    }
}

#[test]
fn exact_passes_are_allocation_free() {
    // `g` is the first indexed column: unfiltered its groups are row
    // ranges, under a filter rank windows of the filter's bitmap. `h` is
    // not: unfiltered its groups share the index's bitmaps, and under a
    // filter that keeps 1 row in 100 they are sorted positions.
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("g", DataType::Str),
        ColumnDef::new("h", DataType::Str),
        ColumnDef::new("f", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    for i in 0..64_000u32 {
        let g = if i % 3 == 0 { "a" } else { "b" };
        let h = ["p", "q", "r", "s"][(i % 4) as usize];
        let f = if i % 100 == 7 { "x" } else { "y" };
        b.push_row(vec![g.into(), h.into(), f.into(), f64::from(i % 97).into()]);
    }
    let engine = NeedleTail::new(b.finish(), &["g", "h", "f"]).unwrap();
    for (column, filter) in [
        ("g", Predicate::True),
        ("g", Predicate::eq("f", "y")),
        ("h", Predicate::True),
        ("h", Predicate::eq("f", "x")),
    ] {
        let handles = engine.group_handles(column, "v", &filter).unwrap();
        let mut rows = 0;
        let allocs = allocations_during(|| {
            for handle in &handles {
                rows += std::hint::black_box(handle.exact()).delivered;
                std::hint::black_box(handle.exact_mean());
            }
        });
        assert_eq!(allocs, 0, "exact passes over {column} under {filter:?}");
        assert_eq!(rows, handles.iter().map(|h| h.len()).sum::<u64>());
    }
}

#[test]
fn cold_multi_column_plans_request_bytes_linear_in_rows() {
    // 14 × 40 = 560 cells over ~100k rows. A joint index with a
    // table-length bitmap per cell would request about
    // 560 · rows · 9/64 bytes (≈ 8 MB) before the plan itself; one pass
    // over the rows requests a few row ids' worth per row, however many
    // cells there are.
    let mut b = TableBuilder::new(Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("origin", DataType::Str),
        ColumnDef::new("v", DataType::Float),
    ]));
    let mut rng = StdRng::seed_from_u64(8);
    let rows = 100_000u64;
    for _ in 0..rows {
        b.push_row(vec![
            format!("A{:02}", rng.gen_range(0..14)).into(),
            format!("O{:02}", rng.gen_range(0..40)).into(),
            rng.gen_range(0.0..100.0).into(),
        ]);
    }
    let engine = NeedleTail::new(b.finish(), &["name", "origin"]).unwrap();
    let per_row_budget = 48;
    for columns in [["name", "origin"], ["origin", "name"]] {
        engine.clear_plan_caches();
        let bytes = alloc_bytes_during(|| {
            let cells = engine
                .group_handles_multi(&columns, "v", &Predicate::True)
                .unwrap();
            assert_eq!(cells.len(), 560);
            std::hint::black_box(&cells);
        });
        assert!(
            bytes < rows * per_row_budget,
            "{columns:?}: a cold plan requested {bytes} bytes for {rows} rows \
             (> {per_row_budget}/row) — something scales with cells × rows"
        );
    }
}
