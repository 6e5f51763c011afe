//! Ablation benches for the design choices `AlgoConfig` exposes:
//! κ, sampling mode, reactivation policy, and the heuristic factor —
//! measured as end-to-end IFOCUS cost on a fixed mixture workload.

// criterion_group! expands to undocumented pub items.
#![allow(missing_docs)]
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz_core::{AlgoConfig, IFocus, ReactivationPolicy, SamplingMode};
use rapidviz_datagen::{DatasetSpec, WorkloadFamily};

fn run_once(config: AlgoConfig, seed: u64) -> u64 {
    let spec = DatasetSpec::generate(WorkloadFamily::Mixture, 10, 10_000_000, 21);
    let mut groups = spec.virtual_groups();
    let mut rng = StdRng::seed_from_u64(seed);
    IFocus::new(config.with_max_rounds(200_000))
        .run(&mut groups, &mut rng)
        .total_samples()
}

fn bench_kappa(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_kappa");
    group.sample_size(10);
    for kappa in [1.0f64, 1.01, 1.5, 2.0] {
        group.bench_with_input(BenchmarkId::from_parameter(kappa), &kappa, |b, &kappa| {
            b.iter(|| {
                let config = AlgoConfig::new(100.0, 0.05)
                    .with_resolution(1.0)
                    .with_kappa(kappa);
                black_box(run_once(config, 31))
            });
        });
    }
    group.finish();
}

fn bench_sampling_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_mode");
    group.sample_size(10);
    for (name, mode) in [
        ("without_replacement", SamplingMode::WithoutReplacement),
        ("with_replacement", SamplingMode::WithReplacement),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let config = AlgoConfig::new(100.0, 0.05)
                    .with_resolution(1.0)
                    .with_mode(mode);
                black_box(run_once(config, 32))
            });
        });
    }
    group.finish();
}

fn bench_reactivation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_reactivation");
    group.sample_size(10);
    for (name, policy) in [
        ("never", ReactivationPolicy::Never),
        ("allow", ReactivationPolicy::Allow),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let config = AlgoConfig::new(100.0, 0.05)
                    .with_resolution(1.0)
                    .with_reactivation(policy);
                black_box(run_once(config, 33))
            });
        });
    }
    group.finish();
}

fn bench_heuristic_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_heuristic");
    group.sample_size(10);
    for h in [1.0f64, 2.0, 4.0, 16.0] {
        group.bench_with_input(BenchmarkId::from_parameter(h), &h, |b, &h| {
            b.iter(|| {
                let config = AlgoConfig::new(100.0, 0.05)
                    .with_resolution(1.0)
                    .with_heuristic_factor(h);
                black_box(run_once(config, 34))
            });
        });
    }
    group.finish();
}

fn bench_batch_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_batch");
    group.sample_size(10);
    for batch in [1u64, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                let config = AlgoConfig::new(100.0, 0.05)
                    .with_resolution(1.0)
                    .with_samples_per_round(batch);
                black_box(run_once(config, 35))
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_kappa,
        bench_sampling_mode,
        bench_reactivation,
        bench_heuristic_factor,
        bench_batch_size
}
criterion_main!(benches);
