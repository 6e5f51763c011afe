//! Fixed-seed golden digests for the four §6 extensions whose other tests
//! only check the ordering: the Bernstein variant, multi-aggregate, top-t
//! and value accuracy. Each digest folds every estimate's `to_bits`, the
//! per-group sample counts, the round counter and the truncation flag, so a
//! refactor of their round loops or deactivation fixpoints that moves one
//! draw or one bit fails here.

use rand::{Rng, SeedableRng};
use rapidviz::core::extensions::{
    IFocusBernstein, IFocusMultiAggregate, IFocusTopT, IFocusValues, MultiAggregateResult,
    VecPairGroup,
};
use rapidviz::core::{AlgoConfig, RunResult, SamplingMode};
use rapidviz::datagen::VecGroup;
use rapidviz::needletail::codec::fnv1a64;

/// One near-tie (70 / 72), so the resolution-relaxed runs stop before the
/// exact ones separate it.
const MEANS: [f64; 6] = [15.0, 70.0, 40.0, 85.0, 25.0, 72.0];

fn two_point_groups(seed: u64) -> Vec<VecGroup> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    MEANS
        .iter()
        .enumerate()
        .map(|(i, &mu)| {
            let values: Vec<f64> = (0..30_000)
                .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
                .collect();
            VecGroup::new(format!("g{i}"), values)
        })
        .collect()
}

/// Values within ±3 of the mean, where the Bernstein widths differ per group.
fn narrow_groups(seed: u64) -> Vec<VecGroup> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    MEANS
        .iter()
        .enumerate()
        .map(|(i, &mu)| {
            let spread = 1.0 + i as f64;
            let values: Vec<f64> = (0..30_000)
                .map(|_| mu + rng.gen_range(-spread..spread))
                .collect();
            VecGroup::new(format!("g{i}"), values)
        })
        .collect()
}

fn pair_groups(seed: u64) -> Vec<VecPairGroup> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    [(20.0, 50.0), (50.0, 80.0), (80.0, 20.0), (52.0, 78.0)]
        .iter()
        .enumerate()
        .map(|(i, &(my, mz))| {
            let pairs: Vec<(f64, f64)> = (0..30_000)
                .map(|_| {
                    let y = if rng.gen_bool(my / 100.0) { 100.0 } else { 0.0 };
                    let z = if rng.gen_bool(mz / 100.0) { 100.0 } else { 0.0 };
                    (y, z)
                })
                .collect();
            VecPairGroup::new(format!("g{i}"), pairs)
        })
        .collect()
}

fn digest(estimates: &[&[f64]], samples: &[u64], rounds: u64, truncated: bool) -> u64 {
    let mut bytes = Vec::new();
    for x in estimates.iter().flat_map(|e| e.iter()) {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for n in samples {
        bytes.extend_from_slice(&n.to_le_bytes());
    }
    bytes.extend_from_slice(&rounds.to_le_bytes());
    bytes.push(u8::from(truncated));
    fnv1a64(&bytes)
}

fn run_digest(r: &RunResult) -> u64 {
    digest(&[&r.estimates], &r.samples_per_group, r.rounds, r.truncated)
}

fn multi_digest(r: &MultiAggregateResult) -> u64 {
    digest(
        &[&r.y_estimates, &r.z_estimates],
        &r.samples_per_group,
        0,
        r.truncated,
    )
}

/// The three configurations every extension is pinned under (the Bernstein
/// variant always samples with replacement, so its mode case is a no-op).
fn configs() -> [AlgoConfig; 3] {
    let base = AlgoConfig::new(100.0, 0.05);
    [
        base.clone(),
        base.clone().with_mode(SamplingMode::WithReplacement),
        base.with_resolution(12.0),
    ]
}

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[test]
fn bernstein_runs_are_pinned() {
    let got: Vec<u64> = configs()
        .into_iter()
        .map(|c| run_digest(&IFocusBernstein::new(c).run(&mut narrow_groups(2000), &mut rng(2001))))
        .collect();
    // Always with replacement, so the two sampling modes agree.
    let golden = [
        0x592b_0aae_e96b_159b,
        0x592b_0aae_e96b_159b,
        0xcbaf_c124_f1f8_b4b3,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn multi_aggregate_runs_are_pinned() {
    let got: Vec<u64> = configs()
        .into_iter()
        .map(|c| {
            multi_digest(&IFocusMultiAggregate::new(c).run(&mut pair_groups(2010), &mut rng(2011)))
        })
        .collect();
    let golden = [
        0x0ebd_8598_ffad_a26a,
        0x8230_cee7_dfe0_6b1c,
        0x5c5e_a06d_8bcc_2c1e,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn top_t_runs_are_pinned() {
    let mut got: Vec<u64> = configs()
        .into_iter()
        .map(|c| {
            run_digest(&IFocusTopT::new(c, 2).run(&mut two_point_groups(2020), &mut rng(2021)))
        })
        .collect();
    let bottom = IFocusTopT::new_bottom(AlgoConfig::new(100.0, 0.05), 3);
    got.push(run_digest(
        &bottom.run(&mut two_point_groups(2020), &mut rng(2022)),
    ));
    let golden = [
        0x2296_6f78_28dc_da59,
        0x9647_fdea_2f4e_aa50,
        0x5b79_39ab_a1d2_c9ea,
        0x248d_58c5_ce10_e51f,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn value_accuracy_runs_are_pinned() {
    let got: Vec<u64> = configs()
        .into_iter()
        .map(|c| {
            run_digest(&IFocusValues::new(c, 6.0).run(&mut two_point_groups(2030), &mut rng(2031)))
        })
        .collect();
    // The value requirement gates deactivation in place of the resolution
    // cut-off, which this variant does not consult: third equals first.
    let golden = [
        0xc804_5eb3_b04f_48fd,
        0xaf1a_16b3_b241_bc99,
        0xc804_5eb3_b04f_48fd,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}
