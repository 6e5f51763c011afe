//! Fixed-seed golden digests for the §6 extensions whose other tests only
//! check the ordering (the Bernstein variant, multi-aggregate, top-t and
//! value accuracy) and for every algorithm that runs the shared IFOCUS
//! round (IFOCUS, ROUNDROBIN, SUM with known and unknown sizes, partial
//! results, trends, graph, mistakes). Each digest folds every estimate's
//! `to_bits`, the per-group sample counts, the round counter and the
//! truncation flag, so a refactor of their round loops or deactivation
//! fixpoints that moves one draw or one bit fails here.

use rand::{Rng, SeedableRng};
use rapidviz::core::extensions::{
    IFocusBernstein, IFocusGraph, IFocusMistakes, IFocusMultiAggregate, IFocusPartial, IFocusSum1,
    IFocusSum2, IFocusTopT, IFocusTrends, IFocusValues, MultiAggregateResult, VecPairGroup,
    VecSizedGroup,
};
use rapidviz::core::{AlgoConfig, IFocus, RoundRobin, RunResult, SamplingMode};
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

/// [`configs`] plus a 500-round cap (the truncated prologue) and a batch of
/// 7 draws per group per round.
fn round_configs() -> [AlgoConfig; 5] {
    let [exact, with_replacement, relaxed] = configs();
    let capped = exact.clone().with_max_rounds(500);
    let batched = exact.clone().with_samples_per_round(7);
    [exact, with_replacement, relaxed, capped, batched]
}

/// [`two_point_groups`] at unequal sizes, so sum order and mean order differ.
fn unequal_groups(seed: u64) -> Vec<VecGroup> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    MEANS
        .iter()
        .enumerate()
        .map(|(i, &mu)| {
            let values: Vec<f64> = (0..8_000 * (i + 1))
                .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
                .collect();
            VecGroup::new(format!("g{i}"), values)
        })
        .collect()
}

/// [`two_point_groups`] reordered so the 70 / 72 near-tie sits on the path
/// edge (and the 2 × 3 grid edge) `(1, 2)`.
fn near_tie_adjacent(seed: u64) -> Vec<VecGroup> {
    let mut groups = two_point_groups(seed);
    groups.swap(2, 5);
    groups
}

fn sized_groups(seed: u64) -> Vec<VecSizedGroup> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    [(30.0, 0.5), (80.0, 0.3), (50.0, 0.12), (60.0, 0.08)]
        .iter()
        .enumerate()
        .map(|(i, &(mu, fraction))| {
            let values: Vec<f64> = (0..10_000)
                .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
                .collect();
            VecSizedGroup::new(format!("g{i}"), values, fraction)
        })
        .collect()
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

/// One digest per [`round_configs`] entry.
fn round_digests(run: impl Fn(AlgoConfig) -> RunResult) -> Vec<u64> {
    round_configs()
        .into_iter()
        .map(|c| run_digest(&run(c)))
        .collect()
}

/// A wide round: 64 draws from each of the six groups, 384 per round.
fn wide_config() -> AlgoConfig {
    AlgoConfig::new(100.0, 0.05).with_samples_per_round(64)
}

#[test]
fn ifocus_runs_are_pinned() {
    let run = |c| IFocus::new(c).run(&mut two_point_groups(2040), &mut rng(2041));
    let mut got = round_digests(run);
    got.push(run_digest(&run(wide_config())));
    let golden = [
        0x158e_cced_0d85_c5be,
        0x8ad1_8392_998a_3e8e,
        0x1f0e_b935_ce8b_39f6,
        0xa512_020b_84b3_577d,
        0xfcb0_2203_9069_c82a,
        0x8245_db95_f51e_c589,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn roundrobin_runs_are_pinned() {
    let run = |c| RoundRobin::new(c).run(&mut two_point_groups(2050), &mut rng(2051));
    let mut got = round_digests(run);
    got.push(run_digest(&run(wide_config())));
    let golden = [
        0xb511_eefd_5ff5_8fd3,
        0x14dc_4b78_4c73_c29f,
        0x1645_b06c_cc0a_a08e,
        0x735a_d9c6_b437_e5c2,
        0x3462_ecfa_3869_44b2,
        0x2b44_fe19_4240_c94e,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn sum_known_sizes_runs_are_pinned() {
    let got = round_digests(|c| {
        // The resolution is in sum space: scale it by the largest group.
        let c = match c.resolution {
            Some(r) => c.with_resolution(r * 48_000.0),
            None => c,
        };
        IFocusSum1::new(c).run(&mut unequal_groups(2060), &mut rng(2061))
    });
    // Algorithm 4 draws `samples_per_round` per active group per round, so
    // the batched fifth differs from the first.
    let golden = [
        0x71d6_c223_ca98_0543,
        0xd93f_5319_d01e_0086,
        0x92ff_9e13_576f_d9e5,
        0x0de8_9d29_51f6_2f77,
        0xf877_31d3_32f6_cdaf,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn sum_unknown_sizes_runs_are_pinned() {
    let got = round_digests(|c| IFocusSum2::new(c).run(&mut sized_groups(2070), &mut rng(2071)));
    // Algorithm 5 always samples with replacement: second equals first.
    let golden = [
        0x28a9_903c_4419_53b4,
        0x28a9_903c_4419_53b4,
        0x5734_90fa_9236_fa99,
        0x3903_2dd8_7c71_0072,
        0xb387_64b4_bc32_42c5,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn partial_runs_and_emission_streams_are_pinned() {
    let got = round_digests(|c| {
        let mut stream = Vec::new();
        let mut result =
            IFocusPartial::new(c).run(&mut two_point_groups(2080), &mut rng(2081), |e| {
                stream.extend([
                    e.group as u64,
                    e.round,
                    e.total_samples_so_far,
                    e.estimate.to_bits(),
                ]);
            });
        // Fold the emission stream in behind the per-group sample counts.
        result.samples_per_group.extend(stream);
        result
    });
    let golden = [
        0xcd68_5bc9_df03_9f4e,
        0xab31_94d5_0bfc_a068,
        0x250d_eb33_525d_b5fd,
        0x0318_e1da_f35c_c481,
        0x6aa7_7fc6_90b2_f502,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn trends_runs_are_pinned() {
    let got =
        round_digests(|c| IFocusTrends::new(c).run(&mut near_tie_adjacent(2090), &mut rng(2091)));
    let golden = [
        0x354b_c983_9440_129d,
        0x4410_d570_3fef_b335,
        0x87eb_5c91_65ee_4c53,
        0x5b48_4486_f3b0_6db6,
        0x354b_c983_9440_129d,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn grid_graph_runs_are_pinned() {
    let got = round_digests(|c| {
        IFocusGraph::grid(c, 2, 3).run(&mut near_tie_adjacent(2100), &mut rng(2101))
    });
    let golden = [
        0x04d2_254b_525c_f5d6,
        0x3ce9_94f0_aef8_7f8b,
        0x3a73_47e8_3a4c_443d,
        0x28f6_06ef_c3c3_4ead,
        0x04d2_254b_525c_f5d6,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}

#[test]
fn mistakes_runs_are_pinned() {
    let got = round_digests(|c| {
        IFocusMistakes::new(c, 0.2).run(&mut two_point_groups(2110), &mut rng(2111))
    });
    let golden = [
        0x67d1_5629_92ff_f7cf,
        0x13c2_0a5e_b5b0_fba8,
        0x67d1_5629_92ff_f7cf,
        0x3a3f_4c61_a70e_dd84,
        0x67d1_5629_92ff_f7cf,
    ];
    assert_eq!(got, golden, "got {got:#018x?}");
}
