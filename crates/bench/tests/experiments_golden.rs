//! Golden stdout of the experiments that print a run's per-round state:
//! Table 1 (the IFOCUS interval trace, at two seeds) and Figures 5c/6a
//! (active groups and mis-ordered pairs against samples drawn, quick
//! scale). Every number printed is a pure function of the seed, so a
//! change to how those rows are collected that moves one round, one
//! interval endpoint or one sample count fails here byte for byte.

use std::process::Command;

fn experiments(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs");
    assert!(out.status.success(), "experiments {args:?} failed");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn table1_is_pinned() {
    let golden = r"
=== table1: IFOCUS execution trace (4 groups) ===
round | per-group [lo, hi] A(ctive)/I(nactive)
     1  [-66.9, 266.9] A [-166.9, 166.9] A [-66.9, 266.9] A [-166.9, 166.9] A
   460  [63.2, 82.9] I [27.1, 46.8] A [15.8, 35.5] A [43.4, 63.1] A
   691  [63.2, 82.9] I [29.1, 45.3] A [15.7, 31.8] A [45.3, 61.5] I
  1328  [63.2, 82.9] I [30.6, 42.2] I [19.0, 30.6] I [45.3, 61.5] I
deactivation rounds: g1@460 g2@1328 g3@1328 g4@691
total cost C = 3807 samples (trace-implied 3807)
";
    assert_eq!(experiments(&["table1"]), golden);
}

#[test]
fn table1_seed_7_is_pinned() {
    let golden = r"
=== table1: IFOCUS execution trace (4 groups) ===
round | per-group [lo, hi] A(ctive)/I(nactive)
     1  [-66.9, 266.9] A [-166.9, 166.9] A [-166.9, 166.9] A [-66.9, 266.9] A
   430  [65.8, 86.3] I [24.7, 45.1] A [15.1, 35.6] A [45.4, 65.8] I
  1934  [65.8, 86.3] I [30.6, 40.1] I [21.1, 30.6] I [45.4, 65.8] I
deactivation rounds: g1@430 g2@1934 g3@1934 g4@430
total cost C = 4728 samples (trace-implied 4728)
";
    assert_eq!(experiments(&["table1", "--seed", "7"]), golden);
}

#[test]
fn fig5c_6a_quick_is_pinned() {
    let golden = r"
=== fig5c+6a: active groups / incorrect pairs vs samples (mixture, ifocus) ===
       samples   avg active  avg bad pairs avg active (30%+)
         47782         9.00           0.60             9.00
         95564         7.00           0.40             7.75
        143347         6.00           0.40             7.00
        191129         5.40           0.40             6.25
        238912         4.00           0.20             4.50
        286694         3.60           0.20             4.50
        334477         2.00           0.20             2.50
        382259         1.60           0.20             2.00
        430041         1.60           0.20             2.00
        477824         1.60           0.20             2.00
        525606         1.60           0.20             2.00
        573389         1.60           0.20             2.00
        621171         1.60           0.20             2.00
        668954         1.20           0.20             1.50
        716736         1.20           0.00             1.50
        764519         0.00           0.00             0.00
(runs taking >=30% of the data: 4/5; expect: active count collapses to ~2 quickly,
 incorrect pairs near 0 long before termination)
";
    assert_eq!(experiments(&["fig5c", "--quick"]), golden);
}
