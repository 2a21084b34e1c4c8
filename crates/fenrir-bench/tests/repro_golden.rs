//! The Test-scale transcript of `repro --exp all`, pinned byte for byte.
//!
//! A change that means to move the paper's output regenerates the file
//! and says why each line moved:
//!
//! ```text
//! cargo run --release -p fenrir-bench --bin repro -- --exp all \
//!     > crates/fenrir-bench/tests/golden/repro_test_scale.txt
//! ```

use fenrir_bench::all_experiments;
use fenrir_data::scenarios::Scale;

#[test]
fn repro_all_at_test_scale_prints_the_golden_transcript() {
    // As the binary prints it: each report, then a newline.
    let got: String = all_experiments(Scale::Test)
        .iter()
        .map(|r| r.render() + "\n")
        .collect();
    let want = include_str!("golden/repro_test_scale.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from the golden transcript", i + 1);
    }
    assert_eq!(
        got, want,
        "the transcript's length differs from the golden one"
    );
}
