//! Generation on a telemetry-silenced thread stays silent: candidate
//! workers inherit the caller's silence, so the litho kernel counters they
//! would book are discarded. This is its own test binary because the
//! counters are process-global and no other test may bump them meanwhile.

use hotspot_layout::{BenchmarkSpec, GeneratedBenchmark, Tech};
use hotspot_telemetry::{counter, names, silence_thread};

fn spec() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "silenced".to_owned(),
        tech: Tech::Euv7,
        hotspots: 8,
        non_hotspots: 32,
        dup_rate: 0.1,
        near_miss_rate: 0.3,
    }
}

#[test]
fn generation_under_silence_books_no_kernel_counters() {
    let aerial = || counter(names::KERNEL_AERIAL_CALLS).get();
    let defect = || counter(names::KERNEL_DEFECT_CALLS).get();
    let (aerial_before, defect_before) = (aerial(), defect());
    {
        let _mute = silence_thread();
        GeneratedBenchmark::generate(&spec(), 3).expect("generation succeeds");
    }
    assert_eq!(
        aerial(),
        aerial_before,
        "silenced generation booked aerial calls"
    );
    assert_eq!(
        defect(),
        defect_before,
        "silenced generation booked defect calls"
    );

    // The same generation unsilenced books one aerial and one defect call
    // per labelled candidate, so the counters above were live.
    GeneratedBenchmark::generate(&spec(), 3).expect("generation succeeds");
    let labelled = aerial() - aerial_before;
    assert!(labelled > 0, "unsilenced generation booked no aerial calls");
    assert_eq!(defect() - defect_before, labelled);
}
