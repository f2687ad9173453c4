//! The paper's Fig. 9 scenario: a Memcached-style store whose working set
//! starts fully swapped out, recovering its throughput as hot pages fault
//! back in — with proactive batch swap-in (PBS), without it, and on
//! Infiniswap.
//!
//! Run with: `cargo run --release --example kv_store_recovery`

use memory_disaggregation::prelude::*;
use memory_disaggregation::sim::SimDuration;
use memory_disaggregation::swap::{run_kv_timeline, SystemKind};

fn main() -> DmemResult<()> {
    let mut scale = SwapScale::bench();
    scale.memory_fraction = 0.5;
    // Thirty one-second buckets.
    let (horizon, seconds) = (SimDuration::from_secs(30), 30);

    let systems = [
        ("FastSwap + PBS", SystemKind::fastswap_default()),
        (
            "FastSwap w/o PBS",
            SystemKind::FastSwap {
                ratio: DistributionRatio::FS_SM,
                compression: CompressionMode::FourGranularity,
                pbs: false,
            },
        ),
        ("Infiniswap", SystemKind::Infiniswap),
    ];

    println!("Memcached ETC at 50% memory, cold start (working set on the swap device).");
    println!("Ops started per virtual second:\n");
    let mut serieses = Vec::new();
    for (label, kind) in systems {
        let series = run_kv_timeline(kind, "Memcached", &scale, horizon, seconds)?;
        serieses.push((label, series));
    }

    print!("{:>6}", "sec");
    for (label, _) in &serieses {
        print!("{label:>20}");
    }
    println!();
    for second in 0..seconds {
        print!("{second:>6}");
        for (_, series) in &serieses {
            print!("{:>20}", series[second]);
        }
        println!();
    }

    for (label, series) in &serieses {
        let peak = *series.iter().max().unwrap_or(&0);
        let recovery = series
            .iter()
            .position(|&ops| ops as f64 >= peak as f64 * 0.9)
            .map(|s| format!("{s}s"))
            .unwrap_or_else(|| "never".into());
        println!("{label}: peak {peak} ops/s, reaches 90% of peak at {recovery}");
    }
    println!("\nShape check (paper Fig. 9): PBS recovers fastest; without PBS the ramp");
    println!("is much slower; Infiniswap lags furthest behind.");
    Ok(())
}
