//! The paper's Fig. 9 scenario: a Memcached-style store whose working set
//! starts fully swapped out, recovering its throughput as hot pages fault
//! back in — with proactive batch swap-in (PBS), without it, and on
//! Infiniswap.
//!
//! It runs at the `figures` binary's Fig. 9 scale: 80 ms of virtual time
//! in 300 buckets, the working set swapped out to cluster memory. The
//! closing line reports the recovery order the series show, not the
//! paper's.
//!
//! Run with: `cargo run --release --example kv_store_recovery`

use memory_disaggregation::prelude::*;
use memory_disaggregation::sim::SimDuration;
use memory_disaggregation::swap::{run_kv_timeline, SystemKind};

fn main() -> DmemResult<()> {
    const BUCKETS: usize = 300;
    let mut scale = SwapScale::bench();
    scale.memory_fraction = 0.5;
    // The node pool is small, so the working set sits in cluster memory
    // and recovery runs through the remote swap-in path.
    scale.shared_donation = 0.05;
    let horizon = SimDuration::from_millis(80);

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
    println!("Ops started per bucket of {BUCKETS} over {horizon} (every 10th bucket):\n");
    let mut serieses = Vec::new();
    for (label, kind) in systems {
        let series = run_kv_timeline(kind, "Memcached", &scale, horizon, BUCKETS)?;
        serieses.push((label, series));
    }

    print!("{:>6}", "bucket");
    for (label, _) in &serieses {
        print!("{label:>20}");
    }
    println!();
    for bucket in (0..BUCKETS).step_by(10) {
        print!("{bucket:>6}");
        for (_, series) in &serieses {
            print!("{:>20}", series[bucket]);
        }
        println!();
    }
    println!();

    // The first bucket at 90% of the system's own peak, or BUCKETS if
    // it never gets there.
    let mut recovery: Vec<(&str, usize)> = Vec::new();
    for (label, series) in &serieses {
        let peak = *series.iter().max().unwrap_or(&0);
        let at = series
            .iter()
            .position(|&ops| ops as f64 >= peak as f64 * 0.9)
            .unwrap_or(BUCKETS);
        let reached = if at < BUCKETS { format!("bucket {at}") } else { "never".into() };
        println!("{label}: peak {peak} ops/bucket, reaches 90% of peak at {reached}");
        recovery.push((label, at));
    }

    // `systems` lists PBS first; it leads only if it is strictly first.
    let pbs_at = recovery[0].1;
    let pbs_leads = recovery[1..].iter().all(|&(_, at)| at > pbs_at);
    recovery.sort_by_key(|&(_, at)| at);
    let order: Vec<String> = recovery
        .iter()
        .map(|(label, at)| format!("{label} ({at})"))
        .collect();
    println!("\nMeasured recovery order, first bucket at 90% of peak: {}", order.join(", "));
    if pbs_leads {
        println!("PBS recovers fastest, as in the paper's Fig. 9.");
    } else {
        println!(
            "PBS does not recover fastest here, unlike the paper's Fig. 9: its background \
             restore is charged as foreground time (ROADMAP `[overlap]`, deviation 6)."
        );
    }
    Ok(())
}
