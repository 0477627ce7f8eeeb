//! The host description printed with every result.

/// Prints the host line: CPUs, ISA features, the workspace's thread and
/// SIMD knobs, and the source revision.
pub fn print(workload: &str, seed: u64, traced: bool) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unset".to_string());
    println!(
        "fleet-perfbench workload={workload} seed={seed} trace={} | host: \
         available_parallelism={cpus} isa=[{}] FLEET_NUM_THREADS={} FLEET_SIMD={} rev={}",
        u8::from(traced),
        isa_features().join(","),
        env("FLEET_NUM_THREADS"),
        env("FLEET_SIMD"),
        std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".to_string()),
    );
}

#[cfg(target_arch = "x86_64")]
fn isa_features() -> Vec<&'static str> {
    let mut features = vec!["x86_64"];
    if std::arch::is_x86_feature_detected!("sse4.2") {
        features.push("sse4.2");
    }
    if std::arch::is_x86_feature_detected!("avx2") {
        features.push("avx2");
    }
    if std::arch::is_x86_feature_detected!("fma") {
        features.push("fma");
    }
    if std::arch::is_x86_feature_detected!("avx512f") {
        features.push("avx512f");
    }
    features
}

#[cfg(not(target_arch = "x86_64"))]
fn isa_features() -> Vec<&'static str> {
    vec![std::env::consts::ARCH]
}
