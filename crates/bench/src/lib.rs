//! Shared formatting helpers for the benchmark harness that regenerates
//! every table and figure of the Fat-Tree QRAM paper.
//!
//! Each bench target (`cargo bench -p qram-bench`) prints the same rows or
//! series the paper reports; `tests/paper_numbers.rs` at the workspace root
//! asserts the headline numbers, each test citing its table or figure.

use std::io::Write as _;

use qram_metrics::Capacity;
use qsim::branch::ClassicalMemory;

/// The capacity `N` of a bench workload.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
#[must_use]
pub fn capacity(n: u64) -> Capacity {
    Capacity::new(n).expect("bench capacities are powers of two")
}

/// The one-bit bench memory of `n` cells: `1, 0, 1, 0, …`, so every
/// query's data depends on its address parity.
#[must_use]
pub fn memory(n: u64) -> ClassicalMemory {
    let cells: Vec<u64> = (0..n).map(|i| (i + 1) % 2).collect();
    ClassicalMemory::from_words(1, &cells).expect("one-bit words are valid")
}

/// Prints a section header for a table/figure reproduction.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Formats a floating-point cell with engineering-friendly precision.
#[must_use]
pub fn num(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1e5 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else if (v - v.round()).abs() < 1e-9 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Appends one id/value line to the `CRITERION_JSON` stream with the
/// `scalar` key (not `ns_per_iter`), so scalar measurements (hit rates,
/// latency percentiles, byte counts) land in the baseline's `scalars`
/// section instead of the timing table. A no-op when `CRITERION_JSON` is
/// unset or the file cannot be opened.
pub fn record_scalar(id: &str, value: f64) {
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{{\"id\":\"{id}\",\"scalar\":{value:.1}}}");
        }
    }
}

/// Prints one table row with a fixed-width label column.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<28}");
    for c in cells {
        print!("{c:>16}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_memory_alternates_from_one() {
        assert_eq!(memory(4).cells(), &[1, 0, 1, 0]);
        assert_eq!(capacity(4096).address_width(), 12);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(16384.0), "16384");
        assert_eq!(num(1.2121e5), "1.2121e5");
        assert_eq!(num(0.125), "0.1250");
        assert_eq!(num(4.5e-4), "4.5000e-4");
    }
}
