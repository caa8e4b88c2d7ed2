//! Order statistics, and `gridbench compare`: the bounds of
//! `BENCHMARK.json` applied to two result files.

use serde_json::Value;

/// The `q`-quantile (0..=1) of a sorted sample, nearest rank.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and p99 of a sample of nanoseconds, in microseconds.
pub fn p50_p99_us(mut ns: Vec<u64>) -> (f64, f64) {
    ns.sort_unstable();
    (
        quantile_sorted(&ns, 0.50) as f64 / 1e3,
        quantile_sorted(&ns, 0.99) as f64 / 1e3,
    )
}

/// Median over `slices` equal chunks (in the order given, which is
/// send order) of each chunk's p99, in microseconds. One stall then
/// moves one chunk's figure, not the run's: the plain p99 of a run with
/// a few dozen long pauses is set by the two or three longest.
pub fn sliced_p99_us(ns: &[u64], slices: usize) -> f64 {
    let per = (ns.len() / slices).max(1);
    let p99s: Vec<f64> = ns
        .chunks(per)
        .filter(|c| c.len() == per)
        .map(|c| p50_p99_us(c.to_vec()).1)
        .collect();
    median(&p99s)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), because that is what the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn load(path: &str) -> Result<Value, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("{path}: {e}"))
}

/// `values[workload][metric]` over every run in a result file.
fn collect(result: &Value, workload: &str, metric: &str) -> Vec<f64> {
    result
        .get("runs")
        .and_then(Value::as_array)
        .map(|runs| {
            runs.iter()
                .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
                .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
                .collect()
        })
        .unwrap_or_default()
}

/// Compare result file `b` (the change) against `a` (the parent) under
/// the bounds in `benchmark_json`. Prints one row per end-to-end metric
/// and workload; returns whether every row passed.
///
/// * `pass` — the change's median is no worse than the parent's by
///   more than the bound;
/// * `regress` — it is;
/// * `unresolved` — either side's quartile spread is wider than the
///   bound, so the runs cannot tell, unless every run of the change
///   reads better than every run of the parent.
pub fn compare(benchmark_json: &str, a: &str, b: &str) -> Result<bool, String> {
    let spec = load(benchmark_json)?;
    let list = |key: &str| -> Result<Vec<Value>, String> {
        spec.get(key)
            .and_then(Value::as_array)
            .cloned()
            .ok_or_else(|| format!("{benchmark_json}: no `{key}` list"))
    };
    let bounds: Vec<Bound> = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: text(m, "name")?,
                lower_is_better: text(m, "better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let workloads: Vec<String> = list("workloads")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let (ra, rb) = (load(a)?, load(b)?);

    println!(
        "{:<15} {:<14} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound"
    );
    let mut all_pass = true;
    for w in &workloads {
        for m in &bounds {
            let (va, vb) = (collect(&ra, w, &m.name), collect(&rb, w, &m.name));
            if va.len() < 2 || vb.len() < 2 {
                println!(
                    "{w:<15} {:<14} needs two runs a side, has {} and {}",
                    m.name,
                    va.len(),
                    vb.len()
                );
                all_pass = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if m.lower_is_better { mb - ma } else { ma - mb } / ma.abs();
            let (sa, sb) = (spread(&va), spread(&vb));
            let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
            let b_wins_every_pair = vb.iter().all(|&x| va.iter().all(|&y| better(x, y)));
            let verdict = if sa.max(sb) > m.bound && !b_wins_every_pair {
                "unresolved"
            } else if worse > m.bound {
                "regress"
            } else {
                "pass"
            };
            all_pass &= verdict == "pass";
            println!(
                "{w:<15} {:<14} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>6.2}% {:>6.2}% {:>5.0}%  {verdict}",
                m.name,
                100.0 * worse,
                100.0 * sa,
                100.0 * sb,
                100.0 * m.bound
            );
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let ns: Vec<u64> = (1..=1000).map(|x| x * 1000).collect();
        assert_eq!(p50_p99_us(ns), (500.0, 990.0));
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }
}
