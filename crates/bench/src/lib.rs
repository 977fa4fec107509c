//! # pvr-bench — the evaluation harness
//!
//! One module per table/figure of the paper's §4, each exposing a
//! `report(...)` that produces the data and renders it. The `repro`
//! binary drives them (`cargo run --release -p pvr-bench --bin repro --
//! all`); the Criterion benches under `benches/` cover a few
//! latency-sensitive measurements. Wall-clock performance of the
//! runtime itself — whole runs and per-layer costs, with medians and
//! quartiles over repeated runs — is measured by the separate
//! `pvrbench` harness at the repository root, not here.
//!
//! | Paper artifact | Module | Regenerate with |
//! |---|---|---|
//! | Table 1 / Table 3 | [`tables`] | `repro -- table1` / `table3` |
//! | Fig. 5 startup overhead | [`fig5`] | `repro -- fig5` |
//! | Fig. 6 context-switch time | [`fig6`] | `repro -- fig6` |
//! | Fig. 7 privatized access (Jacobi-3D) | [`fig7`] | `repro -- fig7` |
//! | Fig. 8 migration time | [`fig8`] | `repro -- fig8` |
//! | §4.5 L1I misses | [`icache_exp`] | `repro -- icache` |
//! | Table 2 + Fig. 9 ADCIRC scaling | [`scaling`] | `repro -- table2` / `fig9` |
//!
//! Beyond the paper's artifacts, [`tracing_exp`] demonstrates the
//! `pvr-trace` observability layer (`repro -- trace`), [`faults_exp`]
//! the fault-injection/recovery stack (`repro -- faults`),
//! [`degrade_exp`] the capability-probe fallback chain and memory-safety
//! guards (`repro -- degrade`), [`cow_exp`] the COWglobals
//! dedup/startup sweep (`repro -- cow`), [`ckpt_exp`] the incremental
//! checkpoint sweep (`repro -- ckpt`), [`elastic_exp`] the elastic
//! rescale sweep (`repro -- elastic`), and [`overlap_exp`] the
//! Isend/Irecv latency-hiding sweep (`repro -- overlap`). Those four
//! each merge their rows into `BENCH_perf.json` under their own
//! section (see [`merge_bench_json`]).

pub mod ckpt_exp;
pub mod cow_exp;
pub mod degrade_exp;
pub mod elastic_exp;
pub mod faults_exp;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod icache_exp;
pub mod overlap_exp;
pub mod parallel_exp;
pub mod scaling;
pub mod tables;
pub mod tracing_exp;

/// One row of `BENCH_perf.json`. `unit` documents what `before`/`after`
/// measure (e.g. `"ns/rank"`, `"bytes/rank"`, `"ranks/GB"`); `ratio` is
/// in the row's better-is-bigger direction, supplied by the caller.
/// `before` and `after` are written at full precision (shortest
/// round-trip form), so small values such as fractions survive.
pub struct JsonRow {
    pub section: &'static str,
    pub name: String,
    pub ranks: usize,
    pub method: String,
    pub unit: &'static str,
    pub quick: bool,
    pub before: f64,
    pub after: f64,
    pub ratio: f64,
}

impl JsonRow {
    fn render(&self) -> String {
        format!(
            "{{\"section\": \"{}\", \"name\": \"{}\", \"ranks\": {}, \"method\": \"{}\", \
             \"unit\": \"{}\", \"quick\": {}, \"before\": {}, \"after\": {}, \
             \"ratio\": {:.2}}}",
            self.section,
            self.name,
            self.ranks,
            self.method,
            self.unit,
            self.quick,
            self.before,
            self.after,
            self.ratio,
        )
    }
}

/// Merge `rows` into the JSON file at `path`, replacing only the rows
/// owned by `section` and preserving every other experiment's rows:
/// `repro -- cow`, `ckpt`, `elastic` and `overlap` all write
/// `BENCH_perf.json`, and regenerating one must not discard the others'
/// numbers. Rows without a `"section"` key are dropped.
pub fn merge_bench_json(path: &str, section: &str, rows: &[JsonRow]) -> std::io::Result<()> {
    fn row_section(line: &str) -> Option<String> {
        let t = line.trim();
        if !t.starts_with('{') || !t.contains("\"name\"") {
            return None;
        }
        let sect = t.split("\"section\": \"").nth(1)?.split('"').next()?;
        Some(sect.to_string())
    }
    let mut kept: Vec<String> = Vec::new();
    if let Ok(old) = std::fs::read_to_string(path) {
        for line in old.lines() {
            if let Some(owner) = row_section(line) {
                if owner != section {
                    kept.push(line.trim().trim_end_matches(',').to_string());
                }
            }
        }
    }
    let mut all = kept;
    all.extend(rows.iter().map(|r| r.render()));
    let mut s = String::new();
    s.push_str(
        "{\n  \"generated_by\": \"repro -- cow | ckpt | elastic | overlap\",\n  \"benches\": [\n",
    );
    for (i, line) in all.iter().enumerate() {
        s.push_str("    ");
        s.push_str(line);
        s.push_str(if i + 1 < all.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// Render a simple aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut line = String::from("| ");
    for (h, w) in headers.iter().zip(&widths) {
        line.push_str(&format!("{:w$} | ", h, w = w));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + widths.len() * 3 + 1));
    out.push('\n');
    for row in rows {
        let mut line = String::from("| ");
        for (c, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{:w$} | ", c, w = w));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Format a `Duration` compactly.
pub fn fmt_dur(d: std::time::Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{} ns", ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(section: &'static str, name: &str, before: f64, after: f64) -> JsonRow {
        JsonRow {
            section,
            name: name.into(),
            ranks: 2,
            method: "m".into(),
            unit: "fraction",
            quick: true,
            before,
            after,
            ratio: 1.0,
        }
    }

    /// The numeric value of `key` in the one row of `json` named `name`.
    fn field(json: &str, name: &str, key: &str) -> f64 {
        let line = json
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .expect("row present");
        let rest = line
            .split(&format!("\"{key}\": "))
            .nth(1)
            .expect("key present");
        rest.split([',', '}'])
            .next()
            .unwrap()
            .parse()
            .expect("a number")
    }

    #[test]
    fn merge_bench_json_keeps_full_precision_and_other_sections() {
        let path = std::env::temp_dir().join(format!("pvr_bench_json_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        merge_bench_json(path, "a", &[row("a", "small", 0.0421, 1.0 / 3.0)]).unwrap();
        merge_bench_json(path, "b", &[row("b", "big", 34263565.9, 2.0)]).unwrap();
        // re-running section `a` replaces its row and keeps `b`'s
        merge_bench_json(path, "a", &[row("a", "small", 0.0421, 1.0 / 3.0)]).unwrap();
        let json = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(field(&json, "small", "before"), 0.0421);
        assert_eq!(field(&json, "small", "after"), 1.0 / 3.0);
        assert_eq!(field(&json, "big", "before"), 34263565.9);
        assert_eq!(json.matches("\"name\"").count(), 2, "{json}");
    }
}
