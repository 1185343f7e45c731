//! # repmem-bench
//!
//! Experiment binaries that regenerate every table and figure of the
//! paper's evaluation (§5) and the extension experiments, as CSV/text
//! under `results/` plus a printed summary (index: DESIGN.md §5; record:
//! EXPERIMENTS.md). Wall-clock performance is the pinned `benchmark/`'s.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `exp-tables` | Tables 1–3 + Appendix A state machines |
//! | `exp-traces` | §4.1 trace sets and costs |
//! | `exp-closed-forms` | equations (3), (4), (5) |
//! | `exp-table6` | Table 6 (reconstructed closed forms) |
//! | `exp-fig5` | Figure 5(a–d) read-disturbance surfaces |
//! | `exp-fig6` | Figure 6(a–d) write-disturbance surfaces |
//! | `exp-table7` | Table 7 analysis-vs-simulation comparison |
//! | `exp-crossover` | §5.1 dominance and crossover analysis |
//! | `exp-adaptive` | §6 adaptive self-tuning extension |
//! | `exp-transient` | burn-in before the stationary regime (E13) |
//! | `exp-assignment` | per-object protocol assignment (E14) |
//! | `exp-ycsb` | YCSB A/B/C/D/F × nine protocols over the KV service, hit shares (E20) |
//! | `exp-scale` | the Fig-5 configuration as 52 OS processes (E21) |

pub mod sweep;

pub use sweep::{grid2, par_map, par_map_with, SweepTimer};

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// The workspace `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a CSV file into `results/` and return its path.
pub fn write_csv(
    name: &str,
    header: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    path
}

/// Write a plain-text artifact into `results/` and return its path.
pub fn write_text(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, contents).expect("write text artifact");
    path
}

/// The workspace `BENCH_runtime.json` scoreboard.
pub fn bench_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_runtime.json")
}

/// Split the body of a flat JSON object (`{ "k": v, ... }`) into
/// `(key, raw value)` pairs, values kept verbatim. Only the *top* level
/// is parsed — values may be arbitrarily nested objects/arrays. Used so
/// independent bench binaries can each own a section of
/// `BENCH_runtime.json` without a JSON dependency.
pub fn split_sections(text: &str) -> Vec<(String, String)> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .unwrap_or("");
    let mut sections = Vec::new();
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Find the opening quote of the next key.
        match body[i..].find('"') {
            Some(off) => i += off,
            None => break,
        }
        let key_start = i + 1;
        let mut j = key_start;
        while j < bytes.len() && bytes[j] != b'"' {
            if bytes[j] == b'\\' {
                j += 1;
            }
            j += 1;
        }
        let key = body[key_start..j.min(bytes.len())].to_string();
        // Skip to the value after the colon.
        let mut k = j + 1;
        while k < bytes.len() && (bytes[k] as char).is_whitespace() {
            k += 1;
        }
        if k >= bytes.len() || bytes[k] != b':' {
            break;
        }
        k += 1;
        while k < bytes.len() && (bytes[k] as char).is_whitespace() {
            k += 1;
        }
        // Scan the value: strings are opaque, brackets/braces nest, a
        // top-level comma terminates.
        let val_start = k;
        let (mut depth, mut in_str, mut escape) = (0i32, false, false);
        while k < bytes.len() {
            let c = bytes[k];
            if in_str {
                if escape {
                    escape = false;
                } else if c == b'\\' {
                    escape = true;
                } else if c == b'"' {
                    in_str = false;
                }
            } else {
                match c {
                    b'"' => in_str = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => depth -= 1,
                    b',' if depth == 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        sections.push((key, body[val_start..k].trim().to_string()));
        i = k + 1;
    }
    sections
}

/// Read `path` (tolerating a missing file), replace-or-append each
/// `(key, raw JSON value)` section, and rewrite the whole file. Sections
/// owned by other binaries survive untouched, so `exp-ycsb --json` and
/// `exp-scale --json` can update the scoreboard independently.
pub fn upsert_bench_sections(path: &std::path::Path, updates: &[(&str, String)]) {
    let old = fs::read_to_string(path).unwrap_or_default();
    let mut sections = split_sections(&old);
    for (key, value) in updates {
        match sections.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value.clone(),
            None => sections.push((key.to_string(), value.clone())),
        }
    }
    let mut out = String::from("{\n");
    for (i, (key, value)) in sections.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": {value}"));
        out.push_str(if i + 1 < sections.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    fs::write(path, out).expect("write bench json");
}

/// Inclusive linspace of `n` points over `[lo, hi]`.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2);
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// Render a fixed-width table for terminal output.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = line(header);
    out.push('\n');
    out.push_str(&"-".repeat(out.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

/// Render a `rows × cols` scalar field as an ASCII heat map (rows are
/// printed top-down from the *last* row, so increasing `p` goes up, like
/// the paper's surface plots). Values are normalized to the field's own
/// maximum.
pub fn ascii_heatmap(title: &str, row_labels: &[String], values: &[Vec<f64>]) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    let max = values
        .iter()
        .flat_map(|r| r.iter())
        .fold(0.0f64, |m, &v| m.max(v));
    let mut out = format!("{title} (max = {max:.1})\n");
    for (ri, row) in values.iter().enumerate().rev() {
        let label = row_labels.get(ri).map(String::as_str).unwrap_or("");
        out.push_str(&format!("{label:>8} |"));
        for &v in row {
            let idx = if max > 0.0 {
                ((v / max) * (SHADES.len() - 1) as f64).round() as usize
            } else {
                0
            };
            out.push(SHADES[idx.min(SHADES.len() - 1)] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_shades_scale_with_value() {
        let map = ascii_heatmap(
            "t",
            &["a".into(), "b".into()],
            &[vec![0.0, 5.0], vec![10.0, 10.0]],
        );
        let lines: Vec<&str> = map.lines().collect();
        assert!(lines[0].starts_with("t (max = 10.0)"));
        assert!(lines[1].contains("@@"), "{map}");
        assert!(lines[2].contains(' ') && lines[2].contains('+'), "{map}");
    }

    #[test]
    fn heatmap_handles_all_zero_fields() {
        let map = ascii_heatmap("z", &["r".into()], &[vec![0.0, 0.0]]);
        assert!(map.lines().nth(1).unwrap().ends_with("|  "));
    }

    #[test]
    fn split_sections_handles_nesting_and_strings() {
        let text = r#"{
  "config": {"n": 4, "name": "a,b}"},
  "grid": {"x": {"y": [1, 2, {"z": 3}]}},
  "scalar": 1.25
}"#;
        let sections = split_sections(text);
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0].0, "config");
        assert_eq!(sections[0].1, r#"{"n": 4, "name": "a,b}"}"#);
        assert_eq!(sections[1].0, "grid");
        assert_eq!(sections[1].1, r#"{"x": {"y": [1, 2, {"z": 3}]}}"#);
        assert_eq!(sections[2], ("scalar".into(), "1.25".into()));
        assert!(split_sections("").is_empty());
        assert!(split_sections("{}").is_empty());
    }

    #[test]
    fn upsert_replaces_and_appends_sections() {
        let path = std::env::temp_dir().join(format!("repmem-upsert-{}.json", std::process::id()));
        let _ = fs::remove_file(&path);
        // Fresh file: both sections appended.
        upsert_bench_sections(&path, &[("a", "{\"x\": 1}".into()), ("b", "2".into())]);
        // Replace one, keep the other, add a third.
        upsert_bench_sections(&path, &[("a", "{\"x\": 9}".into()), ("c", "[1, 2]".into())]);
        let text = fs::read_to_string(&path).unwrap();
        let sections = split_sections(&text);
        assert_eq!(
            sections,
            vec![
                ("a".into(), "{\"x\": 9}".into()),
                ("b".into(), "2".into()),
                ("c".into(), "[1, 2]".into()),
            ]
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a".into(), "long".into()],
            &[
                vec!["1".into(), "2".into()],
                vec!["10".into(), "20000".into()],
            ],
        );
        assert!(t.contains("a"));
        assert!(t.lines().count() >= 4);
    }
}
