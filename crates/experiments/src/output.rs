//! CSV/JSON/text emission of campaign results. The JSON document is
//! built from pieces ([`json_head`], [`json_group`], [`JSON_TAIL`]) that
//! the streaming service sends as chunks, so both emit the same bytes.

use crate::campaign::{CampaignResult, GroupResult};
use std::fmt::Write as _;
use std::path::Path;

/// Escapes one CSV field: fields containing commas, quotes or newlines
/// are wrapped in double quotes with embedded quotes doubled (RFC 4180);
/// everything else passes through untouched.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders a campaign as long-format CSV: one row per (group, series)
/// with the axis coordinates and the full statistics. Deterministic
/// (groups in grid order, series sorted by name), so thread-matrix runs
/// diff byte-for-byte.
pub fn campaign_to_csv(res: &CampaignResult) -> String {
    let mut out = String::from(
        "workload,procs,granularity,epsilon,series,count,mean,stddev,min,max,p50,p90\n",
    );
    for g in &res.groups {
        for s in &g.series {
            let _ = writeln!(
                out,
                "{},{},{:.6},{},{},{},{:.9},{:.9},{:.9},{:.9},{:.9},{:.9}",
                csv_field(&g.workload),
                g.procs,
                g.granularity,
                g.epsilon,
                csv_field(&s.name),
                s.count,
                s.mean,
                s.stddev,
                s.min,
                s.max,
                s.p50,
                s.p90,
            );
        }
    }
    out
}

/// Renders a campaign as pretty JSON (serde round-trippable, fully
/// deterministic — the CI thread matrix compares these byte-for-byte).
pub fn campaign_to_json(res: &CampaignResult) -> String {
    json_document(&res.id, res.groups.iter().map(json_group))
}

/// Opening of a campaign document, up to the first group.
pub fn json_head(id: &str) -> String {
    let id = serde_json::to_string(&id).expect("strings always serialize");
    format!("{{\n  \"id\": {id},\n  \"groups\": [\n")
}

/// What goes before group `gi`'s [`json_group`] piece.
pub fn json_group_lead(gi: usize) -> &'static str {
    if gi == 0 {
        ""
    } else {
        ",\n"
    }
}

/// Closes the `groups` array and the document after the last group.
pub const JSON_TAIL: &str = "\n  ]\n}";

/// One group, pretty-printed at its depth inside the document (every
/// line indented four more spaces); a write-ahead-log frame's payload.
pub fn json_group(group: &GroupResult) -> String {
    let flat = serde_json::to_string_pretty(group).expect("groups always serialize");
    let mut out = String::with_capacity(flat.len() + 64);
    for (i, line) in flat.lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str("    ");
        out.push_str(line);
    }
    out
}

/// The campaign document of `id` with `groups` ([`json_group`] pieces,
/// in group order).
pub fn json_document<S: AsRef<str>>(id: &str, groups: impl IntoIterator<Item = S>) -> String {
    let mut out = json_head(id);
    for (gi, group) in groups.into_iter().enumerate() {
        out.push_str(json_group_lead(gi));
        out.push_str(group.as_ref());
    }
    out.push_str(JSON_TAIL);
    out
}

/// Writes `<dir>/<id>.campaign.csv` and `<dir>/<id>.campaign.json`,
/// creating `dir`; returns the two paths.
pub fn write_campaign_outputs(
    res: &CampaignResult,
    dir: &Path,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let csv = dir.join(format!("{}.campaign.csv", res.id));
    std::fs::write(&csv, campaign_to_csv(res))?;
    let json = dir.join(format!("{}.campaign.json", res.id));
    std::fs::write(&json, campaign_to_json(res))?;
    Ok((csv, json))
}

/// Prints a campaign as aligned text: one block per group, mean ± stddev
/// per series.
pub fn campaign_to_table(res: &CampaignResult) -> String {
    let mut out = String::new();
    for g in &res.groups {
        let _ = writeln!(
            out,
            "== {} | {} procs | g = {:.2} | eps = {} ==",
            g.workload, g.procs, g.granularity, g.epsilon
        );
        for s in &g.series {
            let _ = writeln!(
                out,
                "  {:<42} {:>14.4} ± {:>10.4}  (n = {})",
                s.name, s.mean, s.stddev, s.count
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{GroupResult, SeriesStats};

    fn stats(name: &str, mean: f64) -> SeriesStats {
        SeriesStats {
            name: name.into(),
            count: 1,
            mean,
            stddev: 0.0,
            min: mean,
            max: mean,
            p50: mean,
            p90: mean,
        }
    }

    #[test]
    fn csv_column_order_is_stable_and_commas_escaped() {
        // Series names containing commas and quotes get RFC 4180
        // quoting, so a comma inside a quoted name never adds a column,
        // and renders are identical.
        let res = CampaignResult {
            id: "esc".into(),
            groups: vec![GroupResult {
                workload_index: 0,
                workload: "paper-layered[100..150]".into(),
                platform_index: 0,
                procs: 4,
                granularity: 0.2,
                epsilon: 1,
                series: vec![stats("Has \"quote\"", 4.0), stats("With, comma", 2.0)],
            }],
        };
        let csv = campaign_to_csv(&res);
        assert_eq!(csv, campaign_to_csv(&res), "render must be deterministic");
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows.len(), 3);
        let prefix = "paper-layered[100..150],4,0.200000,1,";
        assert_eq!(
            rows[1],
            format!(
                "{prefix}\"Has \"\"quote\"\"\",1,4.000000000,0.000000000,\
                 4.000000000,4.000000000,4.000000000,4.000000000"
            )
        );
        assert!(rows[2].starts_with(&format!("{prefix}\"With, comma\",1,")));
        let columns = rows[0].split(',').count();
        assert_eq!(rows[2].split(',').count(), columns + 1, "one quoted comma");
    }

    #[test]
    fn json_pieces_compose_to_the_serde_document() {
        let group = |epsilon, mean| GroupResult {
            workload_index: 0,
            workload: "paper-layered[100..150]".into(),
            platform_index: 0,
            procs: 20,
            granularity: 0.4,
            epsilon,
            series: vec![stats("FTSA with 2 Crash", mean), stats("\"quoted\"", 1e-9)],
        };
        let res = CampaignResult {
            id: "pieces \"x\"".into(),
            groups: vec![group(1, 1.5), group(2, 2.25), group(3, 0.1)],
        };
        assert_eq!(
            campaign_to_json(&res),
            serde_json::to_string_pretty(&res).unwrap()
        );
    }

    #[test]
    fn campaign_emission_round_trip_and_csv_shape() {
        let res = CampaignResult {
            id: "emit".into(),
            groups: vec![GroupResult {
                workload_index: 0,
                workload: "paper-layered[100..150]".into(),
                platform_index: 0,
                procs: 20,
                granularity: 0.4,
                epsilon: 2,
                series: vec![SeriesStats {
                    name: "FTSA with 2 Crash".into(),
                    count: 3,
                    mean: 1.5,
                    stddev: 0.1,
                    min: 1.4,
                    max: 1.6,
                    p50: 1.5,
                    p90: 1.6,
                }],
            }],
        };
        let csv = campaign_to_csv(&res);
        assert!(csv.starts_with("workload,procs,granularity,epsilon,series"));
        assert!(csv.contains("FTSA with 2 Crash"));
        let json = campaign_to_json(&res);
        let back: CampaignResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, res);
        let table = campaign_to_table(&res);
        assert!(table.contains("eps = 2"));

        let dir = std::env::temp_dir().join("ftsched_campaign_out_test");
        let (csv_path, json_path) = write_campaign_outputs(&res, &dir).unwrap();
        assert!(csv_path.ends_with("emit.campaign.csv"));
        assert!(std::fs::read_to_string(&json_path)
            .unwrap()
            .contains("emit"));
        let _ = std::fs::remove_file(csv_path);
        let _ = std::fs::remove_file(json_path);
    }
}
