//! The results file a full run writes (`out/results.json`) and the
//! `--compare` verdicts over two of them.

use std::collections::BTreeMap;

use drain_bench::json::{self, Json};

use crate::defs::{MetricDef, END_TO_END, PER_LAYER};

/// Where and how a set of results was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamp {
    /// `git rev-parse HEAD`, `-dirty` appended when the tree has changes.
    pub commit: String,
    pub nproc: u64,
    pub rustc: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// One workload's two passes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value, end-to-end and per-layer together (the names
    /// are distinct).
    pub metrics: BTreeMap<String, f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Results {
    pub stamp: Stamp,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// Indented JSON: one member or element per line.
pub fn pretty(v: &Json) -> String {
    fn go(v: &Json, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        let leaf = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
        match v {
            Json::Arr(items) if !items.is_empty() && !items.iter().all(leaf) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Json::Obj(map) if !map.is_empty() && !map.values().all(leaf) => {
                out.push_str("{\n");
                for (i, (k, item)) in map.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Json::Str(k.clone()).to_string());
                    out.push_str(": ");
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            flat => out.push_str(&flat.to_string()),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out.push('\n');
    out
}

impl Results {
    pub fn to_json(&self) -> Json {
        let s = &self.stamp;
        let workloads = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let metrics = w
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), json::num(*v)))
                    .collect();
                let obj = Json::obj([
                    ("correct", Json::Bool(w.correct)),
                    ("attempted", Json::Num(w.attempted as f64)),
                    ("failed", Json::Num(w.failed as f64)),
                    ("metrics", Json::Obj(metrics)),
                ]);
                (name.clone(), obj)
            })
            .collect();
        Json::obj([
            (
                "stamp",
                Json::obj([
                    ("commit", Json::Str(s.commit.clone())),
                    ("nproc", Json::Num(s.nproc as f64)),
                    ("rustc", Json::Str(s.rustc.clone())),
                    ("seed", Json::Num(s.seed as f64)),
                    ("seconds", Json::Num(s.seconds)),
                    ("quick", Json::Bool(s.quick)),
                ]),
            ),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    pub fn parse(text: &str) -> Result<Results, String> {
        let v = json::parse(text)?;
        let field = |v: &Json, k: &str| v.get(k).cloned().ok_or_else(|| format!("missing {k:?}"));
        let s = field(&v, "stamp")?;
        let string = |k: &str| {
            Ok::<_, String>(
                field(&s, k)?
                    .as_str()
                    .ok_or(format!("{k} is not a string"))?
                    .to_string(),
            )
        };
        let stamp = Stamp {
            commit: string("commit")?,
            nproc: field(&s, "nproc")?.as_u64().ok_or("nproc is not a count")?,
            rustc: string("rustc")?,
            seed: field(&s, "seed")?.as_u64().ok_or("seed is not a count")?,
            seconds: field(&s, "seconds")?
                .as_f64()
                .ok_or("seconds is not a number")?,
            quick: field(&s, "quick")? == Json::Bool(true),
        };
        let Json::Obj(map) = field(&v, "workloads")? else {
            return Err("workloads is not an object".into());
        };
        let mut workloads = BTreeMap::new();
        for (name, w) in map {
            let Json::Obj(m) = field(&w, "metrics")? else {
                return Err(format!("{name}: metrics is not an object"));
            };
            let metrics = m
                .into_iter()
                .map(|(k, x)| {
                    Ok((
                        k,
                        json::float_or_nan(Some(&x)).ok_or("a metric is not a number")?,
                    ))
                })
                .collect::<Result<_, String>>()?;
            workloads.insert(
                name,
                WorkloadResult {
                    correct: field(&w, "correct")? == Json::Bool(true),
                    attempted: field(&w, "attempted")?
                        .as_u64()
                        .ok_or("attempted is not a count")?,
                    failed: field(&w, "failed")?
                        .as_u64()
                        .ok_or("failed is not a count")?,
                    metrics,
                },
            );
        }
        Ok(Results { stamp, workloads })
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// An exact count or digest differs.
    Differs,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

/// Share by which `b` is worse than `a` (negative when better).
fn worse_by(d: &MetricDef, a: f64, b: f64) -> f64 {
    if d.better == "lower" {
        b / a - 1.0
    } else {
        a / b - 1.0
    }
}

fn judge(d: &MetricDef, a: f64, b: f64) -> Option<Verdict> {
    if d.exact {
        return Some(if a == b {
            Verdict::Ok
        } else {
            Verdict::Differs
        });
    }
    let bound = d.bound?;
    if a <= 0.0 || b <= 0.0 {
        // A gated layer metric reads 0 on workloads that bypass the layer.
        return (a != b).then_some(Verdict::Differs);
    }
    let worse = worse_by(d, a, b);
    Some(if worse > bound {
        Verdict::Worse
    } else if worse_by(d, b, a) > bound {
        Verdict::Better
    } else {
        Verdict::Ok
    })
}

/// Every gated or exact metric of every workload of A against B, plus
/// `failed_share`, which has to be equal.
pub fn compare(a: &Results, b: &Results) -> Result<Vec<Row>, String> {
    if a.stamp.seed != b.stamp.seed || a.stamp.quick != b.stamp.quick {
        return Err(format!(
            "not comparable: seed {} quick {} against seed {} quick {} (exact counts depend on both)",
            a.stamp.seed, a.stamp.quick, b.stamp.seed, b.stamp.quick
        ));
    }
    let mut rows = Vec::new();
    for (name, wa) in &a.workloads {
        let wb = b
            .workloads
            .get(name)
            .ok_or_else(|| format!("{name} is missing from B"))?;
        let share = |w: &WorkloadResult| w.failed as f64 / w.attempted.max(1) as f64;
        rows.push(Row {
            workload: name.clone(),
            metric: "failed_share",
            unit: "ratio",
            a: share(wa),
            b: share(wb),
            bound: Some(0.0),
            verdict: if share(wa) == share(wb) {
                Verdict::Ok
            } else {
                Verdict::Differs
            },
        });
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(&x), Some(&y)) = (wa.metrics.get(d.name), wb.metrics.get(d.name)) else {
                continue;
            };
            if let Some(verdict) = judge(d, x, y) {
                rows.push(Row {
                    workload: name.clone(),
                    metric: d.name,
                    unit: d.unit,
                    a: x,
                    b: y,
                    bound: d.bound,
                    verdict,
                });
            }
        }
    }
    Ok(rows)
}

/// Prints the rows (exact matches are summarised, not listed) and
/// returns whether A and B agree: nothing worse, nothing different.
pub fn print_comparison(rows: &[Row]) -> bool {
    println!(
        "{:<20} {:<32} {:>14} {:>14} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut exact_ok = 0;
    for r in rows {
        if r.bound.is_none() && r.verdict == Verdict::Ok {
            exact_ok += 1;
            continue;
        }
        let ratio = if r.a != 0.0 {
            format!("{:.3}", r.b / r.a)
        } else {
            "-".into()
        };
        let bound = r
            .bound
            .map_or("exact".to_string(), |b| format!("{:.0}%", b * 100.0));
        println!(
            "{:<20} {:<32} {:>14.6} {:>14.6} {:>7} {:>6}  {:?} [{}]",
            r.workload, r.metric, r.a, r.b, ratio, bound, r.verdict, r.unit
        );
    }
    println!("{exact_ok} exact counts and digests identical");
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Worse | Verdict::Differs))
        .count();
    println!("{bad} outside their bound or different");
    bad == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(wall: f64, cycles_per_s: f64, ejected: f64) -> Results {
        let metrics = BTreeMap::from([
            ("wall_s".to_string(), wall),
            ("sim_cycles_per_s".to_string(), cycles_per_s),
            ("netsim.packets_ejected".to_string(), ejected),
            ("netsim.run_s".to_string(), wall * 0.9),
            ("bench.sweep.points_per_s".to_string(), 0.0),
        ]);
        Results {
            stamp: Stamp {
                commit: "abc123-dirty".into(),
                nproc: 2,
                rustc: "rustc 1.95.0".into(),
                seed: 1,
                seconds: 15.0,
                quick: false,
            },
            workloads: BTreeMap::from([(
                "sat_mesh8".to_string(),
                WorkloadResult {
                    correct: true,
                    attempted: 24,
                    failed: 0,
                    metrics,
                },
            )]),
        }
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect(metric)
            .verdict
    }

    #[test]
    fn results_round_trip_through_the_file_format() {
        let r = results(1.25, 40_000.5, 1234.0);
        let text = pretty(&r.to_json());
        assert_eq!(Results::parse(&text).unwrap(), r);
        assert!(
            text.lines().count() > 10,
            "pretty output is line per member"
        );
        assert_eq!(json::parse(&text).unwrap(), r.to_json());
    }

    #[test]
    fn within_the_bound_agrees_in_both_directions() {
        let rows = compare(&results(1.0, 100.0, 5.0), &results(1.03, 97.0, 5.0)).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Ok);
        assert_eq!(verdict(&rows, "sim_cycles_per_s"), Verdict::Ok);
        assert_eq!(verdict(&rows, "netsim.packets_ejected"), Verdict::Ok);
        assert_eq!(verdict(&rows, "failed_share"), Verdict::Ok);
        assert!(print_comparison(&rows));
    }

    #[test]
    fn direction_decides_which_side_of_the_bound_is_worse() {
        // Lower-is-better doubled, higher-is-better halved: both worse.
        let rows = compare(&results(1.0, 100.0, 5.0), &results(2.0, 50.0, 5.0)).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Worse);
        assert_eq!(verdict(&rows, "sim_cycles_per_s"), Verdict::Worse);
        assert!(!print_comparison(&rows));
        // And the mirror image is an improvement, which does not fail.
        let rows = compare(&results(2.0, 50.0, 5.0), &results(1.0, 100.0, 5.0)).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Better);
        assert_eq!(verdict(&rows, "sim_cycles_per_s"), Verdict::Better);
        assert!(print_comparison(&rows));
    }

    #[test]
    fn an_exact_count_off_by_one_differs() {
        let rows = compare(&results(1.0, 100.0, 5.0), &results(1.0, 100.0, 6.0)).unwrap();
        assert_eq!(verdict(&rows, "netsim.packets_ejected"), Verdict::Differs);
        assert!(!print_comparison(&rows));
    }

    #[test]
    fn ungated_timings_are_not_judged_and_failures_must_match() {
        let a = results(1.0, 100.0, 5.0);
        let mut b = results(1.0, 100.0, 5.0);
        b.workloads.get_mut("sat_mesh8").unwrap().failed = 1;
        let rows = compare(&a, &b).unwrap();
        assert!(rows.iter().all(|r| r.metric != "netsim.run_s"));
        assert!(
            rows.iter().all(|r| r.metric != "bench.sweep.points_per_s"),
            "0 on both sides"
        );
        assert_eq!(verdict(&rows, "failed_share"), Verdict::Differs);
    }

    #[test]
    fn other_seeds_are_refused() {
        let a = results(1.0, 100.0, 5.0);
        let mut b = a.clone();
        b.stamp.seed = 2;
        assert!(compare(&a, &b).is_err());
    }
}
