//! Checks of a `sigma_obs::metric_set!` table against what it generated:
//! the registry's exposition and the stats struct's own field list.

use sigma_obs::{MetricDecl, MetricKind};

/// Asserts that every metric of `metrics` is exported exactly once by the
/// process-wide registry — one `# HELP` with the declared text, one
/// `# TYPE` of the declared kind, one series — or, with `obs` compiled out,
/// that none of them is registered at all. An instance of the set must be
/// alive (the registry holds its handles weakly).
pub fn assert_metric_set_exposed(metrics: &[MetricDecl]) {
    let snapshot = sigma_obs::snapshot();
    if !sigma_obs::ENABLED {
        for m in metrics {
            assert!(
                snapshot.get(m.name).is_none(),
                "{} registered with obs compiled out",
                m.name
            );
        }
        return;
    }
    let text = snapshot.to_prometheus();
    let count = |line: &str| text.lines().filter(|l| *l == line).count();
    let starts = |prefix: &str| text.lines().filter(|l| l.starts_with(prefix)).count();
    for m in metrics {
        let (kind, series) = match m.kind {
            MetricKind::Counter => ("counter", format!("{} ", m.name)),
            MetricKind::Gauge => ("gauge", format!("{} ", m.name)),
            MetricKind::Histogram => ("summary", format!("{}_count ", m.name)),
        };
        let help = format!("# HELP {} {}", m.name, m.help);
        assert_eq!(count(&help), 1, "`{help}` in:\n{text}");
        assert_eq!(starts(&format!("# HELP {} ", m.name)), 1, "{}", m.name);
        let ty = format!("# TYPE {} {kind}", m.name);
        assert_eq!(count(&ty), 1, "`{ty}` in:\n{text}");
        assert_eq!(starts(&series), 1, "series of {} in:\n{text}", m.name);
    }
}

/// Asserts that `fields` (a stats struct's `fields()`) names exactly the
/// struct's own fields, in order — read off `debug`, its `{:#?}` rendering,
/// after `leading` hand-written fields — one per counter and gauge of
/// `metrics` (its `METRICS`).
pub fn assert_fields_match_struct(
    debug: &str,
    leading: usize,
    fields: impl Iterator<Item = (&'static str, i128)>,
    metrics: &[MetricDecl],
) {
    let names: Vec<&str> = fields.map(|(name, _)| name).collect();
    let plain = metrics.iter().filter(|m| m.kind != MetricKind::Histogram);
    assert_eq!(
        names.len(),
        plain.count(),
        "one field per counter and gauge"
    );
    // Top-level fields sit at one indent level; a nested struct's own
    // fields sit deeper and are skipped.
    let in_struct: Vec<&str> = debug
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_once(':').map(|(name, _)| name))
        .skip(leading)
        .collect();
    assert_eq!(names, in_struct, "fields() against the struct:\n{debug}");
}
