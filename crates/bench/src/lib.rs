//! Experiment harness regenerating the paper's evaluation (§5).
//!
//! Every table and figure has a binary in `src/bin/`:
//!
//! | binary             | paper artifact                                   |
//! |--------------------|--------------------------------------------------|
//! | `table1`           | Table 1 — pub/sub scheme & workload properties   |
//! | `table2`           | Table 2 — simulated networks & average RTTs      |
//! | `fig2`             | Fig 2a–d — event CDFs (matched %, hops, latency, bandwidth) |
//! | `fig3`             | Fig 3a–b — node CDFs (in/out bandwidth)          |
//! | `fig4`             | Fig 4 — load on the 100 most loaded nodes        |
//! | `fig5`             | Fig 5a–d — scaling with network size             |
//! | `ablation_base`    | zone base β sweep                                |
//! | `ablation_rotation`| zone-mapping rotation on/off, multi-scheme       |
//! | `ablation_subscheme`| §3.5 sub-scheme decomposition on/off            |
//!
//! The §2 comparison against rival designs is the `shootout` binary of
//! `hypersub-shootout`. All binaries here accept `--quick` (scaled-down run for smoke testing) and
//! print diffable ASCII tables via `hypersub-stats`.

use hypersub_core::config::SystemConfig;
use hypersub_core::json::Json;
use hypersub_core::metrics::EventStats;
use hypersub_core::model::Registry;
use hypersub_core::sim::{Network, TopologyKind};
use hypersub_simnet::stats::NodeTraffic;
use hypersub_simnet::SimTime;
use hypersub_stats::{Cdf, Table};
use hypersub_workload::{WorkloadGen, WorkloadSpec};

/// One experiment's configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Human-readable label ("Base 2, level 20, no LB").
    pub label: String,
    /// Network size.
    pub nodes: usize,
    /// Workload.
    pub spec: WorkloadSpec,
    /// System configuration (zone base, LB).
    pub system: SystemConfig,
    /// §3.5 subschemes, if any.
    pub subschemes: Option<Vec<Vec<usize>>>,
    /// Target mean RTT of the King-like topology.
    pub mean_rtt: SimTime,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's base configuration: 1740 nodes (King dataset size),
    /// Table 1 workload, base 2 / level 20, no LB.
    pub fn paper_default() -> Self {
        Self {
            label: "Base 2, level 20, no LB".to_string(),
            nodes: 1740,
            spec: WorkloadSpec::paper_table1(),
            system: SystemConfig::default(),
            subschemes: None,
            mean_rtt: SimTime::from_millis(180),
            seed: 20070101,
        }
    }

    /// Scales the experiment down for smoke runs (`--quick`).
    pub fn quick(mut self) -> Self {
        self.nodes = (self.nodes / 10).max(64);
        self.spec.events = (self.spec.events / 20).max(100);
        self
    }

    /// Relabels the configuration.
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }
}

/// Everything a figure needs from one run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Configuration label.
    pub label: String,
    /// Per-event statistics.
    pub events: Vec<EventStats>,
    /// Per-node stored-subscription loads.
    pub node_loads: Vec<u64>,
    /// Per-node traffic counters.
    pub node_traffic: Vec<NodeTraffic>,
    /// Messages spent on subscription installation (pre-publish).
    pub install_msgs: u64,
    /// Installation bytes.
    pub install_bytes: u64,
    /// Total subscriptions installed.
    pub total_subs: usize,
    /// Measured average RTT of the topology.
    pub avg_rtt: SimTime,
}

impl ExperimentResult {
    /// Mean percentage of subscriptions matched per event.
    pub fn avg_matched_pct(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        100.0 * self.events.iter().map(|e| e.matched_fraction).sum::<f64>()
            / self.events.len() as f64
    }

    /// Mean of max hops per event.
    pub fn avg_max_hops(&self) -> f64 {
        mean(self.events.iter().map(|e| e.max_hops as f64))
    }

    /// Mean of max latency per event, in ms.
    pub fn avg_max_latency_ms(&self) -> f64 {
        mean(self.events.iter().map(|e| e.max_latency.as_millis_f64()))
    }

    /// Mean bandwidth per event, in KB.
    pub fn avg_bandwidth_kb(&self) -> f64 {
        mean(
            self.events
                .iter()
                .map(|e| e.bandwidth_bytes as f64 / 1024.0),
        )
    }

    /// Fraction of events fully delivered (delivered == expected).
    pub fn delivery_completeness(&self) -> f64 {
        if self.events.is_empty() {
            return 1.0;
        }
        self.events
            .iter()
            .filter(|e| e.delivered == e.expected)
            .count() as f64
            / self.events.len() as f64
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = iter.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs one full experiment: build the network, install the workload's
/// subscriptions, publish the workload's events with exponential
/// inter-arrival from random nodes, and collect every metric the figures
/// need.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    let scheme = match &cfg.subschemes {
        Some(ss) => {
            let refs: Vec<&[usize]> = ss.iter().map(|v| v.as_slice()).collect();
            cfg.spec.scheme_def_with_subschemes(0, &refs)
        }
        None => cfg.spec.scheme_def(0),
    };
    let registry = Registry::new(vec![scheme]);
    let mut net = Network::builder(cfg.nodes)
        .registry(registry)
        .config(cfg.system.clone())
        .topology(TopologyKind::KingLike(cfg.mean_rtt))
        .seed(cfg.seed)
        .build()
        .expect("valid experiment configuration");
    let mut gen = WorkloadGen::new(cfg.spec.clone(), cfg.seed ^ 0xabcd);

    // Phase 1: install subscriptions on every node.
    for node in 0..cfg.nodes {
        for _ in 0..cfg.spec.subs_per_node {
            net.subscribe(node, 0, gen.subscription());
        }
    }
    let install_end = net.time() + SimTime::from_secs(300);
    if cfg.system.lb.enabled {
        net.run_until(install_end);
    } else {
        net.run_to_quiescence();
    }
    let install_msgs = net.net().total_msgs();
    let install_bytes = net.net().total_bytes();

    // Phase 2: schedule all events, exponential inter-arrival, random
    // publishers (§5.1: "20,000 events generated on randomly chosen
    // nodes" with 100 ms mean inter-arrival).
    let mut t = net.time() + SimTime::from_secs(1);
    for _ in 0..cfg.spec.events {
        let node = gen.random_node(cfg.nodes);
        net.schedule_publish(t, node, 0, gen.event_point())
            .expect("publisher index in range");
        t += gen.interarrival();
    }
    let grace = SimTime::from_secs(120);
    if cfg.system.lb.enabled {
        net.run_until(t + grace);
    } else {
        net.run_to_quiescence();
    }

    let events = net.event_stats();
    ExperimentResult {
        label: cfg.label.clone(),
        events,
        node_loads: net.node_loads(),
        node_traffic: net.net().nodes().to_vec(),
        install_msgs,
        install_bytes,
        total_subs: cfg.nodes * cfg.spec.subs_per_node,
        avg_rtt: net.topology().avg_rtt_sampled(50_000, cfg.seed ^ 0xfeed),
    }
}

/// The four configurations of Figures 2–4: {base 2, base 4} × {no LB, LB}.
pub fn fig2_configs(quick: bool) -> Vec<ExperimentConfig> {
    let base = ExperimentConfig::paper_default();
    let mk = |label: &str, system: SystemConfig| {
        let mut c = base.clone().with_label(label);
        c.system = system;
        if quick {
            c = c.quick();
        }
        c
    };
    vec![
        mk("Base 2, level 20, no LB", SystemConfig::default()),
        mk("Base 2, level 20, LB", SystemConfig::default().with_lb()),
        mk("Base 4, level 10, no LB", SystemConfig::base4()),
        mk("Base 4, level 10, LB", SystemConfig::base4().with_lb()),
    ]
}

/// Renders a CDF as `(x, F(x))` rows alongside sibling configurations.
pub fn cdf_table(
    title: &str,
    x_label: &str,
    series: &[(String, Vec<f64>)],
    points: usize,
) -> Table {
    let mut header: Vec<String> = vec![x_label.to_string()];
    for (label, _) in series {
        header.push(format!("CDF[{label}]"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    // Common x-grid spanning all series.
    let lo = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(f64::INFINITY, f64::min);
    let hi = series
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .fold(f64::NEG_INFINITY, f64::max);
    if !lo.is_finite() || !hi.is_finite() {
        return table;
    }
    let mut cdfs: Vec<Cdf> = series
        .iter()
        .map(|(_, v)| Cdf::from_samples(v.iter().copied()))
        .collect();
    for i in 0..points {
        let x = if points == 1 {
            hi
        } else {
            lo + (hi - lo) * i as f64 / (points - 1) as f64
        };
        let mut row = vec![format!("{x:.3}")];
        for c in &mut cdfs {
            row.push(format!("{:.4}", c.fraction_le(x)));
        }
        table.row(&row);
    }
    table
}

/// Parses the common `--quick` flag.
pub fn is_quick() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

/// Prints a standard per-configuration summary block (averages the paper
/// quotes in figure legends).
pub fn print_summary(results: &[ExperimentResult]) {
    let mut t = Table::new(
        "Run summary (figure-legend averages)",
        &[
            "config",
            "events",
            "avg matched %",
            "avg max hops",
            "avg max latency (ms)",
            "avg bw/event (KB)",
            "complete %",
            "install msgs",
        ],
    );
    for r in results {
        t.row(&[
            r.label.clone(),
            r.events.len().to_string(),
            format!("{:.3}", r.avg_matched_pct()),
            format!("{:.1}", r.avg_max_hops()),
            format!("{:.0}", r.avg_max_latency_ms()),
            format!("{:.1}", r.avg_bandwidth_kb()),
            format!("{:.1}", 100.0 * r.delivery_completeness()),
            r.install_msgs.to_string(),
        ]);
    }
    println!("{t}");
}

/// The `(label, mode)` pair that identifies a `hotpath` run entry.
fn hotpath_key(run: &Json) -> Result<(&str, &str), String> {
    Ok((run.get("label")?.as_str()?, run.get("mode")?.as_str()?))
}

/// Merges one `hotpath` run entry into the `BENCH_hotpath.json` document
/// `old` (absent on a first run). A prior entry with the same `label`
/// and `mode` is replaced in place; any other entry is kept as it is,
/// whatever the old document's layout. The summary fields after `runs`
/// are recomputed from the merged entries.
///
/// # Errors
/// When `old` is not JSON, has no `runs` array, or an entry lacks its
/// label or mode — the caller must not overwrite such a file.
pub fn merge_hotpath(old: Option<&str>, entry: Json) -> Result<Json, String> {
    let mut runs = match old {
        Some(text) => Json::parse(text)?.get("runs")?.as_arr()?.to_vec(),
        None => Vec::new(),
    };
    let key = hotpath_key(&entry)?;
    let keys = runs
        .iter()
        .map(hotpath_key)
        .collect::<Result<Vec<_>, _>>()?;
    match keys.iter().position(|&k| k == key) {
        Some(i) => runs[i] = entry,
        None => runs.push(entry),
    }

    let full = |label: &str| {
        runs.iter()
            .find(|r| hotpath_key(r).ok() == Some((label, "full")))
    };
    let speedup = |base: &str, new: &str| -> Option<f64> {
        let rate = |r: &Json| r.get("events_per_sec").and_then(Json::as_num::<f64>).ok();
        Some(rate(full(new)?)? / rate(full(base)?)?.max(1e-9))
    };
    let mut summary = vec![(
        "speedup_after_vs_baseline",
        speedup("baseline", "after").map_or(Json::Null, |s| Json::fixed(s, 2)),
    )];
    // The index pair: `index-grid` re-measures the grid structure and
    // `index` the hybrid on the *same* machine, so their ratio is free
    // of the cross-machine drift the older baseline/after rows carry.
    if let Some(s) = speedup("index-grid", "index") {
        summary.push(("speedup_index_vs_grid", Json::fixed(s, 2)));
    }
    // Every full-mode row measures the identical workload, so all their
    // digests must agree regardless of label or index shape.
    let full_digests: Vec<&str> = runs
        .iter()
        .filter(|r| hotpath_key(r).is_ok_and(|(_, mode)| mode == "full"))
        .filter_map(|r| r.get("digest").and_then(Json::as_str).ok())
        .collect();
    let digests_match = full_digests.windows(2).all(|w| w[0] == w[1]);
    summary.push(("digests_match", Json::Bool(digests_match)));
    let head = [("bench", Json::str("hotpath")), ("runs", Json::Arr(runs))];
    Ok(Json::object(head.into_iter().chain(summary)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end experiment exercising the whole harness.
    #[test]
    fn tiny_experiment_runs_and_delivers() {
        let mut cfg = ExperimentConfig::paper_default().quick();
        cfg.nodes = 48;
        cfg.spec.events = 30;
        cfg.spec.subs_per_node = 3;
        let r = run_experiment(&cfg);
        assert_eq!(r.events.len(), 30);
        assert_eq!(r.total_subs, 144);
        assert!(
            r.delivery_completeness() == 1.0,
            "all events must deliver fully: {:?}",
            r.events
                .iter()
                .filter(|e| e.delivered != e.expected)
                .collect::<Vec<_>>()
        );
        assert!(r.install_msgs > 0);
    }

    #[test]
    fn lb_experiment_converges() {
        let mut cfg = ExperimentConfig::paper_default().quick();
        cfg.nodes = 48;
        cfg.spec.events = 20;
        cfg.spec.subs_per_node = 4;
        cfg.system = SystemConfig::default().with_lb();
        let r = run_experiment(&cfg);
        assert_eq!(r.events.len(), 20);
        assert!(
            r.delivery_completeness() >= 0.95,
            "LB must not lose deliveries"
        );
    }

    const PINNED_BENCH: &str = include_str!("../../../BENCH_hotpath.json");

    /// `text` laid out the way common JSON printers do it: every member
    /// on its own line, four-space indent.
    fn reindent(text: &str) -> String {
        let (mut out, mut depth, mut in_str, mut escaped) = (String::new(), 0, false, false);
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"    ".repeat(depth));
        };
        for c in text.chars() {
            if in_str {
                out.push(c);
                (in_str, escaped) = (escaped || c != '"', !escaped && c == '\\');
                continue;
            }
            match c {
                '"' => {
                    in_str = true;
                    out.push(c);
                }
                '{' | '[' => {
                    depth += 1;
                    out.push(c);
                    newline(&mut out, depth);
                }
                '}' | ']' => {
                    depth -= 1;
                    newline(&mut out, depth);
                    out.push(c);
                }
                ',' => {
                    out.push(',');
                    newline(&mut out, depth);
                }
                c if c.is_whitespace() => {}
                ':' => out.push_str(": "),
                c => out.push(c),
            }
        }
        out
    }

    fn labels(doc: &Json) -> Vec<(String, String)> {
        let runs = doc.get("runs").unwrap().as_arr().unwrap();
        let key = |r| hotpath_key(r).map(|(l, m)| (l.to_string(), m.to_string()));
        runs.iter().map(|r| key(r).unwrap()).collect()
    }

    #[test]
    fn merge_keeps_entries_of_a_reindented_file() {
        let pinned = Json::parse(PINNED_BENCH).unwrap();
        let pinned_runs = pinned.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(pinned_runs.len(), 8);
        let reindented = reindent(PINNED_BENCH);
        assert!(
            reindented.lines().count() > 100,
            "every member on its own line"
        );
        assert_eq!(Json::parse(&reindented).unwrap(), pinned);

        // A new (label, mode) is appended after all 8 prior entries.
        let new = Json::object([("label", Json::str("ci")), ("mode", Json::str("quick"))]);
        let merged = merge_hotpath(Some(&reindented), new.clone()).unwrap();
        let runs = merged.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(&runs[..8], pinned_runs);
        assert_eq!(runs[8], new);
        for key in [
            "speedup_after_vs_baseline",
            "speedup_index_vs_grid",
            "digests_match",
        ] {
            assert_eq!(merged.get(key), pinned.get(key), "{key}");
        }

        // A rerun of one (label, mode) replaces only that entry, in place.
        let rerun = Json::object([
            ("label", Json::str("after")),
            ("mode", Json::str("quick")),
            ("digest", Json::str("0x1")),
        ]);
        let merged = merge_hotpath(Some(&reindented), rerun.clone()).unwrap();
        let runs = merged.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(labels(&merged), labels(&pinned));
        for (i, (got, was)) in runs.iter().zip(pinned_runs).enumerate() {
            if i == 3 {
                assert_eq!(got, &rerun);
            } else {
                assert_eq!(got, was);
            }
        }
    }

    #[test]
    fn merge_refuses_a_file_it_cannot_read() {
        let entry = || Json::object([("label", Json::str("ci")), ("mode", Json::str("quick"))]);
        for bad in [
            "",
            "{",
            "[]",
            "{\"runs\": {}}",
            "{\"runs\": [{\"mode\": \"full\"}]}",
        ] {
            assert!(merge_hotpath(Some(bad), entry()).is_err(), "{bad:?}");
        }
        assert!(merge_hotpath(Some(PINNED_BENCH), Json::Null).is_err());
        let first = merge_hotpath(None, entry()).unwrap();
        assert_eq!(labels(&first), [("ci".to_string(), "quick".to_string())]);
        assert_eq!(first.get("speedup_after_vs_baseline"), Ok(&Json::Null));
    }

    #[test]
    fn cdf_table_shape() {
        let series = vec![
            ("a".to_string(), vec![1.0, 2.0, 3.0]),
            ("b".to_string(), vec![2.0, 4.0]),
        ];
        let t = cdf_table("test", "x", &series, 5);
        assert_eq!(t.len(), 5);
    }
}
