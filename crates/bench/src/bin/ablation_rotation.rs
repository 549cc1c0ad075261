//! Ablation A2 — zone-mapping rotation (§4).
//!
//! Four pub/sub schemes share one network. Without rotation, the large
//! (shallow) content zones of *every* scheme hash to the same keys — the
//! root zone of each scheme maps to `β^m − 1`! — piling their load onto
//! the same nodes. With rotation (offset φ = hash(scheme name)), those
//! zones spread across the ring.

use hypersub_bench::is_quick;
use hypersub_core::config::SystemConfig;
use hypersub_core::model::{Registry, SchemeDef};
use hypersub_core::sim::{Network, TopologyKind};
use hypersub_simnet::SimTime;
use hypersub_stats::{gini, Table};
use hypersub_workload::{WorkloadGen, WorkloadSpec};
use rayon::prelude::*;

fn build_registry(rotation: bool, n_schemes: usize) -> (Registry, WorkloadSpec) {
    let spec = WorkloadSpec::paper_table1();
    let schemes: Vec<SchemeDef> = (0..n_schemes)
        .map(|i| {
            let mut b = SchemeDef::builder(&format!("scheme-{i}"));
            for a in &spec.attrs {
                b = b.attribute(&a.name, a.min, a.max);
            }
            if !rotation {
                b = b.without_rotation();
            }
            b.build(i as u32)
        })
        .collect();
    (Registry::new(schemes), spec)
}

struct Outcome {
    label: String,
    max_load: u64,
    mean_load: f64,
    gini: f64,
    complete: f64,
}

fn run(rotation: bool, quick: bool) -> Outcome {
    let n_schemes = 4;
    let (registry, spec) = build_registry(rotation, n_schemes);
    let nodes = if quick { 128 } else { 1000 };
    let events_per_scheme = if quick { 100 } else { 1000 };
    let mut net = Network::builder(nodes)
        .registry(registry)
        .config(SystemConfig::default())
        .topology(TopologyKind::KingLike(SimTime::from_millis(180)))
        .seed(0xa2)
        .build()
        .expect("valid ablation configuration");
    let mut gens: Vec<WorkloadGen> = (0..n_schemes)
        .map(|i| WorkloadGen::new(spec.clone(), 0xbeef + i as u64))
        .collect();
    for node in 0..nodes {
        for (s, g) in gens.iter_mut().enumerate() {
            for _ in 0..3 {
                net.subscribe(node, s as u32, g.subscription());
            }
        }
    }
    net.run_to_quiescence();
    let mut t = net.time() + SimTime::from_secs(1);
    for _ in 0..events_per_scheme {
        for (s, _) in (0..n_schemes).enumerate() {
            let node = gens[s].random_node(nodes);
            let point = gens[s].event_point();
            net.schedule_publish(t, node, s as u32, point)
                .expect("publisher index in range");
            t += gens[s].interarrival();
        }
    }
    net.run_to_quiescence();
    let events = net.event_stats();
    let loads = net.node_loads();
    Outcome {
        label: format!("rotation {}", if rotation { "on" } else { "off" }),
        max_load: loads.iter().copied().max().unwrap_or(0),
        mean_load: loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64,
        gini: gini(&loads.iter().map(|&l| l as f64).collect::<Vec<_>>()),
        complete: events.iter().filter(|e| e.delivered == e.expected).count() as f64
            / events.len().max(1) as f64,
    }
}

fn main() {
    let quick = is_quick();
    let outcomes: Vec<Outcome> = [true, false]
        .par_iter()
        .map(|&rot| run(rot, quick))
        .collect();
    let mut t = Table::new(
        "Ablation A2: zone-mapping rotation, 4 schemes sharing the ring",
        &[
            "config",
            "max load",
            "mean load",
            "max/mean",
            "Gini",
            "complete %",
        ],
    );
    for o in &outcomes {
        t.row(&[
            o.label.clone(),
            o.max_load.to_string(),
            format!("{:.1}", o.mean_load),
            format!("{:.1}", o.max_load as f64 / o.mean_load.max(1e-9)),
            format!("{:.3}", o.gini),
            format!("{:.1}", 100.0 * o.complete),
        ]);
    }
    println!("{t}");
    println!("Expected shape: rotation lowers max/mean and Gini — without it the shallow\nzones of all 4 schemes land on the same nodes.");
}
