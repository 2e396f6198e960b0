//! The traced run of the serving workloads: the workload's recorded request
//! lines replayed in process through each layer's public call, one span per
//! call. This is the one place that reaches into the serving layers.
//!
//! The layer calls of one request run one after another under a `request`
//! root span (each call does its layer's full work on the same rows), so
//! the self times of a root's children plus `unattributed` add up to it.

use crate::gen::{self, Template};
use crate::report::Report;
use crate::serving::{Files, APPEND_ROWS};
use crate::trace::{breakdown, Breakdown, Tracer};
use crate::Ctx;
use er_datagen::CsvScenarioOptions;
use er_ingest::{ChunkConfig, ChunkReader, IngestConfig};
use er_rules::BatchRepairer;
use er_serve::{proto, RepairEngine, RowBatch, ServeConfig, Server};
use er_shard::ShardedEngine;
use er_table::{Pool, Relation};
use std::sync::Arc;
use std::time::Instant;

/// Passes over the recorded request lines per replay.
fn passes(bulk: bool) -> usize {
    if bulk {
        2
    } else {
        4
    }
}

/// Appends replayed in the traced run.
const APPENDS: usize = 8;

struct Layers {
    engine: RepairEngine,
    server: Server,
    one: ShardedEngine,
    two: ShardedEngine,
    repairer: BatchRepairer,
    incr: er_incr::IncrEngine,
    schema: Arc<er_table::Schema>,
    pool: Arc<Pool>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn build(files: &Files, shards: usize) -> Result<Layers, String> {
    let opts = CsvScenarioOptions::new("csv", "infection_case", "infection_case");
    let s = er_datagen::scenario_from_csv(&files.input, &files.master, &opts).map_err(err)?;
    let task = &s.task;
    let json = std::fs::read_to_string(&files.rules).map_err(err)?;
    let rules = er_rules::rules_from_json(&json, task).map_err(err)?;
    let target = task.target();
    let master = || task.master().clone();
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    Ok(Layers {
        engine: RepairEngine::from_json_gated_sharded(task, &json, 2, shards).map_err(err)?,
        server: Server::new(
            RepairEngine::from_json_gated_sharded(task, &json, 2, shards).map_err(err)?,
            config,
        ),
        one: ShardedEngine::new(master(), target, rules.clone(), 2, 1).map_err(err)?,
        two: ShardedEngine::new(master(), target, rules.clone(), 2, 2).map_err(err)?,
        repairer: BatchRepairer::new(master(), target, rules.clone(), 2).map_err(err)?,
        incr: er_incr::IncrEngine::new(master(), target, rules, 2).map_err(err)?,
        schema: Arc::clone(task.input().schema()),
        pool: Arc::clone(task.input().pool()),
    })
}

/// Counts gathered while replaying requests.
#[derive(Default)]
struct Counts {
    requests: usize,
    rows: usize,
    cells: usize,
    wrong: usize,
}

/// Replay `passes` rounds of every template through every layer.
fn replay(
    l: &Layers,
    templates: &[Template],
    expected: &[String],
    passes: usize,
    tag: &str,
    tr: &mut Tracer,
) -> Result<Counts, String> {
    let mut c = Counts::default();
    let mut batch = RowBatch::new();
    let mut handle_batch = RowBatch::new();
    let mut line = String::new();
    let mut fresh = 0u64;
    for _ in 0..passes {
        for (idx, t) in templates.iter().enumerate() {
            t.render(
                || {
                    fresh += 1;
                    format!("{tag}{fresh}")
                },
                &mut line,
            );
            let id = c.requests as u64;
            let root = tr.begin("request", id);
            tr.time("serve.proto.parse", id, || {
                proto::parse_request(&line, 4096, &mut batch)
            })?;
            let rows = batch.rows();
            c.rows += rows.len();
            c.cells += rows.iter().map(Vec::len).sum::<usize>();
            let rel = tr.time("table.build_rows", id, || {
                let mut rel = Relation::empty(Arc::clone(&l.schema), Arc::clone(&l.pool));
                for row in rows {
                    rel.push_row_ref(row).map_err(err)?;
                }
                Ok::<_, String>(rel)
            })?;
            tr.time("rules.batch_repair", id, || l.repairer.repair_batch(&rel))
                .map_err(err)?;
            tr.time("shard.one", id, || l.one.repair_batch(&rel, None))
                .map_err(err)?;
            tr.time("shard.two", id, || l.two.repair_batch(&rel, None))
                .map_err(err)?;
            let outcome = tr
                .time("serve.engine.repair", id, || l.engine.repair(rows, None))
                .map_err(err)?;
            let rendered = tr.time("serve.proto.render", id, || proto::ok_repair(&outcome));
            let (handled, _) = tr.time("serve.handle", id, || {
                l.server.handle_line(&line, &mut handle_batch)
            });
            tr.end(root);
            c.wrong += usize::from(handled != expected[idx] || rendered != expected[idx]);
            c.requests += 1;
        }
    }
    Ok(c)
}

/// Replay gated appends (the bulk workload's writes) through the analysis
/// gate, the engine and `er-incr`; run for both serving workloads, so the
/// write path's layers are traced on a gated workload.
fn replay_appends(l: &mut Layers, seed: u64, tr: &mut Tracer) -> Result<(), String> {
    let mut batch = RowBatch::new();
    for op in 0..APPENDS {
        let line = gen::append_line(seed, op, APPEND_ROWS);
        let id = op as u64;
        let root = tr.begin("append", id);
        tr.time("serve.proto.parse", id, || {
            proto::parse_request(&line, 4096, &mut batch)
        })?;
        let rows = batch.rows();
        let txn = l.engine.begin_append();
        let clean = tr.time("analyze.gate", id, || {
            txn.preview(rows)
                .map(|preview| l.engine.analyze_with_master(&preview).gate_clean())
        });
        if clean != Some(true) {
            return Err(format!("append {op} did not pass the analysis gate"));
        }
        tr.time("serve.engine.append", id, || txn.commit(rows))
            .map_err(err)?;
        tr.time("incr.append", id, || l.incr.append_rows(rows))
            .map_err(err)?;
        tr.end(root);
    }
    Ok(())
}

/// Chunk and ingest the server-side CSV.
fn replay_ingest(files: &Files, tr: &mut Tracer) -> Result<(usize, usize, usize), String> {
    let root = tr.begin("ingest", 0);
    let file = std::fs::File::open(&files.input).map_err(err)?;
    let (chunks, peak) = tr.time("ingest.chunk_reader", 0, || {
        let mut reader = ChunkReader::new(file, ChunkConfig::default());
        let mut chunks = 0;
        while reader.next_chunk().map_err(err)?.is_some() {
            chunks += 1;
        }
        Ok::<_, String>((chunks, reader.peak_buffer_bytes()))
    })?;
    let file = std::fs::File::open(&files.input).map_err(err)?;
    let config = IngestConfig {
        threads: 1,
        ..IngestConfig::default()
    };
    let (_, stats) = tr
        .time("ingest.relation", 0, || {
            er_ingest::ingest_relation("input", file, Arc::new(Pool::new()), &config)
        })
        .map_err(err)?;
    tr.end(root);
    Ok((chunks, peak, stats.rows))
}

pub fn serving(
    ctx: &Ctx,
    report: &mut Report,
    files: &Files,
    templates: &[Template],
    expected: &[String],
    shards: usize,
    bulk: bool,
) -> Result<(), String> {
    let mut l = build(files, shards)?;
    let n = passes(bulk);
    // Warm the caches, then time one untraced and one traced replay.
    replay(&l, templates, expected, 1, "w", &mut Tracer::new(false))?;
    let t = Instant::now();
    let plain = replay(&l, templates, expected, n, "u", &mut Tracer::new(false))?;
    let untraced = t.elapsed().as_secs_f64();

    let sharded = if shards > 1 { &l.two } else { &l.one };
    let (routed0, broadcast0) = (sharded.routed(), sharded.broadcast());
    let votes0 = l.repairer.vote_stats();
    let pool0 = l.pool.len();
    let mut tr = Tracer::new(true);
    let t = Instant::now();
    let c = replay(&l, templates, expected, n, "t", &mut tr)?;
    let traced = t.elapsed().as_secs_f64();
    let sharded = if shards > 1 { &l.two } else { &l.one };
    let votes = l.repairer.vote_stats();
    let layer = &mut report.layer;
    layer.insert("table.pool_values_added", (l.pool.len() - pool0) as f64);
    layer.insert("shard.routed", (sharded.routed() - routed0) as f64);
    layer.insert("shard.broadcast", (sharded.broadcast() - broadcast0) as f64);
    layer.insert("shard.imbalance", sharded.shard_stats().imbalance());
    let (rows, probes) = (votes.rows - votes0.rows, votes.probes - votes0.probes);
    layer.insert("rules.vote_rows", rows as f64);
    layer.insert("rules.signature_probes", probes as f64);
    layer.insert("rules.signature_dedup", rows as f64 / probes.max(1) as f64);
    report.check(plain.wrong + c.wrong == 0, || {
        format!(
            "{} in-process answers differ from the pipe reference",
            plain.wrong + c.wrong
        )
    });

    replay_appends(&mut l, ctx.seed, &mut tr)?;
    let (chunks, peak, ingested) = replay_ingest(files, &mut tr)?;

    let b = breakdown(tr.spans());
    let layer = &mut report.layer;
    let total_us = |name: &str| b.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3;
    layer.insert(
        "serve.proto.parse_ns_per_cell",
        total_us("serve.proto.parse") * 1e3 / c.cells.max(1) as f64,
    );
    layer.insert("serve.proto.parse_us", b.mean_us("serve.proto.parse"));
    layer.insert("serve.proto.render_us", b.mean_us("serve.proto.render"));
    layer.insert("serve.handle_us", b.mean_us("serve.handle"));
    layer.insert("serve.engine.repair_us", b.mean_us("serve.engine.repair"));
    layer.insert("serve.engine.append_us", b.mean_us("serve.engine.append"));
    layer.insert("table.build_rows_us", b.mean_us("table.build_rows"));
    let (one, two) = (b.mean_us("shard.one"), b.mean_us("shard.two"));
    layer.insert("shard.repair_batch_us", if shards > 1 { two } else { one });
    layer.insert("shard.overhead_us", two - one);
    layer.insert("rules.batch_repair_us", b.mean_us("rules.batch_repair"));
    layer.insert(
        "rules.ns_per_row",
        total_us("rules.batch_repair") * 1e3 / c.rows.max(1) as f64,
    );
    layer.insert("analyze.gate_us", b.mean_us("analyze.gate"));
    layer.insert("incr.append_us", b.mean_us("incr.append"));
    layer.insert(
        "ingest.rows_per_s",
        ingested as f64 / (total_us("ingest.relation") / 1e6),
    );
    layer.insert("ingest.chunks", chunks as f64);
    layer.insert("ingest.peak_buffer_bytes", peak as f64);
    finish(ctx, report, &tr, &b, traced / untraced - 1.0)
}

/// Check that the trace adds up, write it out, and report its bookkeeping.
pub fn finish(
    ctx: &Ctx,
    report: &mut Report,
    tr: &Tracer,
    b: &Breakdown,
    overhead: f64,
) -> Result<(), String> {
    report.check(b.attributed_ns() == b.root_ns, || {
        format!(
            "trace does not add up: self times {} ns vs root spans {} ns",
            b.attributed_ns(),
            b.root_ns
        )
    });
    let roots = tr.spans().iter().filter(|s| s.parent.is_none()).count();
    let path = ctx
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let layer = &mut report.layer;
    layer.insert("trace.spans", tr.spans().len() as f64);
    layer.insert("trace.roots", roots as f64);
    layer.insert(
        "trace.unattributed_us",
        b.self_ns.get("unattributed").copied().unwrap_or(0) as f64 / 1e3 / roots.max(1) as f64,
    );
    layer.insert(
        "trace.root_us",
        b.root_ns as f64 / 1e3 / roots.max(1) as f64,
    );
    layer.insert("trace.overhead_pct", overhead * 100.0);
    println!(
        "trace: {} spans under {roots} roots written to {}",
        tr.spans().len(),
        path.display()
    );
    for (name, ns) in &b.self_ns {
        println!(
            "  self {name:<24} {:>12.1} us total over {:>6} spans",
            *ns as f64 / 1e3,
            b.count.get(name).copied().unwrap_or(roots as u64)
        );
    }
    println!(
        "  roots total {:.1} us; tracing overhead {:+.1}%",
        b.root_ns as f64 / 1e3,
        overhead * 100.0
    );
    Ok(())
}
