//! Contract tests for the machine-readable results: the JSON a benchmark
//! binary writes must validate against `results/schema/bench_rows.v1.json`,
//! and a serialized run record must validate against
//! `results/schema/run_record.v1.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use tenways_sim::json::{Json, ToJson};
use tenways_sim::validate_schema;
use tenways_waste::{Experiment, SimConfig};

fn repo_schema(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/schema")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()))
}

#[test]
fn run_record_matches_published_schema() {
    let cfg = SimConfig {
        threads: 2,
        scale: 1,
        ..SimConfig::default()
    };
    let record = Experiment::from_config(&cfg).unwrap().run().unwrap();
    let schema = repo_schema("run_record.v1.json");
    validate_schema(&record.to_json(), &schema).unwrap();
}

#[test]
fn serve_response_matches_published_schema() {
    let dir = std::env::temp_dir().join(format!("tenways-serve-schema-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = tenways_bench::SimService::new(tenways_bench::ServeOptions {
        workers: 1,
        cache_dir: dir.clone(),
        ..tenways_bench::ServeOptions::default()
    })
    .unwrap();
    let cfg = SimConfig {
        threads: 2,
        scale: 1,
        ..SimConfig::default()
    };
    let schema = repo_schema("serve_response.v4.json");
    let record_schema = repo_schema("run_record.v1.json");
    for _ in 0..2 {
        // Both the miss and the hit response must conform, and the
        // embedded record is itself a valid run_record.v1.
        let doc = Json::parse(&service.submit(&cfg).unwrap().to_response_json()).unwrap();
        validate_schema(&doc, &schema).unwrap();
        validate_schema(doc.get("record").unwrap(), &record_schema).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_response_matches_published_schema() {
    let dir = std::env::temp_dir().join(format!("tenways-batch-schema-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = tenways_bench::SimService::new(tenways_bench::ServeOptions {
        workers: 2,
        cache_dir: dir.clone(),
        ..tenways_bench::ServeOptions::default()
    })
    .unwrap();
    let ok = SimConfig {
        threads: 2,
        scale: 1,
        ..SimConfig::default()
    };
    let dup = ok.clone();
    let other = SimConfig {
        threads: 2,
        scale: 2,
        ..SimConfig::default()
    };
    let bad = SimConfig {
        workload: "no-such-kernel".to_string(),
        ..ok.clone()
    };
    let report = service.submit_batch(&[
        ("a".to_string(), ok),
        ("a-again".to_string(), dup),
        ("b".to_string(), other),
        ("broken".to_string(), bad),
    ]);
    let doc = Json::parse(&report.to_response_json()).unwrap();
    validate_schema(&doc, &repo_schema("serve_batch.v1.json")).unwrap();
    // Duplicate keys collapse, the bad config reports failed, and every
    // embedded record is itself a valid run_record.v1.
    assert_eq!(doc.get("total").and_then(Json::as_u64), Some(4));
    assert_eq!(doc.get("unique").and_then(Json::as_u64), Some(3));
    assert_eq!(doc.get("deduplicated").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
    let record_schema = repo_schema("run_record.v1.json");
    for item in doc.get("results").and_then(Json::as_array).unwrap() {
        if let Some(record) = item.get("record") {
            validate_schema(record, &record_schema).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cluster_stats_match_published_schema() {
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // Two live in-process backends behind a Router: the aggregated
    // /stats document is the serve_cluster_stats.v2 contract.
    let mut backends = Vec::new();
    for i in 0..2 {
        let dir =
            std::env::temp_dir().join(format!("tenways-cluster-schema-{i}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Arc::new(
            tenways_bench::SimService::new(tenways_bench::ServeOptions {
                workers: 1,
                cache_dir: dir.clone(),
                ..tenways_bench::ServeOptions::default()
            })
            .unwrap(),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                tenways_bench::serve_http_shutdown(service, listener, None, false, shutdown)
            })
        };
        backends.push((addr, shutdown, Some(thread), dir));
    }
    let router = tenways_bench::Router::new(tenways_bench::RouterOptions {
        backends: backends.iter().map(|(addr, ..)| addr.clone()).collect(),
    })
    .unwrap();

    let doc = router.cluster_stats_json();
    validate_schema(
        &doc,
        &repo_schema(tenways_bench::SERVE_CLUSTER_STATS_SCHEMA),
    )
    .unwrap();
    assert_eq!(
        doc.get("cluster")
            .and_then(|c| c.get("backends_up"))
            .and_then(Json::as_u64),
        Some(2)
    );

    // A down backend embeds `stats: null` and the document still
    // validates (the schema must not demand live stats).
    backends[0].1.store(true, Ordering::Relaxed);
    if let Some(thread) = backends[0].2.take() {
        thread.join().unwrap().unwrap();
    }
    let doc = router.cluster_stats_json();
    validate_schema(
        &doc,
        &repo_schema(tenways_bench::SERVE_CLUSTER_STATS_SCHEMA),
    )
    .unwrap();

    drop(router);
    for (_, shutdown, thread, dir) in backends {
        shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = thread {
            thread.join().unwrap().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fig_binary_emits_schema_conforming_json() {
    let out_dir: PathBuf =
        std::env::temp_dir().join(format!("tenways-schema-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);

    let status = Command::new(env!("CARGO_BIN_EXE_fig1_waste_taxonomy"))
        .env("TENWAYS_FAST", "1")
        .env("TENWAYS_THREADS", "2")
        .env("TENWAYS_SCALE", "1")
        .env("TENWAYS_RESULTS_DIR", &out_dir)
        .env_remove("TENWAYS_CONFIG")
        .status()
        .expect("fig1 binary runs");
    assert!(status.success(), "fig1 exited with {status}");

    let path = out_dir.join("fig1_waste_taxonomy.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fig1 wrote no results at {}: {e}", path.display()));
    let doc = Json::parse(&text).expect("results file is valid JSON");
    let schema = repo_schema("bench_rows.v1.json");
    validate_schema(&doc, &schema).unwrap();

    // The run config embedded in the file reflects the environment the
    // binary actually ran under.
    let threads = doc
        .get("config")
        .and_then(|c| c.get("threads"))
        .and_then(Json::as_u64);
    assert_eq!(threads, Some(2));
    let rows = doc.get("rows").and_then(Json::as_array).unwrap();
    assert!(!rows.is_empty(), "fig1 emitted no rows");

    let _ = std::fs::remove_dir_all(&out_dir);
}
