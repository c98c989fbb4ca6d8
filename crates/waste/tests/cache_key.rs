//! Stability contract for [`SimConfig::cache_key`]: semantically equal
//! configurations — whatever their source, key order, or how many
//! defaulted fields they spell out — must collide on one canonical hash,
//! and any semantic change must move it. `tenways serve` relies on this
//! to recognize repeat work; a false split only wastes a simulation, but
//! a false collision would serve the wrong record, so the "different"
//! half of the contract is the load-bearing one.

use tenways_waste::SimConfig;

/// A key is 64 lowercase hex chars (SHA-256).
fn well_formed(key: &str) -> bool {
    key.len() == 64
        && key
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())
}

#[test]
fn toml_json_and_builder_agree() {
    let toml =
        SimConfig::from_toml_str("workload = \"radix\"\nthreads = 4\nscale = 2\nseed = 11\n")
            .unwrap();
    let json =
        SimConfig::from_json_str(r#"{"workload": "radix", "threads": 4, "scale": 2, "seed": 11}"#)
            .unwrap();
    let built = SimConfig {
        workload: "radix".to_string(),
        threads: 4,
        scale: 2,
        seed: 11,
        ..SimConfig::default()
    };
    assert!(well_formed(&toml.cache_key()));
    assert_eq!(toml.cache_key(), json.cache_key());
    assert_eq!(toml.cache_key(), built.cache_key());
}

#[test]
fn key_order_is_irrelevant() {
    let a = SimConfig::from_json_str(r#"{"workload": "lu", "threads": 2, "scale": 3, "seed": 5}"#)
        .unwrap();
    let b = SimConfig::from_json_str(r#"{"seed": 5, "scale": 3, "threads": 2, "workload": "lu"}"#)
        .unwrap();
    assert_eq!(a.cache_key(), b.cache_key());
}

#[test]
fn explicit_defaults_hash_like_omitted_ones() {
    // Defaults spelled out field-by-field are the same configuration as
    // an empty overlay: normalization runs through one struct.
    let d = SimConfig::default();
    let spelled = SimConfig::from_toml_str(&format!(
        "workload = \"{}\"\nthreads = {}\nscale = {}\nseed = {}\nconflict = {}\ncycle_limit = {}\n",
        d.workload, d.threads, d.scale, d.seed, d.conflict, d.cycle_limit
    ))
    .unwrap();
    let empty = SimConfig::from_toml_str("").unwrap();
    assert_eq!(spelled.cache_key(), empty.cache_key());
    assert_eq!(empty.cache_key(), d.cache_key());
}

#[test]
fn flag_style_overlay_matches_file_style() {
    // The CLI overlays flags onto a loaded config; mutating the struct
    // the way `--seed 9` does must land on the same key as a file that
    // says `seed = 9`.
    let mut flagged = SimConfig::from_toml_str("workload = \"ocean\"\n").unwrap();
    flagged.seed = 9;
    let filed = SimConfig::from_toml_str("workload = \"ocean\"\nseed = 9\n").unwrap();
    assert_eq!(flagged.cache_key(), filed.cache_key());
}

#[test]
fn keys_are_pinned() {
    // Literal keys, not keys compared with each other: a key that moves
    // orphans every `results/cache/` entry and every serve disk tier.
    let pins = [
        (
            "",
            "a3fec8a1a60906fe34385fcd12326d5284590ee2f1da8c0a3cab0783f6ff2a78",
        ),
        (
            "workload = \"lu\"\nthreads = 2\nscale = 1\n",
            "2d4d92c6907b4ca0c6ef47daae4149f0ec706c1731c4db62328479dfdbd7978a",
        ),
        (
            "workload = \"contended\"\nthreads = 16\nconflict = 0.25\nmodel = \"sc\"\n\
             spec = \"per-store:12\"\natomics = \"schweizer\"\n\
             [machine]\nnoc_mesh = true\ndram_latency = 200\n\
             [protocol]\ngrant_exclusive = false\n",
            "075dce15aab7504fb06364ed49d56d2acc0099dbb37cb0233afe8da2f1a5bf45",
        ),
    ];
    for (toml, pinned) in pins {
        let key = SimConfig::from_toml_str(toml).unwrap().cache_key();
        assert_eq!(
            key, pinned,
            "the cache key of {toml:?} moved. A moved key orphans every \
             results/cache/ entry and every serve disk tier; only a deliberate \
             semantics bump (ROADMAP item 1) may update these pins"
        );
    }
}

#[test]
fn each_semantic_field_moves_the_key() {
    let base = SimConfig::default();
    let variants: Vec<(&str, SimConfig)> = vec![
        (
            "workload",
            SimConfig {
                workload: "lu".to_string(),
                ..base.clone()
            },
        ),
        (
            "threads",
            SimConfig {
                threads: base.threads + 1,
                ..base.clone()
            },
        ),
        (
            "scale",
            SimConfig {
                scale: base.scale + 1,
                ..base.clone()
            },
        ),
        (
            "seed",
            SimConfig {
                seed: base.seed + 1,
                ..base.clone()
            },
        ),
        (
            "cycle_limit",
            SimConfig {
                cycle_limit: base.cycle_limit - 1,
                ..base.clone()
            },
        ),
        ("machine.dram_latency", {
            let mut c = base.clone();
            c.machine.dram_latency += 10;
            c
        }),
        ("protocol.prefetch_next_line", {
            let mut c = base.clone();
            c.protocol.prefetch_next_line = !c.protocol.prefetch_next_line;
            c
        }),
    ];
    let base_key = base.cache_key();
    let mut keys = vec![base_key.clone()];
    for (field, cfg) in variants {
        let key = cfg.cache_key();
        assert_ne!(key, base_key, "changing {field} did not move the key");
        assert!(
            !keys.contains(&key),
            "{field} collided with another variant"
        );
        keys.push(key);
    }
}

#[test]
fn key_matches_canonical_json_rendering() {
    // The key is definitionally the SHA-256 of the canonical JSON bytes —
    // pin that so the disk format of `results/cache` stays stable.
    let cfg = SimConfig::default();
    let doc = cfg.canonical_json();
    assert_eq!(
        cfg.cache_key(),
        tenways_sim::sha256_hex(doc.to_string().as_bytes())
    );
    assert!(doc.get("sched").is_none(), "sched must be excluded");
    assert!(doc.get("workload").is_some());
}
