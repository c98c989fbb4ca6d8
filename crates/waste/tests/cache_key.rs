//! Stability contract for [`SimConfig::cache_key`]: semantically equal
//! configurations — whatever their source, key order, or how many
//! defaulted fields they spell out — must collide on one canonical hash,
//! and any semantic change must move it. `tenways serve` relies on this
//! to recognize repeat work; a false split only wastes a simulation, but
//! a false collision would serve the wrong record, so the "different"
//! half of the contract is the load-bearing one.

use tenways_core::SpecMode;
use tenways_cpu::ConsistencyModel;
use tenways_sim::json::{Json, ToJson};
use tenways_sim::toml::parse_toml;
use tenways_sim::{canonical, AtomicsConfig, DetRng};
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
    // pin that so the disk format of `results/cache` stays stable. The
    // tree path defines the form: the config's JSON tree with its keys
    // sorted at every level, rendered compact.
    let cfg = SimConfig::default();
    let doc = canonical(&cfg.to_json());
    assert_eq!(cfg.canonical_text(), doc.to_string());
    assert_eq!(
        cfg.cache_key(),
        tenways_sim::sha256_hex(doc.to_string().as_bytes())
    );
    assert!(doc.get("sched").is_none(), "sched must be excluded");
    assert!(doc.get("workload").is_some());
}

/// Every point of a sweep grid file: its base config with each
/// combination of the `[grid]` axis values overlaid (a dotted axis name
/// reaches into a section).
fn grid_points(text: &str) -> Vec<SimConfig> {
    let doc = parse_toml(text).unwrap();
    let base: Vec<(String, Json)> = doc
        .as_object()
        .unwrap()
        .iter()
        .filter(|(k, _)| k != "sweep" && k != "grid")
        .cloned()
        .collect();
    let mut points = vec![SimConfig::default()];
    points[0].apply_json(&Json::Obj(base)).unwrap();
    for (axis, values) in doc.get("grid").and_then(Json::as_object).unwrap() {
        points = points
            .iter()
            .flat_map(|point| {
                values.as_array().unwrap().iter().map(move |v| {
                    let overlay = axis
                        .rsplit('.')
                        .fold(v.clone(), |inner, part| Json::obj([(part, inner)]));
                    let mut next = point.clone();
                    next.apply_json(&overlay).unwrap();
                    next
                })
            })
            .collect();
    }
    points
}

/// A float from every class the writer treats differently: non-finite
/// (rendered `null`), signed zeros, arbitrary bit patterns (subnormals,
/// huge exponents) and ordinary values. `finite` leaves out the first.
fn draw_f64(rng: &mut DetRng, finite: bool) -> f64 {
    let v = match rng.below(8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::from_bits(rng.next_u64()),
        5 => f64::from_bits(rng.next_u64() >> 12),
        6 => rng.unit_f64() * 1e3,
        _ => rng.below(1_000) as f64 / 8.0,
    };
    if finite && !v.is_finite() {
        0.25
    } else {
        v
    }
}

fn draw_u64(rng: &mut DetRng) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next_u64(),
        _ => rng.below(1_000),
    }
}

/// A workload string built from pieces that need every kind of escape,
/// multi-byte characters, and plain kernel names.
fn draw_workload(rng: &mut DetRng) -> String {
    const PIECES: &[&str] = &[
        "lu",
        "oltp",
        "contended",
        "\"",
        "\\",
        "/",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "日本",
        "🎉",
        " ",
    ];
    (0..rng.below(6))
        .map(|_| *rng.choose(PIECES).unwrap())
        .collect()
}

/// A config with every field of every section drawn. Atomics stay valid
/// (monotone tiers within the latency cap), as any decodable config's do.
fn draw_config(rng: &mut DetRng) -> SimConfig {
    let finite = rng.chance(0.5);
    let mut cfg = SimConfig {
        workload: draw_workload(rng),
        threads: draw_u64(rng) as usize,
        scale: draw_u64(rng),
        seed: draw_u64(rng),
        conflict: draw_f64(rng, finite),
        model: *rng.choose(&ConsistencyModel::all()).unwrap(),
        cycle_limit: draw_u64(rng),
        ..SimConfig::default()
    };
    let s = &mut cfg.spec;
    s.mode = *rng
        .choose(&[SpecMode::Disabled, SpecMode::OnDemand, SpecMode::Continuous])
        .unwrap();
    s.commit_interval = draw_u64(rng);
    s.max_spec_stores = rng.chance(0.5).then(|| draw_u64(rng));
    s.max_epoch_ops = draw_u64(rng);
    s.adaptive_backoff = rng.chance(0.5);
    let m = &mut cfg.machine;
    for field in [
        &mut m.cores,
        &mut m.l1_sets,
        &mut m.l1_ways,
        &mut m.dir_banks,
        &mut m.dram_banks,
        &mut m.noc_inject_bw,
        &mut m.noc_accept_bw,
        &mut m.rob_entries,
        &mut m.sb_entries,
        &mut m.width,
        &mut m.mshrs,
    ] {
        *field = draw_u64(rng) as usize;
    }
    for field in [
        &mut m.l1_hit_latency,
        &mut m.dir_latency,
        &mut m.dram_latency,
        &mut m.dram_occupancy,
        &mut m.noc_latency,
    ] {
        *field = draw_u64(rng);
    }
    m.block_bytes = draw_u64(rng) as u32;
    m.noc_mesh = rng.chance(0.5);
    cfg.protocol.grant_exclusive = rng.chance(0.5);
    cfg.protocol.prefetch_next_line = rng.chance(0.5);
    let cap = AtomicsConfig::MAX_LATENCY + 1;
    let mut tiers = [rng.below(cap), rng.below(cap), rng.below(cap)];
    tiers.sort_unstable();
    cfg.atomics = AtomicsConfig {
        rmw_l1: tiers[0],
        rmw_same_socket: tiers[1],
        rmw_cross_socket: tiers[2],
        fence_full: rng.below(cap),
        fence_oneway: rng.below(cap),
    };
    let e = &mut cfg.energy;
    for field in [
        &mut e.l1_access_nj,
        &mut e.l2_access_nj,
        &mut e.dram_access_nj,
        &mut e.noc_msg_nj,
        &mut e.core_busy_cycle_nj,
        &mut e.core_static_cycle_nj,
    ] {
        *field = draw_f64(rng, finite);
    }
    cfg
}

fn all_finite(cfg: &SimConfig) -> bool {
    let e = &cfg.energy;
    [
        cfg.conflict,
        e.l1_access_nj,
        e.l2_access_nj,
        e.dram_access_nj,
        e.noc_msg_nj,
        e.core_busy_cycle_nj,
        e.core_static_cycle_nj,
    ]
    .iter()
    .all(|v| v.is_finite())
}

#[test]
fn canonical_text_equals_the_tree_oracle_and_reads_back() {
    // Keys must not move when the text stops going through the tree, and
    // the router forwards this text, so a backend must decode it back to
    // the config it came from.
    const DRAWN: u64 = 2_000;
    let grid = grid_points(include_str!("../../../examples/sweep_grid.toml"));
    assert_eq!(grid.len(), 16, "the example grid's point count");
    let drawn = (0..DRAWN).map(|i| draw_config(&mut DetRng::seed(0xca11).split_index(i)));
    let mut read_back = 0;
    for (i, cfg) in grid.into_iter().chain(drawn).enumerate() {
        let text = cfg.canonical_text();
        assert_eq!(
            text,
            canonical(&cfg.to_json()).to_string(),
            "config {i}: {cfg:?}"
        );
        if all_finite(&cfg) {
            assert_eq!(
                SimConfig::from_json_str(&text).as_ref(),
                Ok(&cfg),
                "config {i}"
            );
            read_back += 1;
        }
    }
    assert!(read_back > DRAWN / 3, "only {read_back} configs read back");
}
