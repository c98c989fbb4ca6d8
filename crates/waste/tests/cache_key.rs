//! Stability contract for [`SimConfig::cache_key`]: semantically equal
//! configurations — whatever their source, key order, or how many
//! defaulted fields they spell out — must collide on one canonical hash,
//! and any semantic change must move it. `tenways serve` relies on this
//! to recognize repeat work; a false split only wastes a simulation, but
//! a false collision would serve the wrong record, so the "different"
//! half of the contract is the load-bearing one.

use tenways_core::SpecMode;
use tenways_cpu::ConsistencyModel;
use tenways_mem::{CacheParams, DramParams};
use tenways_sim::json::{Json, ToJson};
use tenways_sim::toml::parse_toml;
use tenways_sim::{canonical, sha256_hex, AtomicsConfig, DetRng, MachineConfig};
use tenways_sim::{MAX_DIR_BANKS, MAX_DRAM_BANKS, MAX_L1_SLOTS};
use tenways_waste::{Experiment, SimConfig, SEMANTICS_VERSION};
use tenways_workloads::WorkloadKind;

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
            "efcd19da1cd7b485894c6dc7ecf0626a0eacc3c53df2f931a8c4cbef2969f85b",
        ),
        (
            "workload = \"lu\"\nthreads = 2\nscale = 1\n",
            "5741bad07454e3f08c4d7c329f7909aeeaffdd7472ac6ab63ddf07a0584ef57e",
        ),
        (
            "workload = \"contended\"\nthreads = 16\nconflict = 0.25\nmodel = \"sc\"\n\
             spec = \"per-store:12\"\natomics = \"schweizer\"\n\
             [machine]\nnoc_mesh = true\ndram_latency = 200\n\
             [protocol]\ngrant_exclusive = false\n",
            "92c1495caa5b04f8d83ee9eb5b05427144f4d4de0a5b14c1145dfa55dde23f0a",
        ),
    ];
    for (toml, pinned) in pins {
        let key = SimConfig::from_toml_str(toml).unwrap().cache_key();
        assert_eq!(
            key, pinned,
            "the cache key of {toml:?} moved. A moved key orphans every \
             results/cache/ entry and every serve disk tier; only a deliberate \
             SEMANTICS_VERSION bump may update these pins"
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
    // The key is definitionally the SHA-256 of the semantics version and
    // the canonical JSON bytes — pin that so the disk format of
    // `results/cache` stays stable. The
    // tree path defines the form: the config's JSON tree with its keys
    // sorted at every level, rendered compact.
    let cfg = SimConfig::default();
    let doc = canonical(&cfg.to_json());
    assert_eq!(cfg.canonical_text(), doc.to_string());
    let versioned = [
        &SEMANTICS_VERSION.to_be_bytes()[..],
        doc.to_string().as_bytes(),
    ]
    .concat();
    assert_eq!(cfg.cache_key(), sha256_hex(&versioned));
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

#[test]
fn drawn_configs_decode_and_validate_without_panicking() {
    // Decoding a body into an experiment and validating its machine read
    // outside input: neither may panic on any drawn config. A machine
    // `validate` accepts must yield the cache and DRAM parameters
    // `Machine::new` builds from, inside the bounds on what it allocates
    // up front. Nothing is built or run here.
    let grid = grid_points(include_str!("../../../examples/sweep_grid.toml"));
    let drawn = (0..2_000).map(|i| draw_config(&mut DetRng::seed(0xdec0de).split_index(i)));
    let mut accepted = 0;
    for (i, cfg) in grid.into_iter().chain(drawn).enumerate() {
        for workload in [&cfg.workload, "lu", "oltp", "contended"] {
            let named = SimConfig {
                workload: workload.to_string(),
                ..cfg.clone()
            };
            let _ = Experiment::from_config(&named);
        }
        // The drawn machine as `Experiment::run` sizes it, then the
        // default machine with each drawn field alone, so a field that
        // only breaks a machine that is otherwise valid is reached too.
        let mut machines = vec![MachineConfig {
            cores: cfg.threads,
            ..cfg.machine.clone()
        }];
        for (field, value) in cfg.machine.to_json().as_object().unwrap() {
            let mut machine = MachineConfig::default();
            machine
                .apply_json(&Json::obj([(field.as_str(), value.clone())]))
                .unwrap();
            machines.push(machine);
        }
        for m in machines.iter().filter(|m| m.validate().is_ok()) {
            accepted += 1;
            let l1 = CacheParams::new(m.l1_sets, m.l1_ways);
            let dram = DramParams::new(m.dram_banks, m.dram_latency, m.dram_occupancy);
            assert!(l1.is_some() && dram.is_some(), "config {i}: {m:?}");
            let l1_slots = m
                .cores
                .checked_mul(m.l1_sets)
                .and_then(|n| n.checked_mul(m.l1_ways));
            assert!(
                l1_slots.is_some_and(|n| n <= MAX_L1_SLOTS),
                "config {i}: {m:?}"
            );
            assert!(m.dir_banks <= MAX_DIR_BANKS, "config {i}: {m:?}");
            assert!(m.dram_banks <= MAX_DRAM_BANKS, "config {i}: {m:?}");
        }
    }
    assert!(accepted > 2_000, "only {accepted} machines passed validate");
}

/// Every record the simulator gives at seed 7, 2 threads and scale 1:
/// `(workload, model, cycles, SHA-256 of RunRecord::fingerprint())` for
/// each kernel and `contended` under SC, TSO and RMO. One row a line,
/// as the test prints it when a record changes.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, &str)] = &[
    ("barnes", "sc", 8271, "3fb2c1efb2bb8b5c298286c8e65da7f48199c15968e2f793434d40e3783974b4"),
    ("barnes", "tso", 1487, "210bf11e9809e78a004c6b2330ebb547bad7fcec8f633c931234c285fb6bd9ec"),
    ("barnes", "rmo", 1749, "079620e7a0b5f2dacd7de3739abf46bd0ab2eebc3d56be48184a731fbaaed583"),
    ("ocean", "sc", 7939, "4b847e2f125b43b564486408c8b9c75fe7c9f4aa75b4135fa1d87044f16991ea"),
    ("ocean", "tso", 932, "9eaf7806de6e577c1a5c0759312e0a8adb0ed4dbf3bd3675a515f5c135839ed8"),
    ("ocean", "rmo", 804, "6fc88f5eee4deb9e899eb860c2f480083a8d37e4ca5de86c5d82cb7f2e8d5437"),
    ("radix", "sc", 3920, "f5567e11be6138f725a975205a240fbaba0398c0975e649fcded0617f0ff7a20"),
    ("radix", "tso", 2994, "8ca7c225a7821352af91ec6fbc8353e68b283b9c9b3cb4d5d39ada5677731f4c"),
    ("radix", "rmo", 2943, "9703617ce38672767a7bd54f60ca3d9388bb0ff8ba4b1951bd4f4a040dea5851"),
    ("lu", "sc", 1869, "042ebeed249d129d560ad0b8bce3470870baafb5814a8bb6bbf8de92b12fc033"),
    ("lu", "tso", 1619, "4d0ecd7cf7b2c5377d02ac99b1b7540558edf8b197c6e28db7991da28d2953b1"),
    ("lu", "rmo", 1513, "a66fd765bee79af7dd401f0ffc0957712f77ed99437fcd66d71b3bad67325730"),
    ("apache", "sc", 964, "81ba4223ac983d2d1e49caa59c9e8ebc0b5bcad4af03b901be65443aef2f7e5a"),
    ("apache", "tso", 528, "f9e9163b35b2821cb90e755481f194fc17599b9f5079dc8a331fdb9e61c338ee"),
    ("apache", "rmo", 523, "32d258efe0c56bebc26a5b0c83bf0f16441139f7d4d2daa5a2e771ede26c5794"),
    ("zeus", "sc", 1254, "2d0181fcfa0e066d985269659c580590446c219fb42d3b8e015983531ef8c1a8"),
    ("zeus", "tso", 569, "f8d0b47d212318647c78b917715a85a5607f4d3b82dec8f825a8d253f0c76c3b"),
    ("zeus", "rmo", 566, "2152487eb8782f6abf9610cd64a6eb9a63ac027bfa1e0d39d5eb3e9c11829075"),
    ("oltp", "sc", 2970, "ab3dd5ce0ce52c9ee9218376335b39c74a5919cc1b2d8e3b38f986dcf1829e44"),
    ("oltp", "tso", 2144, "83e5d3ef1dd15290fb69e321073b97e3ee627786d74d6d9bc69057f758328130"),
    ("oltp", "rmo", 1944, "ff5c1f12c91fad498e240ebf34ec0379bf6376534722e1f5d84c7f54ca20d0b1"),
    ("dss", "sc", 42709, "410bc84d2944e6079410e5115d6ee2df2187e31acae1326deb412613db63a030"),
    ("dss", "tso", 5601, "f65427382a9981278a5314c1d3cb04daca412a6a70350d9ec8ebea564f86c450"),
    ("dss", "rmo", 5601, "5fc63ba940d4e1d5f29956ea7bce5694e6bbdc3119a7f60d20e43b38e8b84c96"),
    ("mcs", "sc", 2276, "27ef18bf96aad0c9064fdf2ce8691cda21e9b8ea6a0b80a9b72cce257adc3d06"),
    ("mcs", "tso", 2472, "4c6de9433ffac7349911c58138419a7db5d83afe45f05baf363960b39ebf5621"),
    ("mcs", "rmo", 1648, "1e4dd79300283ff6f69402a682707305e71cbcd93683fa5ba57007a9c930fafa"),
    ("clh", "sc", 1726, "7842df716ddc0e310079838ed6c2c7a955d408735258bfb827f850bf7a7eb4a8"),
    ("clh", "tso", 1726, "bbf405101c23cb6e1d0bb00128f460192b3d130cd4f3450bc377bd1bcb1374f6"),
    ("clh", "rmo", 1726, "21205e163f786197520ca75ae0046bd5f63f57b59e9ee9de06c734784597bc2c"),
    ("rcu", "sc", 1035, "c50f4cce604709daa9b363b5b26589b4a51deabeff7c29b928c855087ff865ed"),
    ("rcu", "tso", 885, "fdade17c61b0cb29f064dadce348e122551eecc34c640f162487de065200dc9c"),
    ("rcu", "rmo", 885, "86c8fbbf599cadd5b3bbd5eeb86dcd5487520d5c937b4fc83b17715b9b8be108"),
    ("hazard", "sc", 740, "fbf2a3ac09b318ee78690709602bbdfb83931eb767a4cf9b172d6c834d9b4b0a"),
    ("hazard", "tso", 731, "2b4099f0bc7179427d6e6d217807f13a7a3a368946ef4a904dcc6b66a1a32bbd"),
    ("hazard", "rmo", 731, "d193efbcee8277fa5a4933bfffa9f4e12c691af3496a2776b5209ea3f9f0a627"),
    ("flatcomb", "sc", 1158, "8aeec9b5377d55d44f38d6217d8db6b5cdca8bc19b3d45e6bb5f1c1e663de783"),
    ("flatcomb", "tso", 972, "dd95c5cb9c774f4c1e18c864102d947b3539992a511d8d24743631fb68726b8b"),
    ("flatcomb", "rmo", 966, "b9ebdfde2a06a54786521516959ffc4df12d5d7274379d19d68cb8a170b7ed4c"),
    ("wsdeque", "sc", 1443, "88dab40b43947e6a439bccd1fa53118124ae6bbd0577eb5458a52f7751fd421b"),
    ("wsdeque", "tso", 1482, "7d7c18eebaf8947d3a3a0d7513fa6453aaea1747158b1ea3f73d195d0e198f8f"),
    ("wsdeque", "rmo", 1287, "2e1afa8ad181a20ab210b7b806d0857f33d11626639bd91e4af0e06047e28cf1"),
    ("contended", "sc", 9966, "c041db3f1700607d2c2878f98c03cc428fc81fa1b537770ad42fa552594b971e"),
    ("contended", "tso", 7239, "86099e0f2e63563c4270706d472f107fb93c20f569cc8ff0ca08a636b13734ea"),
    ("contended", "rmo", 7239, "4473cb9b12994399dbd5bb26f8abf1b247edb8d71e26dc350929100cdda9b801"),
];

#[test]
fn records_match_the_golden_table() {
    // A cache answers a key with the record it stored, so a change to
    // any record must move every key: bump SEMANTICS_VERSION, which this
    // table stands guard over.
    let workloads = WorkloadKind::all()
        .into_iter()
        .map(|k| k.name().to_string())
        .chain(["contended".to_string()]);
    let mut fresh = Vec::new();
    for workload in workloads {
        for model in ConsistencyModel::all() {
            let cfg = SimConfig {
                workload: workload.clone(),
                model,
                threads: 2,
                scale: 1,
                seed: 7,
                ..SimConfig::default()
            };
            let record = Experiment::from_config(&cfg).unwrap().run().unwrap();
            let model = cfg.model.label().to_ascii_lowercase();
            fresh.push(format!(
                "    ({workload:?}, {model:?}, {}, {:?}),",
                record.summary.cycles,
                sha256_hex(record.fingerprint().as_bytes())
            ));
        }
    }
    let golden: Vec<String> = GOLDEN
        .iter()
        .map(|(w, m, cycles, digest)| format!("    ({w:?}, {m:?}, {cycles}, {digest:?}),"))
        .collect();
    assert!(
        fresh == golden,
        "a record changed: bump SEMANTICS_VERSION (crates/waste/src/config.rs) \
         and the key pins above, then replace GOLDEN with the fresh table:\n{}",
        fresh.join("\n")
    );
}
