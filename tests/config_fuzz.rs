//! Config fuzzing: seeded mutations of valid `ModelConfig` JSON, sent
//! through `FromJson → validate → run`.
//!
//! Each case starts from Table 1 or one of the `configs/sample_batch.json`
//! entries (horizon cut to [`TMAX`]) and applies one to three mutations:
//! a deleted key, a value of the wrong JSON type, an unknown or wrong-case
//! enum name, an edge-case number, or a swap of `size`, `hot_spot`,
//! `hierarchy` or `conflict` to another variant. Invalid documents must
//! come back as `Err`; valid ones inside the run caps must run to the
//! horizon, and debug builds check each run's metrics for consistency.
//! Nothing may panic. A failure names its case number, which alone
//! reproduces the input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lockgran::prelude::*;
use lockgran::sim::{json, FromJson, Json, SimRng, ToJson};

const CASES: u64 = 1000;

/// Horizon of every seed document.
const TMAX: f64 = 200.0;

/// One step of a path into a JSON document.
#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

fn case_rng(test: &str, case: u64) -> SimRng {
    SimRng::new(0x5EED).split(test).split_index(case)
}

fn pick<'a, T>(rng: &mut SimRng, items: &'a [T]) -> &'a T {
    &items[rng.uniform_inclusive(0, items.len() as u64 - 1) as usize]
}

/// Table 1 and the sample batch entries, each with `tmax` set to
/// [`TMAX`]. The batch entries keep their omitted optional keys omitted.
fn seed_documents() -> Vec<Json> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/sample_batch.json");
    let text = std::fs::read_to_string(path).expect("read sample batch");
    let batch = json::parse(&text).expect("sample batch parses");
    let mut docs = vec![ModelConfig::table1().to_json()];
    docs.extend(batch.as_array().expect("batch is an array").iter().cloned());
    for doc in &mut docs {
        *node_mut(doc, &[Step::Key("tmax".into())]) = Json::Float(TMAX);
    }
    docs
}

/// Every non-root node of `doc`, as a path from the root.
fn paths(doc: &Json, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    let children: Vec<(Step, &Json)> = match doc {
        Json::Object(fields) => fields
            .iter()
            .map(|(k, v)| (Step::Key(k.clone()), v))
            .collect(),
        Json::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| (Step::Index(i), v))
            .collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        prefix.push(step);
        out.push(prefix.clone());
        paths(child, prefix, out);
        prefix.pop();
    }
}

fn node<'a>(doc: &'a Json, path: &[Step]) -> &'a Json {
    path.iter().fold(doc, |node, step| match step {
        Step::Key(k) => &node[k.as_str()],
        Step::Index(i) => &node[*i],
    })
}

fn node_mut<'a>(doc: &'a mut Json, path: &[Step]) -> &'a mut Json {
    path.iter().fold(doc, |node, step| match (node, step) {
        (Json::Object(fields), Step::Key(k)) => {
            let at = fields.iter().position(|(name, _)| name == k);
            match at {
                Some(i) => &mut fields[i].1,
                None => {
                    fields.push((k.clone(), Json::Null));
                    &mut fields.last_mut().expect("just pushed").1
                }
            }
        }
        (Json::Array(items), Step::Index(i)) => &mut items[*i],
        (node, step) => panic!("path step {step:?} does not fit {node}"),
    })
}

fn same_type(a: &Json, b: &Json) -> bool {
    let number = |j: &Json| matches!(j, Json::Int(_) | Json::Float(_));
    std::mem::discriminant(a) == std::mem::discriminant(b) || (number(a) && number(b))
}

/// The wire names of one enum's variants.
fn wire_names<T: ToJson>(all: &[T]) -> Vec<String> {
    all.iter()
        .map(|v| v.to_json().as_str().expect("unit variant").to_string())
        .collect()
}

/// Apply one random mutation to `doc`.
fn mutate(rng: &mut SimRng, doc: &mut Json) {
    let mut all = Vec::new();
    paths(doc, &mut Vec::new(), &mut all);
    match rng.uniform_inclusive(0, 4) {
        // Delete a key, at any depth.
        0 => {
            let keyed: Vec<&Vec<Step>> = all
                .iter()
                .filter(|p| matches!(p.last(), Some(Step::Key(_))))
                .collect();
            let (last, parent) = pick(rng, &keyed).split_last().expect("non-root path");
            if let (Step::Key(key), Json::Object(fields)) = (last, node_mut(doc, parent)) {
                fields.retain(|(k, _)| k != key);
            }
        }
        // Give a node a value of another JSON type.
        1 => {
            let path = pick(rng, &all).clone();
            let node = node_mut(doc, &path);
            let others: Vec<Json> = [
                Json::Null,
                Json::Bool(true),
                Json::Int(7),
                Json::Str("x".into()),
                Json::Array(vec![]),
                Json::Object(vec![]),
            ]
            .into_iter()
            .filter(|j| !same_type(j, node))
            .collect();
            *node = pick(rng, &others).clone();
        }
        // An unknown or wrong-case enum name.
        2 => {
            let (key, wires) = match rng.uniform_inclusive(0, 5) {
                0 => ("placement", wire_names(&Placement::ALL)),
                1 => ("partitioning", wire_names(&Partitioning::ALL)),
                2 => ("conflict", wire_names(&ConflictMode::ALL)),
                3 => ("lock_distribution", wire_names(&LockDistribution::ALL)),
                4 => ("service", wire_names(&ServiceVariability::ALL)),
                _ => ("discipline", wire_names(&QueueDiscipline::ALL)),
            };
            let wire = pick(rng, &wires);
            let name = match rng.uniform_inclusive(0, 2) {
                0 => "Bogus".to_string(),
                1 => wire.to_ascii_lowercase(),
                _ => wire.to_ascii_uppercase(),
            };
            *node_mut(doc, &[Step::Key(key.into())]) = Json::Str(name);
        }
        // An edge-case number, wherever a number sits.
        3 => {
            let numeric: Vec<&Vec<Step>> = all
                .iter()
                .filter(|p| matches!(node(doc, p), Json::Int(_) | Json::Float(_)))
                .collect();
            if numeric.is_empty() {
                return;
            }
            let path = (*pick(rng, &numeric)).clone();
            let dbsize = doc["dbsize"].as_i64().unwrap_or(5000);
            let value = pick(
                rng,
                &[
                    Json::Int(0),
                    Json::Int(1),
                    Json::Int(-1),
                    Json::Float(0.5),
                    Json::Int(1 << 53),
                    Json::Int(1_000_000_000_000_000_000),
                    Json::Int(dbsize),
                    Json::Int(dbsize.saturating_add(1)),
                ],
            )
            .clone();
            *node_mut(doc, &path) = value;
        }
        // Swap a data-carrying key to another of its variants.
        _ => {
            let key = *pick(rng, &["size", "hot_spot", "hierarchy", "conflict"]);
            let variants = match key {
                "size" => vec![
                    SizeDistribution::Uniform { max: 500 }.to_json(),
                    SizeDistribution::Fixed { size: 50 }.to_json(),
                    SizeDistribution::eighty_twenty().to_json(),
                    SizeDistribution::Trace {
                        sizes: vec![1, 50, 500],
                    }
                    .to_json(),
                ],
                "hot_spot" => vec![Json::Null, HotSpot::eighty_twenty().to_json()],
                "hierarchy" => vec![
                    Json::Null,
                    HierarchySpec::default().to_json(),
                    HierarchySpec::default()
                        .with_areas(4)
                        .with_escalation_threshold(Some(2))
                        .to_json(),
                ],
                _ => ConflictMode::ALL.iter().map(ToJson::to_json).collect(),
            };
            *node_mut(doc, &[Step::Key(key.into())]) = pick(rng, &variants).clone();
        }
    }
}

/// Whether a valid config is small enough to run in a test.
fn within_run_caps(cfg: &ModelConfig) -> bool {
    cfg.ntrans <= 200 && cfg.npros <= 64 && cfg.size.max() <= 5_000 && cfg.tmax <= TMAX
}

/// Parse, validate and (when within the caps) run one document; `Ok`
/// says whether it ran.
fn exercise(doc: &Json, seed: u64) -> Result<bool, String> {
    let reparsed = json::parse(&doc.pretty()).map_err(|e| format!("emitted JSON: {e}"))?;
    let cfg = ModelConfig::from_json(&reparsed)?;
    cfg.validate()?;
    if !within_run_caps(&cfg) {
        return Ok(false);
    }
    let m = run(&cfg, seed);
    assert!(m.throughput.is_finite(), "throughput {}", m.throughput);
    Ok(true)
}

/// No mutated document panics anywhere between its text and its
/// metrics; invalid ones are rejected with an error.
#[test]
fn mutated_configs_fail_cleanly_or_run() {
    let seeds = seed_documents();
    let (mut rejected, mut ran) = (0, 0);
    for case in 0..CASES {
        let mut rng = case_rng("mutated_configs_fail_cleanly_or_run", case);
        let mut doc = pick(&mut rng, &seeds).clone();
        for _ in 0..rng.uniform_inclusive(1, 3) {
            mutate(&mut rng, &mut doc);
        }
        let seed = rng.uniform_inclusive(0, 999);
        match catch_unwind(AssertUnwindSafe(|| exercise(&doc, seed))) {
            Ok(Ok(true)) => ran += 1,
            Ok(Ok(false)) => {}
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("case {case} panicked on {doc}"),
        }
    }
    // The mix must exercise both sides of the contract.
    assert!(rejected > CASES / 2, "only {rejected} rejected");
    assert!(ran > CASES / 20, "only {ran} ran");
}

/// Extreme but valid configurations run to the horizon under every
/// conflict model.
#[test]
fn extreme_valid_corners_run() {
    let big = 1_000_000_000_000_000_000u64;
    let base = ModelConfig::table1().with_tmax(TMAX);
    let mut zero_overhead = base.clone();
    zero_overhead.lcputime = 0.0;
    zero_overhead.liotime = 0.0;
    let mut huge = base.clone();
    huge.dbsize = big;
    let corners = [
        ("ltot = dbsize", base.clone().with_ltot(base.dbsize)),
        ("ntrans = 1", base.clone().with_ntrans(1)),
        ("zero lock overhead", zero_overhead),
        ("dbsize = ltot = 10^18", huge.with_ltot(big)),
    ];
    for (name, corner) in corners {
        for conflict in ConflictMode::ALL {
            for placement in Placement::ALL {
                let cfg = corner
                    .clone()
                    .with_conflict(conflict)
                    .with_placement(placement);
                assert_eq!(cfg.validate(), Ok(()), "{name}, {conflict}, {placement}");
                let doc = cfg.to_json();
                let ran = catch_unwind(AssertUnwindSafe(|| exercise(&doc, 7)));
                assert!(
                    matches!(ran, Ok(Ok(true))),
                    "{name}, {conflict}, {placement}: {ran:?}"
                );
            }
        }
    }
}
