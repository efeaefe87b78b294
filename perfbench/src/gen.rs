//! Seeded input generation. Everything a workload feeds the program is
//! built here from the benchmark seed alone: the same seed gives the same
//! scenario list, stream spec and request list, byte for byte.

use mdx_campaign::{enumerate_scenarios, CampaignConfig, Scenario, Workload, WorkloadKind};
use mdx_serve::Request;

/// Schemes of the fault sweep: the paper's scheme, its two broken foils,
/// and the 2-VC `o1turn` comparator (the engine's multi-lane path).
pub const SWEEP_SCHEMES: [&str; 4] = ["sr2201", "separate-dxb", "naive-broadcast", "o1turn"];
/// Campaign seeds per sweep cell.
pub const SWEEP_SEEDS: u64 = 2;
/// The paper's full machine: 16 x 16 x 8 = 2048 PEs.
pub const STREAM_SHAPE: [u16; 3] = [16, 16, 8];
/// Closed-loop clients of the serve mix; each waits for its reply. Capped
/// at the core count so the load generator never outnumbers the cores.
pub fn serve_clients() -> usize {
    2.min(crate::threads())
}
/// Worker threads of the serve mix's `Server`.
pub const SERVE_WORKERS: usize = 2;
/// Requests per serve-mix pass.
pub const SERVE_REQUESTS: usize = 2400;
/// Distinct `run` tokens the serve mix draws from; larger than the
/// default cache capacity (256), so the cache evicts.
pub const SERVE_POOL: usize = 640;
/// Zipf exponent of `run` token reuse: rank `r` has weight
/// `(r + 1)^-SERVE_ZIPF`. No request log of a resident server exists to
/// measure it from, so it is assumed. 1.0 is the value Cunha, Bestavros
/// and Crovella measured on per-client web request traces ("Characteristics
/// of WWW Client-based Traces", BU-CS-95-010, 1995: 0.98); proxy traces
/// shared by many clients show flatter reuse (Breslau et al., INFOCOM
/// 1999: 0.64-0.83). The serve mix has few clients, so it takes the
/// per-client value.
pub const SERVE_ZIPF: f64 = 1.0;

/// SplitMix64: a tiny seedable generator, so inputs depend on nothing but
/// the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_4000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// The 64-PE certification sweep: fault-free plus every single fault,
/// storm and detour workloads, [`SWEEP_SEEDS`] campaign seeds per cell.
///
/// Campaign seed `k` of benchmark seed `n` is `28n + n % 14 + 14k`, and
/// the detour offset follows it exactly as the enumerator derives it
/// (`10 + seed % 28`): every benchmark seed sweeps one offset below 24 and
/// one at 24 or above, so seeds differ in their arbitration and offsets
/// but not in the kind of work.
pub fn sweep_scenarios(seed: u64) -> Vec<Scenario> {
    let cfg = CampaignConfig {
        shape: vec![4, 4, 4],
        schemes: SWEEP_SCHEMES.iter().map(|s| s.to_string()).collect(),
        max_faults: 1,
        seeds: SWEEP_SEEDS,
        workloads: vec![WorkloadKind::Storm, WorkloadKind::Detour],
        ..CampaignConfig::default()
    };
    let mut scenarios = enumerate_scenarios(&cfg).expect("the sweep grid is valid");
    let base = seed.wrapping_mul(28).wrapping_add(seed % 14);
    for s in &mut scenarios {
        s.seed = base.wrapping_add(14 * s.seed);
        if let Workload::DetourStress { offset, .. } = &mut s.workload {
            *offset = 10 + s.seed % 28;
        }
    }
    scenarios
}

/// The 2048-PE open-loop stream: uniform 2% load, a 4% phase, then drain.
pub fn stream_spec_text(seed: u64) -> String {
    format!(
        "seed {seed}\nflits 8\nphase 0..1500 uniform rate=0.02\n\
         phase 1500..2000 uniform rate=0.04\nhorizon 2500\n"
    )
}

/// One serve-mix request slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    /// A well-formed request; it must not come back as an error.
    Request(Box<Request>),
    /// A line that is not a valid request; it must come back as an error.
    Malformed(&'static str),
    /// `postmortem` for the client's latest freshly simulated deadlock row,
    /// or `stats` while the client has seen none.
    PostmortemOrStats,
}

/// Lines that are not valid requests; each must be answered with an error.
const MALFORMED: [&str; 6] = [
    "this is not json",
    "{\"cmd\":\"run\",\"token\":",
    "{\"id\":7}",
    "{\"cmd\":\"frobnicate\"}",
    "{\"cmd\":\"run\",\"token\":\"MDX1.bogus\"}",
    "{\"cmd\":\"spec\",\"spec\":\"phase oops\"}",
];

/// The seeded serve-mix request list (see the benchmark README for the
/// mix and why).
///
/// The seed varies every input but not the shape of the mix: the count of
/// each request kind, the multiset of popularity ranks the `run` requests
/// draw, the share of each scheme and workload in the token pool, and the
/// spread of stream loads are the same for every seed. Only which token
/// holds which rank, fault sites, arbitration seeds, stream details and
/// the order of requests move with it — so a seed changes the inputs, not
/// the amount of work.
pub fn serve_requests(seed: u64) -> Vec<Slot> {
    let mut rng = Rng::new(seed);
    let pool = serve_pool(&mut rng, seed);
    // The shares are assumed, not measured; the README gives the reason
    // for each.
    let runs = SERVE_REQUESTS * 82 / 100;
    let specs = SERVE_REQUESTS * 10 / 100;
    let verbs = SERVE_REQUESTS * 4 / 100;
    let malformed = SERVE_REQUESTS - runs - specs - verbs;

    // Zipf reuse: rank r has weight (r+1)^-SERVE_ZIPF; the k-th run
    // request takes the rank at quantile (k + 1/2) / runs of that
    // distribution.
    let mut cdf = Vec::with_capacity(pool.len());
    let mut acc = 0.0;
    for r in 0..pool.len() {
        acc += (r as f64 + 1.0).powf(-SERVE_ZIPF);
        cdf.push(acc);
    }
    let mut slots: Vec<Slot> = Vec::with_capacity(SERVE_REQUESTS);
    for k in 0..runs {
        let x = (k as f64 + 0.5) / runs as f64 * acc;
        let r = cdf.partition_point(|&c| c < x).min(pool.len() - 1);
        slots.push(Slot::Request(Box::new(Request::run(&pool[r]))));
    }
    // Streams are mostly unique: two in three are new, every third
    // repeats one of the new ones.
    let unique = specs - specs / 3;
    let mut streams = Vec::with_capacity(specs);
    for k in 0..unique {
        let rate = 0.01 + 0.03 * (k as f64 + 0.5) / unique as f64;
        streams.push(Request {
            cmd: "spec".to_string(),
            spec: Some(storm_spec(&mut rng, rate, k as u64 % 2)),
            shape: Some(vec![8, 8]),
            seed: Some(rng.range(0, 1 << 20)),
            ..Request::default()
        });
    }
    for k in unique..specs {
        streams.push(streams[(k * 2) % unique].clone());
    }
    slots.extend(streams.into_iter().map(|r| Slot::Request(Box::new(r))));
    for k in 0..verbs {
        slots.push(match k % 3 {
            0 => Slot::Request(Box::new(Request {
                cmd: "stats".to_string(),
                ..Request::default()
            })),
            1 => Slot::Request(Box::new(Request {
                cmd: "metrics".to_string(),
                ..Request::default()
            })),
            _ => Slot::PostmortemOrStats,
        });
    }
    for k in 0..malformed {
        slots.push(Slot::Malformed(MALFORMED[k % MALFORMED.len()]));
    }
    shuffle(&mut slots, &mut rng);
    // Correlation ids follow list order.
    for (i, slot) in slots.iter_mut().enumerate() {
        if let Slot::Request(req) = slot {
            req.id = Some(i as u64);
        }
    }
    slots
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.range(0, i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// [`SERVE_POOL`] distinct 64-PE tokens: the three campaign schemes times
/// the storm and detour workloads, fault-free and single-fault rows, so
/// the pool holds deadlocking `naive-broadcast` rows too. Ranks go round
/// the six scheme-workload classes in turn, so every class holds the same
/// share of popular and unpopular ranks; within a class the seed picks and
/// orders the fault sets, and every token's arbitration seed is `seed`.
fn serve_pool(rng: &mut Rng, seed: u64) -> Vec<String> {
    let cfg = CampaignConfig {
        shape: vec![4, 4, 4],
        max_faults: 1,
        seeds: 1,
        workloads: vec![WorkloadKind::Storm, WorkloadKind::Detour],
        ..CampaignConfig::default()
    };
    let mut classes: Vec<Vec<Scenario>> = Vec::new();
    for mut s in enumerate_scenarios(&cfg).expect("the pool grid is valid") {
        s.seed = seed;
        let class = (s.scheme.clone(), s.workload.kind());
        match classes
            .iter_mut()
            .find(|c| (c[0].scheme.clone(), c[0].workload.kind()) == class)
        {
            Some(c) => c.push(s),
            None => classes.push(vec![s]),
        }
    }
    for c in &mut classes {
        shuffle(c, rng);
    }
    (0..SERVE_POOL)
        .map(|r| classes[r % classes.len()][r / classes.len()].token())
        .collect()
}

/// A unique 8x8 stream at injection `rate` with one crossbar of dimension
/// `dim` failing at cycle 150 and repaired at 300, so the live
/// reconfiguration epoch protocol runs twice.
fn storm_spec(rng: &mut Rng, rate: f64, dim: u64) -> String {
    let line = rng.range(0, 8);
    format!(
        "seed {}\nflits 4\nphase 0..400 uniform rate={rate:.4}\n\
         storm 150 xbar:{dim}:{line}\nstorm 300 repair xbar:{dim}:{line}\nhorizon 900\n",
        rng.range(0, 1 << 20)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve list as the bytes the clients send.
    fn serve_bytes(seed: u64) -> String {
        serve_requests(seed)
            .iter()
            .map(|s| match s {
                Slot::Request(r) => serde_json::to_string(r).expect("request serializes"),
                Slot::Malformed(line) => line.to_string(),
                Slot::PostmortemOrStats => "postmortem-or-stats".to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let tokens =
            |seed| -> Vec<String> { sweep_scenarios(seed).iter().map(Scenario::token).collect() };
        assert_eq!(tokens(3), tokens(3));
        assert_ne!(tokens(3), tokens(4));
        assert_eq!(serve_bytes(3), serve_bytes(3));
        assert_ne!(serve_bytes(3), serve_bytes(4));
        assert_eq!(stream_spec_text(3), stream_spec_text(3));
        assert_ne!(stream_spec_text(3), stream_spec_text(4));
    }

    #[test]
    fn serve_mix_shape_is_the_same_for_every_seed() {
        let kinds = |seed| {
            let mut counts = std::collections::BTreeMap::new();
            for s in serve_requests(seed) {
                let kind = match s {
                    Slot::Request(r) => r.cmd,
                    Slot::Malformed(_) => "malformed".to_string(),
                    Slot::PostmortemOrStats => "postmortem-or-stats".to_string(),
                };
                *counts.entry(kind).or_insert(0) += 1;
            }
            counts
        };
        let one = kinds(1);
        assert_eq!(one, kinds(2));
        for k in [
            "run",
            "spec",
            "stats",
            "metrics",
            "malformed",
            "postmortem-or-stats",
        ] {
            assert!(one.get(k).copied().unwrap_or(0) > 0, "no {k} requests");
        }
    }
}
