//! Seeded inputs: the request bytes each workload sends and the arrival
//! schedule of the open loop. Everything here is a pure function of the
//! corpus and the seed, so one seed always yields the same bytes and times.

use std::collections::HashSet;
use t2v_corpus::Corpus;
use t2v_dvq::Dvq;
use t2v_engine::Json;
use t2v_perturb::{build_rob, RobVariant};
use t2v_serve::server::normalize_nlq;

/// Size of the popular set each `popular-hot` client cycles.
pub const POPULAR: usize = 64;

/// SplitMix64: small, seedable and stable across platforms.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One translate request: its wire bytes plus what grading needs.
#[derive(Clone)]
pub struct Item {
    pub nlq: String,
    pub db: String,
    pub variant: RobVariant,
    pub target: Dvq,
    pub bytes: Vec<u8>,
}

/// The `POST /v1/translate` bytes for one question, Vega-Lite requested.
pub fn request_bytes(nlq: &str, db: &str) -> Vec<u8> {
    let body = Json::obj([
        ("nlq", Json::str(nlq)),
        ("db", Json::str(db)),
        ("vegalite", Json::Bool(true)),
    ])
    .compact();
    let mut out = format!(
        "POST /v1/translate HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

fn item(corpus: &Corpus, nlq: &str, db: usize, variant: RobVariant, target: &Dvq) -> Item {
    let db = corpus.databases[db].id.clone();
    Item {
        bytes: request_bytes(nlq, &db),
        nlq: nlq.to_string(),
        db,
        variant,
        target: target.clone(),
    }
}

/// The popular set: the first [`POPULAR`] dev-split questions that are
/// distinct after `normalize_nlq`, in original phrasing. It is fixed, not
/// drawn from the seed, so hit share and accuracy do not vary between seeds;
/// the seed only orders each client's cycle.
pub fn popular(corpus: &Corpus) -> Vec<Item> {
    let mut seen = HashSet::new();
    corpus
        .dev
        .iter()
        .filter(|ex| seen.insert(normalize_nlq(&ex.nlq)))
        .take(POPULAR)
        .map(|ex| item(corpus, &ex.nlq, ex.db, RobVariant::Original, &ex.dvq))
        .collect()
}

/// Each client's cycle over the popular set: a seeded permutation per client.
pub fn popular_orders(seed: u64, clients: usize, n: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed);
    (0..clients)
        .map(|_| {
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect()
}

/// `rob-unique` items: nvBench-Rob `original` and `nlq` items over several
/// rob seeds derived from `seed`, deduplicated after `normalize_nlq`, in
/// seeded order. Returns `(warm, timed)`: `warm` holds the first item of
/// every database, so lazy per-database work happens before timing; `timed`
/// holds at least `need` further items.
pub fn rob_unique(corpus: &Corpus, seed: u64, need: usize) -> (Vec<Item>, Vec<Item>) {
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    let mut round = 0u64;
    while pool.len() < need + corpus.databases.len() {
        assert!(
            round < 64,
            "nvBench-Rob cannot supply {need} unique questions"
        );
        let rob = build_rob(corpus, seed.wrapping_mul(1_000_003).wrapping_add(round));
        let variants: &[RobVariant] = if round == 0 {
            &[RobVariant::Original, RobVariant::Nlq]
        } else {
            &[RobVariant::Nlq]
        };
        for &v in variants {
            for ex in rob.set(v) {
                if seen.insert(normalize_nlq(&ex.nlq)) {
                    pool.push(item(corpus, &ex.nlq, ex.db, v, &ex.target));
                }
            }
        }
        round += 1;
    }
    Rng::new(seed).shuffle(&mut pool);
    let mut warm_dbs = HashSet::new();
    let (warm, timed): (Vec<Item>, Vec<Item>) = pool
        .into_iter()
        .partition(|it| warm_dbs.insert(it.db.clone()));
    (warm, timed)
}

/// One step of the open-loop rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub name: &'static str,
    pub rate: f64,
    /// Share of the run's seconds the step lasts on average; the step sends
    /// exactly `rate * share * seconds` requests, so sample counts (and which
    /// percentiles they support) do not vary with the seed.
    pub share: f64,
}

impl Step {
    pub fn requests(&self, seconds: f64) -> usize {
        (self.rate * self.share * seconds).round() as usize
    }
}

/// The frozen ladder. Unique traffic saturates the server at roughly 200 to
/// 290 req/s over 2 pipelined connections on a noisy 2-vCPU host (at 200
/// req/s some runs already queue without bound), so the steps sit near 20%,
/// 40% and 60% of the low end and every step drains in every run. `light`
/// is long enough for a windowed median; `heavy` has 10 samples beyond its
/// p99 at 20 s runs.
pub const LADDER: [Step; 3] = [
    Step {
        name: "light",
        rate: 50.0,
        share: 0.35,
    },
    Step {
        name: "mid",
        rate: 100.0,
        share: 0.2,
    },
    Step {
        name: "heavy",
        rate: 150.0,
        share: 0.45,
    },
];

/// A request's place in the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time in µs from the start of the ladder.
    pub due_us: u64,
    pub step: usize,
}

/// Poisson arrivals for every ladder step, back to back.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed.rotate_left(17) ^ 0xa076_1d64_78bd_642f);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    for (i, s) in LADDER.iter().enumerate() {
        for _ in 0..s.requests(seconds) {
            t += -(1.0 - rng.unit()).ln() / s.rate;
            out.push(Arrival {
                due_us: (t * 1e6) as u64,
                step: i,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_corpus::{generate, CorpusConfig};

    #[test]
    fn one_seed_gives_the_same_bytes_and_schedule() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let a = rob_unique(&corpus, 3, 100);
        let b = rob_unique(&corpus, 3, 100);
        let bytes = |v: &[Item]| v.iter().map(|i| i.bytes.clone()).collect::<Vec<_>>();
        assert_eq!(bytes(&a.0), bytes(&b.0));
        assert_eq!(bytes(&a.1), bytes(&b.1));
        assert_ne!(bytes(&a.1), bytes(&rob_unique(&corpus, 4, 100).1));
        assert_eq!(schedule(3, 2.0), schedule(3, 2.0));
        assert_ne!(schedule(3, 2.0), schedule(4, 2.0));
        assert_eq!(popular_orders(3, 2, 64), popular_orders(3, 2, 64));
    }

    #[test]
    fn rob_unique_items_are_unique_after_normalisation() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let (warm, timed) = rob_unique(&corpus, 5, 300);
        assert!(timed.len() >= 300);
        let mut seen = HashSet::new();
        for it in warm.iter().chain(&timed) {
            assert!(seen.insert(normalize_nlq(&it.nlq)), "duplicate: {}", it.nlq);
        }
        let dbs: HashSet<_> = warm.iter().map(|i| &i.db).collect();
        assert_eq!(dbs.len(), warm.len());
    }

    #[test]
    fn schedule_follows_the_ladder_rates() {
        let arrivals = schedule(9, 40.0);
        for (i, s) in LADDER.iter().enumerate() {
            let due: Vec<f64> = arrivals
                .iter()
                .filter(|a| a.step == i)
                .map(|a| a.due_us as f64)
                .collect();
            assert_eq!(due.len(), s.requests(40.0));
            let rate = (due.len() - 1) as f64 * 1e6 / (due[due.len() - 1] - due[0]);
            assert!(
                (rate / s.rate - 1.0).abs() < 0.15,
                "{}: {rate} req/s",
                s.name
            );
        }
        assert!(arrivals.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    }

    #[test]
    fn request_bytes_frame_a_parseable_request() {
        let bytes = request_bytes("Show \"x\"", "db_1");
        match t2v_serve::http::parse_request(&bytes, 1 << 16) {
            t2v_serve::http::Parse::Complete(req, used) => {
                assert_eq!(used, bytes.len());
                let body = Json::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
                assert_eq!(body.get("nlq").and_then(Json::as_str), Some("Show \"x\""));
            }
            _ => panic!("request did not parse"),
        }
    }
}
