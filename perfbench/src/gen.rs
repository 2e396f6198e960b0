//! Seeded input generators: a covid-shaped input/master pair, the rule set
//! served over it, and the request lines sent to the server.
//!
//! Everything here is a pure function of the seed, so the same seed gives
//! the same bytes. The shape follows the repository's covid scenario: the
//! master holds only `state = released` rows, `infection_case` is (up to 4%
//! noise) a function of `(city, confirmed_date)` on released rows, and 10%
//! of the input's `infection_case` cells are missing or wrong.

use std::fmt::Write as _;

/// splitmix64: small, fast and fully specified, so inputs never depend on
/// another crate's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub const CASES: [&str; 8] = [
    "contact with patient",
    "contact with imports",
    "overseas inflow",
    "etc",
    "Itaewon Clubs",
    "Richway",
    "Shincheonji Church",
    "gym facility",
];
const AGES: [&str; 9] = ["0s", "10s", "20s", "30s", "40s", "50s", "60s", "70s", "80s"];
const SEXES: [&str; 2] = ["male", "female"];
const STATES: [&str; 3] = ["released", "isolated", "deceased"];

pub const INPUT_ATTRS: [&str; 7] = [
    "city",
    "province",
    "confirmed_date",
    "sex",
    "age_range",
    "state",
    "infection_case",
];
pub const MASTER_ATTRS: [&str; 8] = [
    "city",
    "province",
    "confirmed_date",
    "released_date",
    "sex",
    "age_range",
    "state",
    "infection_case",
];
/// Position of the target attribute in an input row.
pub const TARGET: usize = 6;
/// Position of the attribute that carries fresh values in an input row.
const FRESH_ATTR: usize = 4;

/// Sizes and skew of one generated pair.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub cities: usize,
    pub dates: usize,
    pub master_rows: usize,
    pub input_rows: usize,
    /// Zipf exponent of the city distribution (0 = uniform).
    pub zipf: f64,
    /// Share of input rows whose `age_range` is a value never seen before.
    pub fresh_share: f64,
}

/// One input cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Null,
    Str(String),
    /// A value the server has never seen; filled in when the row is sent.
    Fresh,
}

/// A generated input/master pair with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    pub master: Vec<Vec<String>>,
    pub input: Vec<Vec<Cell>>,
    /// True `infection_case` of every input row.
    pub truth: Vec<String>,
    /// Whether the input's `infection_case` cell is missing or wrong.
    pub dirty: Vec<bool>,
}

struct Sampler {
    shape: Shape,
    seed: u64,
    /// Cumulative city weights (Zipf or uniform).
    cdf: Vec<f64>,
}

impl Sampler {
    fn new(shape: Shape, seed: u64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..shape.cities)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(shape.zipf);
                acc
            })
            .collect();
        Sampler { shape, seed, cdf }
    }

    fn city(&self, rng: &mut Rng) -> usize {
        let total = self.cdf[self.cdf.len() - 1];
        let u = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// The planted dependency: case = f(city, date) on released rows and a
    /// different function for the other states, with 4% noise.
    fn case(&self, rng: &mut Rng, city: usize, date: usize, state: usize) -> usize {
        let key = (city as u64) << 32 | (date as u64) << 8 | state as u64;
        let planted = (mix(key ^ self.seed.wrapping_mul(0xA24B_AED4_963E_E407))
            % CASES.len() as u64) as usize;
        if rng.chance(0.04) {
            (planted + 1 + rng.below(CASES.len() - 1)) % CASES.len()
        } else {
            planted
        }
    }

    /// One clean entity in master-schema order.
    fn entity(&self, rng: &mut Rng, released: bool) -> Vec<String> {
        let city = self.city(rng);
        let provinces = (self.shape.cities / 4).max(10);
        let date = rng.below(self.shape.dates);
        let state = if released || rng.chance(0.62) {
            0
        } else {
            1 + rng.below(2)
        };
        let case = self.case(rng, city, date, state);
        vec![
            format!("city{city}"),
            format!("prov{}", city % provinces),
            format!("d{date}"),
            format!("r{}", rng.below(self.shape.dates)),
            SEXES[rng.below(2)].to_string(),
            AGES[rng.below(AGES.len())].to_string(),
            STATES[state].to_string(),
            CASES[case].to_string(),
        ]
    }
}

/// Generate the pair for `shape` from `seed`.
pub fn generate(shape: Shape, seed: u64) -> Data {
    let sampler = Sampler::new(shape, seed);
    let mut rng = Rng::new(seed);
    let master = (0..shape.master_rows)
        .map(|_| sampler.entity(&mut rng, true))
        .collect();
    let mut input = Vec::with_capacity(shape.input_rows);
    let mut truth = Vec::with_capacity(shape.input_rows);
    let mut dirty = Vec::with_capacity(shape.input_rows);
    for _ in 0..shape.input_rows {
        let mut e = sampler.entity(&mut rng, false);
        e.remove(3); // the input has no released_date
        let true_case = e[TARGET].clone();
        let mut row: Vec<Cell> = e.into_iter().map(Cell::Str).collect();
        let is_dirty = rng.chance(0.1);
        if is_dirty {
            row[TARGET] = if rng.chance(0.5) {
                Cell::Null
            } else {
                let i = CASES.iter().position(|c| *c == true_case).unwrap_or(0);
                Cell::Str(CASES[(i + 1 + rng.below(CASES.len() - 1)) % CASES.len()].to_string())
            };
        }
        if rng.chance(shape.fresh_share) {
            row[FRESH_ATTR] = Cell::Fresh;
        }
        input.push(row);
        truth.push(true_case);
        dirty.push(is_dirty);
    }
    Data {
        master,
        input,
        truth,
        dirty,
    }
}

/// The input rows as CSV; fresh cells get values unique within the file.
pub fn input_csv(data: &Data) -> String {
    let mut out = INPUT_ATTRS.join(",");
    out.push('\n');
    let mut fresh = 0usize;
    for row in &data.input {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match cell {
                Cell::Null => {}
                Cell::Str(s) => out.push_str(s),
                Cell::Fresh => {
                    let _ = write!(out, "fcsv{fresh}");
                    fresh += 1;
                }
            }
        }
        out.push('\n');
    }
    out
}

/// The master rows as CSV.
pub fn master_csv(data: &Data) -> String {
    let mut out = MASTER_ATTRS.join(",");
    out.push('\n');
    for row in &data.master {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// The served rule set: four rules on `infection_case`, all anchored on
/// `city` (so `--shards` routes by city) with pairwise incomparable LHSs
/// (so the analysis gate finds no conflict), each under `state = released`.
pub fn rules_json() -> String {
    let lhs_sets: [&[&str]; 4] = [
        &["city", "confirmed_date"],
        &["city", "sex"],
        &["city", "age_range"],
        &["city", "province"],
    ];
    let rules: Vec<String> = lhs_sets
        .iter()
        .map(|lhs| {
            let pairs: Vec<String> = lhs.iter().map(|a| format!("[\"{a}\",\"{a}\"]")).collect();
            format!(
                "{{\"lhs\":[{}],\"target\":[\"infection_case\",\"infection_case\"],\
                 \"pattern\":[{{\"Eq\":{{\"attr\":\"state\",\"value\":\"released\",\"numeric\":false}}}}],\
                 \"measures\":{{\"support\":1,\"certainty\":1.0,\"quality\":1.0,\"utility\":1.0,\"cover\":1}}}}",
                pairs.join(",")
            )
        })
        .collect();
    format!("[{}]", rules.join(","))
}

/// A `repair` request line with its fresh-value slots left open: the line
/// is `parts[0] fresh parts[1] fresh ... parts[n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    pub parts: Vec<String>,
    /// Index of the first input row the line carries.
    pub first_row: usize,
    pub rows: usize,
}

impl Template {
    /// Render the line, filling slot `i` with the quoted `fresh(i)`.
    pub fn render(&self, mut fresh: impl FnMut() -> String, out: &mut String) {
        out.clear();
        for (i, part) in self.parts.iter().enumerate() {
            if i > 0 {
                out.push('"');
                out.push_str(&fresh());
                out.push('"');
            }
            out.push_str(part);
        }
    }
}

/// Split the input into `repair` request templates of `rows_per_request`.
pub fn repair_templates(data: &Data, rows_per_request: usize) -> Vec<Template> {
    data.input
        .chunks(rows_per_request)
        .enumerate()
        .map(|(i, rows)| {
            let mut parts = Vec::new();
            let mut cur = String::from("{\"op\":\"repair\",\"rows\":[");
            for (r, row) in rows.iter().enumerate() {
                if r > 0 {
                    cur.push(',');
                }
                cur.push('[');
                for (c, cell) in row.iter().enumerate() {
                    if c > 0 {
                        cur.push(',');
                    }
                    match cell {
                        Cell::Null => cur.push_str("null"),
                        Cell::Str(s) => {
                            cur.push('"');
                            cur.push_str(s);
                            cur.push('"');
                        }
                        Cell::Fresh => parts.push(std::mem::take(&mut cur)),
                    }
                }
                cur.push(']');
            }
            cur.push_str("]}");
            parts.push(cur);
            Template {
                parts,
                first_row: i * rows_per_request,
                rows: rows.len(),
            }
        })
        .collect()
}

/// An `append` request of `rows` master rows whose cities lie in a reserved
/// namespace (`zc...`) that no generated input row uses, so appending them
/// cannot change the answer to any repair request.
pub fn append_line(seed: u64, op: usize, rows: usize) -> String {
    let mut rng = Rng::new(seed ^ (op as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut out = String::from("{\"op\":\"append\",\"rows\":[");
    for r in 0..rows {
        if r > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[\"zc{op}x{r}\",\"zprov\",\"d{}\",\"r{}\",\"{}\",\"{}\",\"released\",\"{}\"]",
            rng.below(12),
            rng.below(12),
            SEXES[rng.below(2)],
            AGES[rng.below(AGES.len())],
            CASES[rng.below(CASES.len())]
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        cities: 40,
        dates: 12,
        master_rows: 300,
        input_rows: 400,
        zipf: 1.0,
        fresh_share: 0.25,
    };

    fn bytes(seed: u64) -> String {
        let d = generate(SMALL, seed);
        let templates: String = repair_templates(&d, 8)
            .iter()
            .map(|t| t.parts.join("|"))
            .collect();
        format!(
            "{}{}{}{}",
            input_csv(&d),
            master_csv(&d),
            templates,
            append_line(seed, 3, 4)
        )
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(bytes(1), bytes(1));
        assert_ne!(bytes(1), bytes(2));
    }

    #[test]
    fn master_holds_only_released_rows_and_input_is_dirty_at_ten_percent() {
        let d = generate(SMALL, 5);
        assert!(d.master.iter().all(|r| r[6] == "released"));
        let dirty = d.dirty.iter().filter(|&&x| x).count();
        assert!((20..=60).contains(&dirty), "{dirty}");
        assert!(d.input.iter().any(|r| r.contains(&Cell::Fresh)));
    }

    #[test]
    fn templates_cover_every_row_and_render_valid_json() {
        let d = generate(SMALL, 9);
        let ts = repair_templates(&d, 8);
        assert_eq!(ts.iter().map(|t| t.rows).sum::<usize>(), SMALL.input_rows);
        let mut n = 0;
        let mut line = String::new();
        for t in &ts {
            t.render(
                || {
                    n += 1;
                    format!("f{n}")
                },
                &mut line,
            );
            let v: serde_json::Value = serde_json::from_str(&line).unwrap();
            assert_eq!(
                v.get("rows").and_then(|r| r.as_array()).map(<[_]>::len),
                Some(t.rows)
            );
        }
        let total_fresh: usize = ts.iter().map(|t| t.parts.len() - 1).sum();
        assert_eq!(n, total_fresh);
    }

    #[test]
    fn append_rows_use_the_reserved_namespace() {
        let line = append_line(1, 7, 64);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let rows = v.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows.len(), 64);
        assert!(rows
            .iter()
            .all(|r| r.as_array().unwrap()[0].as_str().unwrap().starts_with("zc")));
        assert!(!master_csv(&generate(SMALL, 1)).contains("zc"));
    }
}
