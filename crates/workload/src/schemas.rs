//! Domain schemas, data generators, and topic definitions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{Engine, Value};

/// The three synthetic environments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// The paper's running example: limnology data around Seattle lakes.
    Lakes,
    /// SDSS-like sky survey (PhotoObj / SpecObj / Neighbors).
    SkySurvey,
    /// Industrial clickstream analysis.
    WebLog,
}

impl Domain {
    pub fn all() -> [Domain; 3] {
        [Domain::Lakes, Domain::SkySurvey, Domain::WebLog]
    }

    pub fn name(&self) -> &'static str {
        match self {
            Domain::Lakes => "lakes",
            Domain::SkySurvey => "skysurvey",
            Domain::WebLog => "weblog",
        }
    }

    /// CREATE TABLE statements for this domain.
    pub fn ddl(&self) -> Vec<&'static str> {
        match self {
            Domain::Lakes => vec![
                "CREATE TABLE WaterSalinity (loc_x FLOAT, loc_y FLOAT, salinity FLOAT, lake TEXT, month INT)",
                "CREATE TABLE WaterTemp (loc_x FLOAT, loc_y FLOAT, temp FLOAT, lake TEXT, month INT)",
                "CREATE TABLE CityLocations (city TEXT, state TEXT, loc_x FLOAT, loc_y FLOAT, pop INT)",
                "CREATE TABLE Lakes (lake TEXT, state TEXT, area FLOAT, max_depth FLOAT)",
            ],
            Domain::SkySurvey => vec![
                "CREATE TABLE PhotoObj (objid INT, ra FLOAT, dec FLOAT, mag_u FLOAT, mag_g FLOAT, mag_r FLOAT, obj_type TEXT)",
                "CREATE TABLE SpecObj (specobjid INT, objid INT, redshift FLOAT, class TEXT)",
                "CREATE TABLE Neighbors (objid INT, neighbor_objid INT, distance FLOAT)",
            ],
            Domain::WebLog => vec![
                "CREATE TABLE PageViews (user_id INT, url TEXT, view_ts INT, referrer TEXT, dur INT)",
                "CREATE TABLE Users (user_id INT, country TEXT, signup_ts INT)",
                "CREATE TABLE Searches (user_id INT, search_query TEXT, search_ts INT, clicks INT)",
            ],
        }
    }

    /// Create the schema and populate deterministic data.
    ///
    /// `scale` is the approximate per-table row count. Value distributions
    /// are chosen so the paper's scenarios hold (e.g. Lake Washington stays
    /// below 18°C while Lake Union does not, which query-by-data tests rely on).
    pub fn setup(&self, engine: &mut Engine, scale: usize, seed: u64) {
        for ddl in self.ddl() {
            engine.execute(ddl).expect("ddl");
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
        match self {
            Domain::Lakes => populate_lakes(engine, scale, &mut rng),
            Domain::SkySurvey => populate_sky(engine, scale, &mut rng),
            Domain::WebLog => populate_weblog(engine, scale, &mut rng),
        }
    }

    /// Topic definitions: related table sets with join conditions, predicate
    /// pools and projection pools. Sessions stay within one topic — this is
    /// the planted clustering ground truth.
    pub fn topics(&self) -> Vec<Topic> {
        match self {
            Domain::Lakes => lakes_topics(),
            Domain::SkySurvey => sky_topics(),
            Domain::WebLog => weblog_topics(),
        }
    }
}

/// Per-lake characteristics used by the data generator *and* referenced by
/// tests (query-by-data tests exploit the fact that `temp < 18` separates
/// Lake Washington from Lake Union).
pub const LAKES: [(&str, f64, f64, f64); 5] = [
    // (name, temp_lo, temp_hi, salinity_mid)
    ("Lake Washington", 8.0, 16.0, 0.15),
    ("Lake Union", 18.5, 24.0, 0.45),
    ("Lake Sammamish", 7.0, 15.0, 0.12),
    ("Green Lake", 12.0, 19.5, 0.22),
    ("Lake Tapps", 9.0, 17.5, 0.18),
];

fn populate_lakes(engine: &mut Engine, scale: usize, rng: &mut StdRng) {
    let cities = [
        ("Seattle", "WA", 1.0, 1.0, 750_000),
        ("Bellevue", "WA", 2.2, 1.1, 150_000),
        ("Kirkland", "WA", 2.0, 2.0, 95_000),
        ("Renton", "WA", 1.4, -0.5, 105_000),
        ("Portland", "OR", -3.0, -9.0, 650_000),
        ("Olympia", "WA", -1.5, -4.0, 55_000),
    ];
    {
        let t = engine.catalog.table_mut("CityLocations").unwrap();
        for (city, state, x, y, pop) in cities {
            t.insert(vec![
                Value::from(city),
                Value::from(state),
                Value::Float(x),
                Value::Float(y),
                Value::Int(pop),
            ])
            .unwrap();
        }
    }
    {
        let t = engine.catalog.table_mut("Lakes").unwrap();
        for (i, (lake, _, _, _)) in LAKES.iter().enumerate() {
            t.insert(vec![
                Value::from(*lake),
                Value::from("WA"),
                Value::Float(500.0 + 700.0 * i as f64),
                Value::Float(20.0 + 15.0 * i as f64),
            ])
            .unwrap();
        }
    }
    for i in 0..scale {
        let (lake, tlo, thi, _) = LAKES[i % LAKES.len()];
        let loc_x = rng.gen_range(0.0..4.0);
        let loc_y = rng.gen_range(-1.0..3.0);
        let month = rng.gen_range(1..=12i64);
        let temp = rng.gen_range(tlo..thi);
        engine
            .catalog
            .table_mut("WaterTemp")
            .unwrap()
            .insert(vec![
                Value::Float(loc_x),
                Value::Float(loc_y),
                Value::Float((temp * 10.0).round() / 10.0),
                Value::from(lake),
                Value::Int(month),
            ])
            .unwrap();
    }
    for i in 0..scale {
        let (lake, _, _, smid) = LAKES[i % LAKES.len()];
        let loc_x = rng.gen_range(0.0..4.0);
        let loc_y = rng.gen_range(-1.0..3.0);
        let month = rng.gen_range(1..=12i64);
        let salinity = (smid + rng.gen_range(-0.05f64..0.05)).max(0.01);
        engine
            .catalog
            .table_mut("WaterSalinity")
            .unwrap()
            .insert(vec![
                Value::Float(loc_x),
                Value::Float(loc_y),
                Value::Float((salinity * 1000.0).round() / 1000.0),
                Value::from(lake),
                Value::Int(month),
            ])
            .unwrap();
    }
}

fn populate_sky(engine: &mut Engine, scale: usize, rng: &mut StdRng) {
    let types = ["STAR", "GALAXY", "QSO"];
    let classes = ["STAR", "GALAXY", "QSO"];
    for i in 0..scale {
        let objid = i as i64;
        let obj_type = types[rng.gen_range(0..types.len())];
        engine
            .catalog
            .table_mut("PhotoObj")
            .unwrap()
            .insert(vec![
                Value::Int(objid),
                Value::Float(rng.gen_range(0.0..360.0)),
                Value::Float(rng.gen_range(-90.0..90.0)),
                Value::Float(rng.gen_range(14.0..24.0)),
                Value::Float(rng.gen_range(14.0..24.0)),
                Value::Float(rng.gen_range(14.0..24.0)),
                Value::from(obj_type),
            ])
            .unwrap();
        // ~40% of photo objects have spectra.
        if rng.gen_bool(0.4) {
            let class = classes[rng.gen_range(0..classes.len())];
            engine
                .catalog
                .table_mut("SpecObj")
                .unwrap()
                .insert(vec![
                    Value::Int(1_000_000 + i as i64),
                    Value::Int(objid),
                    Value::Float(rng.gen_range(0.0..3.0)),
                    Value::from(class),
                ])
                .unwrap();
        }
        // A couple of neighbors each.
        for _ in 0..rng.gen_range(0..3) {
            engine
                .catalog
                .table_mut("Neighbors")
                .unwrap()
                .insert(vec![
                    Value::Int(objid),
                    Value::Int(rng.gen_range(0..scale as i64)),
                    Value::Float(rng.gen_range(0.0..30.0)),
                ])
                .unwrap();
        }
    }
}

fn populate_weblog(engine: &mut Engine, scale: usize, rng: &mut StdRng) {
    let urls = [
        "/home",
        "/search",
        "/product/1",
        "/product/2",
        "/cart",
        "/checkout",
        "/help",
        "/about",
    ];
    let countries = ["US", "DE", "JP", "BR", "IN"];
    let n_users = (scale / 10).max(5);
    for u in 0..n_users {
        engine
            .catalog
            .table_mut("Users")
            .unwrap()
            .insert(vec![
                Value::Int(u as i64),
                Value::from(countries[rng.gen_range(0..countries.len())]),
                Value::Int(rng.gen_range(1_000_000..2_000_000)),
            ])
            .unwrap();
    }
    for _ in 0..scale {
        // Zipf-ish URL popularity: earlier URLs more popular.
        let r: f64 = rng.gen::<f64>();
        let url = urls[((r * r) * urls.len() as f64) as usize % urls.len()];
        engine
            .catalog
            .table_mut("PageViews")
            .unwrap()
            .insert(vec![
                Value::Int(rng.gen_range(0..n_users as i64)),
                Value::from(url),
                Value::Int(rng.gen_range(2_000_000..3_000_000)),
                Value::from(urls[rng.gen_range(0..urls.len())]),
                Value::Int(rng.gen_range(1..600)),
            ])
            .unwrap();
    }
    let terms = ["shoes", "laptop", "camera", "phone", "desk"];
    for _ in 0..scale / 4 {
        engine
            .catalog
            .table_mut("Searches")
            .unwrap()
            .insert(vec![
                Value::Int(rng.gen_range(0..n_users as i64)),
                Value::from(terms[rng.gen_range(0..terms.len())]),
                Value::Int(rng.gen_range(2_000_000..3_000_000)),
                Value::Int(rng.gen_range(0..20)),
            ])
            .unwrap();
    }
}

// ---------------------------------------------------------------------
// Topics
// ---------------------------------------------------------------------

/// How a predicate constant is generated.
#[derive(Debug, Clone)]
pub enum ConstGen {
    FloatRange(f64, f64),
    IntRange(i64, i64),
    Choice(&'static [&'static str]),
}

/// A predicate template: `table.column op <const>` with a constant pool.
#[derive(Debug, Clone)]
pub struct PredTemplate {
    pub table: &'static str,
    pub column: &'static str,
    /// One of `<`, `<=`, `>`, `>=`, `=`.
    pub op: &'static str,
    pub constant: ConstGen,
}

/// A topical cluster of related tables: the planted clustering ground truth.
#[derive(Debug, Clone)]
pub struct Topic {
    pub name: &'static str,
    /// Tables in popularity order; a session's base query uses a prefix.
    pub tables: &'static [&'static str],
    /// Equi-join conditions between tables of this topic.
    pub joins: &'static [(&'static str, &'static str, &'static str, &'static str)],
    pub predicates: Vec<PredTemplate>,
    /// Projection pool: (table, column).
    pub projections: &'static [(&'static str, &'static str)],
}

fn lakes_topics() -> Vec<Topic> {
    vec![
        Topic {
            name: "salinity-temperature-correlation",
            tables: &["WaterSalinity", "WaterTemp", "CityLocations"],
            joins: &[
                ("WaterSalinity", "loc_x", "WaterTemp", "loc_x"),
                ("WaterSalinity", "loc_y", "WaterTemp", "loc_y"),
                ("WaterTemp", "loc_x", "CityLocations", "loc_x"),
            ],
            predicates: vec![
                PredTemplate {
                    table: "WaterTemp",
                    column: "temp",
                    op: "<",
                    constant: ConstGen::FloatRange(8.0, 24.0),
                },
                PredTemplate {
                    table: "WaterSalinity",
                    column: "salinity",
                    op: ">",
                    constant: ConstGen::FloatRange(0.05, 0.5),
                },
                PredTemplate {
                    table: "WaterTemp",
                    column: "month",
                    op: "=",
                    constant: ConstGen::IntRange(1, 12),
                },
                PredTemplate {
                    table: "WaterTemp",
                    column: "lake",
                    op: "=",
                    constant: ConstGen::Choice(&[
                        "Lake Washington",
                        "Lake Union",
                        "Lake Sammamish",
                    ]),
                },
            ],
            projections: &[
                ("WaterTemp", "temp"),
                ("WaterSalinity", "salinity"),
                ("WaterTemp", "lake"),
                ("WaterTemp", "month"),
            ],
        },
        Topic {
            name: "lake-geography",
            tables: &["Lakes", "CityLocations"],
            joins: &[("Lakes", "state", "CityLocations", "state")],
            predicates: vec![
                PredTemplate {
                    table: "Lakes",
                    column: "area",
                    op: ">",
                    constant: ConstGen::FloatRange(300.0, 3000.0),
                },
                PredTemplate {
                    table: "Lakes",
                    column: "max_depth",
                    op: ">",
                    constant: ConstGen::FloatRange(15.0, 80.0),
                },
                PredTemplate {
                    table: "CityLocations",
                    column: "pop",
                    op: ">",
                    constant: ConstGen::IntRange(50_000, 700_000),
                },
                PredTemplate {
                    table: "CityLocations",
                    column: "state",
                    op: "=",
                    constant: ConstGen::Choice(&["WA", "OR"]),
                },
            ],
            projections: &[
                ("Lakes", "lake"),
                ("Lakes", "area"),
                ("CityLocations", "city"),
                ("CityLocations", "pop"),
            ],
        },
        Topic {
            name: "seasonal-temperature",
            tables: &["WaterTemp", "Lakes"],
            joins: &[("WaterTemp", "lake", "Lakes", "lake")],
            predicates: vec![
                PredTemplate {
                    table: "WaterTemp",
                    column: "month",
                    op: ">=",
                    constant: ConstGen::IntRange(1, 9),
                },
                PredTemplate {
                    table: "WaterTemp",
                    column: "temp",
                    op: ">",
                    constant: ConstGen::FloatRange(5.0, 20.0),
                },
                PredTemplate {
                    table: "Lakes",
                    column: "max_depth",
                    op: "<",
                    constant: ConstGen::FloatRange(25.0, 90.0),
                },
            ],
            projections: &[
                ("WaterTemp", "temp"),
                ("WaterTemp", "month"),
                ("Lakes", "lake"),
            ],
        },
    ]
}

fn sky_topics() -> Vec<Topic> {
    vec![
        Topic {
            name: "photometry",
            tables: &["PhotoObj"],
            joins: &[],
            predicates: vec![
                PredTemplate {
                    table: "PhotoObj",
                    column: "mag_r",
                    op: "<",
                    constant: ConstGen::FloatRange(15.0, 23.0),
                },
                PredTemplate {
                    table: "PhotoObj",
                    column: "dec",
                    op: ">",
                    constant: ConstGen::FloatRange(-60.0, 60.0),
                },
                PredTemplate {
                    table: "PhotoObj",
                    column: "obj_type",
                    op: "=",
                    constant: ConstGen::Choice(&["STAR", "GALAXY", "QSO"]),
                },
            ],
            projections: &[
                ("PhotoObj", "objid"),
                ("PhotoObj", "ra"),
                ("PhotoObj", "dec"),
                ("PhotoObj", "mag_r"),
            ],
        },
        Topic {
            name: "spectroscopy",
            tables: &["SpecObj", "PhotoObj"],
            joins: &[("SpecObj", "objid", "PhotoObj", "objid")],
            predicates: vec![
                PredTemplate {
                    table: "SpecObj",
                    column: "redshift",
                    op: "<",
                    constant: ConstGen::FloatRange(0.1, 2.5),
                },
                PredTemplate {
                    table: "SpecObj",
                    column: "class",
                    op: "=",
                    constant: ConstGen::Choice(&["GALAXY", "QSO"]),
                },
                PredTemplate {
                    table: "PhotoObj",
                    column: "mag_g",
                    op: "<",
                    constant: ConstGen::FloatRange(16.0, 22.0),
                },
            ],
            projections: &[
                ("SpecObj", "redshift"),
                ("SpecObj", "class"),
                ("PhotoObj", "ra"),
            ],
        },
        Topic {
            name: "proximity-search",
            tables: &["Neighbors", "PhotoObj"],
            joins: &[("Neighbors", "objid", "PhotoObj", "objid")],
            predicates: vec![
                PredTemplate {
                    table: "Neighbors",
                    column: "distance",
                    op: "<",
                    constant: ConstGen::FloatRange(1.0, 20.0),
                },
                PredTemplate {
                    table: "PhotoObj",
                    column: "obj_type",
                    op: "=",
                    constant: ConstGen::Choice(&["GALAXY"]),
                },
            ],
            projections: &[
                ("Neighbors", "neighbor_objid"),
                ("Neighbors", "distance"),
                ("PhotoObj", "objid"),
            ],
        },
    ]
}

fn weblog_topics() -> Vec<Topic> {
    vec![
        Topic {
            name: "traffic-analysis",
            tables: &["PageViews"],
            joins: &[],
            predicates: vec![
                PredTemplate {
                    table: "PageViews",
                    column: "dur",
                    op: ">",
                    constant: ConstGen::IntRange(10, 400),
                },
                PredTemplate {
                    table: "PageViews",
                    column: "url",
                    op: "=",
                    constant: ConstGen::Choice(&["/home", "/search", "/cart"]),
                },
                PredTemplate {
                    table: "PageViews",
                    column: "view_ts",
                    op: ">",
                    constant: ConstGen::IntRange(2_000_000, 2_900_000),
                },
            ],
            projections: &[
                ("PageViews", "url"),
                ("PageViews", "dur"),
                ("PageViews", "user_id"),
            ],
        },
        Topic {
            name: "user-behaviour",
            tables: &["PageViews", "Users"],
            joins: &[("PageViews", "user_id", "Users", "user_id")],
            predicates: vec![
                PredTemplate {
                    table: "Users",
                    column: "country",
                    op: "=",
                    constant: ConstGen::Choice(&["US", "DE", "JP"]),
                },
                PredTemplate {
                    table: "PageViews",
                    column: "dur",
                    op: ">",
                    constant: ConstGen::IntRange(30, 500),
                },
            ],
            projections: &[
                ("Users", "country"),
                ("PageViews", "url"),
                ("PageViews", "dur"),
            ],
        },
        Topic {
            name: "search-behaviour",
            tables: &["Searches", "Users"],
            joins: &[("Searches", "user_id", "Users", "user_id")],
            predicates: vec![
                PredTemplate {
                    table: "Searches",
                    column: "clicks",
                    op: ">",
                    constant: ConstGen::IntRange(0, 15),
                },
                PredTemplate {
                    table: "Searches",
                    column: "search_query",
                    op: "=",
                    constant: ConstGen::Choice(&["shoes", "laptop", "camera"]),
                },
            ],
            projections: &[
                ("Searches", "search_query"),
                ("Searches", "clicks"),
                ("Users", "country"),
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_deterministic() {
        let mut a = Engine::new();
        let mut b = Engine::new();
        Domain::Lakes.setup(&mut a, 100, 7);
        Domain::Lakes.setup(&mut b, 100, 7);
        let ra = a
            .execute("SELECT COUNT(*), AVG(temp) FROM WaterTemp")
            .unwrap();
        let rb = b
            .execute("SELECT COUNT(*), AVG(temp) FROM WaterTemp")
            .unwrap();
        assert_eq!(ra.rows, rb.rows);
    }

    #[test]
    fn lakes_temp_separation_holds() {
        // The query-by-data planted fact: `temp < 18` returns Lake Washington
        // rows but never Lake Union rows.
        let mut e = Engine::new();
        Domain::Lakes.setup(&mut e, 500, 42);
        let r = e
            .execute("SELECT DISTINCT lake FROM WaterTemp WHERE temp < 18")
            .unwrap();
        let lakes: Vec<String> = r.rows.iter().map(|r| r[0].render()).collect();
        assert!(lakes.contains(&"Lake Washington".to_string()));
        assert!(!lakes.contains(&"Lake Union".to_string()));
    }

    #[test]
    fn all_domains_set_up_and_query() {
        for d in Domain::all() {
            let mut e = Engine::new();
            d.setup(&mut e, 50, 1);
            for t in d.topics() {
                for table in t.tables {
                    let r = e.execute(&format!("SELECT COUNT(*) FROM {table}")).unwrap();
                    assert!(r.rows[0][0].as_i64().unwrap() > 0, "{table} empty");
                }
            }
        }
    }

    #[test]
    fn topic_joins_reference_topic_tables() {
        for d in Domain::all() {
            for t in d.topics() {
                for (t1, _, t2, _) in t.joins {
                    assert!(t.tables.contains(t1), "{t1} not in topic {}", t.name);
                    assert!(t.tables.contains(t2), "{t2} not in topic {}", t.name);
                }
                assert!(!t.predicates.is_empty());
                assert!(!t.projections.is_empty());
            }
        }
    }
}
