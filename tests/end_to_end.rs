//! Cross-crate integration tests through the top-level facade.

use wsqdsq::prelude::*;

fn wsq() -> Wsq {
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    wsq.load_reference_data().unwrap();
    wsq
}

#[test]
fn the_six_paper_queries_run_through_the_facade() {
    let mut w = wsq();
    let queries = [
        "SELECT Name, Count FROM States, WebCount WHERE Name = T1 ORDER BY Count DESC, Name",
        "SELECT Name, Count * 1000000 / Population AS C FROM States, WebCount \
         WHERE Name = T1 ORDER BY C DESC, Name",
        "SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'four corners' \
         ORDER BY Count DESC, Name",
        "SELECT Capital, C.Count, Name, S.Count FROM States, WebCount C, WebCount S \
         WHERE Capital = C.T1 AND Name = S.T1 AND C.Count > S.Count",
        "SELECT Name, URL, Rank FROM States, WebPages WHERE Name = T1 AND Rank <= 2 \
         ORDER BY Name, Rank",
        "SELECT Name, AV.URL FROM States, WebPages_AV AV, WebPages_Google G \
         WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 5 AND G.Rank <= 5 \
         AND AV.URL = G.URL",
    ];
    for q in queries {
        let r = w.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        assert!(!r.schema.is_empty());
    }
    assert_eq!(w.pump().live_calls(), 0);
}

#[test]
fn disk_backed_wsq_persists_tables() {
    let dir = tempfile::tempdir().unwrap();
    {
        let mut w = Wsq::open(dir.path(), WsqConfig::fast()).unwrap();
        w.execute("CREATE TABLE Trips (Place VARCHAR(32), Year INT)")
            .unwrap();
        w.execute("INSERT INTO Trips VALUES ('Moab', 1998), ('Tahoe', 1999)")
            .unwrap();
        w.db().flush().unwrap();
    }
    let mut w = Wsq::open(dir.path(), WsqConfig::fast()).unwrap();
    let r = w
        .query("SELECT Place FROM Trips WHERE Year = 1999")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(0).as_str().unwrap(), "Tahoe");
    // And the virtual tables still work against the stored data.
    let r = w
        .query(
            "SELECT Place, Count FROM Trips, WebCount WHERE Place = T1 ORDER BY Count DESC, Place",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn user_tables_join_reference_tables_and_web() {
    let mut w = wsq();
    // A user table of visited states joined against States + the Web.
    w.execute("CREATE TABLE Visited (StateName VARCHAR(32))")
        .unwrap();
    w.execute("INSERT INTO Visited VALUES ('Colorado'), ('Utah'), ('Maine')")
        .unwrap();
    let r = w
        .query(
            "SELECT StateName, Population, Count \
             FROM Visited, States, WebCount \
             WHERE StateName = States.Name AND StateName = T1 \
             ORDER BY Count DESC, StateName",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    // Colorado outranks Maine on the Web.
    let names: Vec<&str> = r.rows.iter().map(|t| t.get(0).as_str().unwrap()).collect();
    let co = names.iter().position(|n| *n == "Colorado").unwrap();
    let me = names.iter().position(|n| *n == "Maine").unwrap();
    assert!(co < me);
}

#[test]
fn mixed_topics_template_2_style() {
    let mut w = wsq();
    // Template 2 from the evaluation: one WebCount + one WebPages per state.
    let r = w
        .query(
            "SELECT Name, Count, URL, Rank FROM States, WebCount, WebPages \
             WHERE Name = WebCount.T1 AND WebCount.T2 = 'computer' \
             AND Name = WebPages.T1 AND WebPages.T2 = 'computer' \
             AND WebPages.Rank <= 2 ORDER BY Name, Rank",
        )
        .unwrap();
    assert!(!r.rows.is_empty());
    for row in &r.rows {
        assert!(row.get(3).as_int().unwrap() <= 2);
    }
    assert_eq!(w.pump().live_calls(), 0);
}

#[test]
fn figure7_cross_product_with_meaningless_table() {
    let mut w = wsq();
    // §4.5 Example 2: a cross-product with a meaningless table R between
    // two virtual-table joins. Coalescing + consolidation keep this sane.
    w.execute("CREATE TABLE R (N INT)").unwrap();
    w.execute("INSERT INTO R VALUES (1), (2), (3)").unwrap();
    let r = w
        .query(
            "SELECT Name, AV.Count, N, G.Count \
             FROM States, WebCount_AV AV, R, WebCount_Google G \
             WHERE Name = AV.T1 AND Name = G.T1 AND Population > 15000000",
        )
        .unwrap();
    // 3 states over 15M (CA, TX, NY) × |R| = 9 rows.
    assert_eq!(r.rows.len(), 9);
    let stats = w.pump().stats();
    // Coalescing collapses the |R| duplicate Google calls per state.
    assert!(
        stats.launched <= 6,
        "expected ≤ 2 calls per big state, launched {}",
        stats.launched
    );
}

#[test]
fn error_paths_via_facade() {
    let mut w = wsq();
    assert!(w.query("SELECT Count FROM WebCount").is_err()); // unbound
    assert!(w.query("SELECT * FROM Missing").is_err());
    assert!(w.execute("CREATE TABLE WebPages_X (a INT)").is_err()); // reserved
    assert!(w.query("SELECT Name FROM States ORDER BY Missing").is_err());
    // The instance still works after errors.
    assert!(w.query("SELECT COUNT(*) FROM States").is_ok());
}

#[test]
fn to_table_renders() {
    let mut w = wsq();
    let r = w
        .query("SELECT Name, Population FROM States WHERE Name = 'Utah'")
        .unwrap();
    let text = r.to_table();
    assert!(text.contains("Name"));
    assert!(text.contains("Utah"));
    assert!(text.lines().count() >= 3);
}

#[test]
fn index_lookup_on_a_key_with_many_duplicates_keeps_every_row() {
    // 40 buckets × 1,000 rows: each bucket's index entries span several
    // B+-tree leaves and the tree grows past an internal-root split.
    let mut w = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    w.execute("CREATE TABLE T (Term VARCHAR(16), Bucket INT)")
        .unwrap();
    let rows: Vec<Tuple> = (0..40_000)
        .map(|i| {
            Tuple::new(vec![
                Value::from(format!("t{i:06}").as_str()),
                Value::Int(i % 40),
            ])
        })
        .collect();
    w.db_mut().insert("T", &rows).unwrap();
    let count = |w: &mut Wsq| match w
        .query("SELECT COUNT(*) FROM T WHERE Bucket = 7")
        .unwrap()
        .rows[0]
        .get(0)
    {
        Value::Int(n) => *n,
        v => panic!("COUNT(*) returned {v:?}"),
    };
    assert_eq!(count(&mut w), 1000);
    w.execute("CREATE INDEX ON T (Bucket)").unwrap();
    assert_eq!(count(&mut w), 1000, "the index lost rows");
}
