//! Correctness: expected results computed in-process before timing, and
//! the checks every wire response must pass.
//!
//! The expected result of a request text is its canonical JSON value as
//! an in-process [`Session`] computes it (`Session::query`, then `canon`,
//! then `value_json`).  A timed read passes only when the `"value"` its
//! response carries is byte-identical to the expected value for its text
//! in the database state its `"generation"` implies.

use excess_db::{value_json, Session};
use std::collections::HashMap;

/// Expected canonical JSON per request text, per database state.  State
/// `s` is the database after `s` mod 2 of the alternating
/// append/delete commits, so generation `g` reads state `g % 2`.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    states: Vec<HashMap<String, String>>,
}

impl Expected {
    /// Compute the next state's expected values with `session`.
    pub fn add_state(
        &mut self,
        session: &mut Session,
        texts: &[(usize, String)],
    ) -> Result<(), String> {
        let mut map = HashMap::new();
        for (_, text) in texts {
            let out = session
                .query(text)
                .map_err(|e| format!("in-process `{text}`: {e}"))?;
            map.insert(text.clone(), value_json(&session.canon(&out.value)));
        }
        self.states.push(map);
        Ok(())
    }

    /// The expected canonical JSON of `text` at `generation`.
    pub fn get(&self, text: &str, generation: u64) -> Result<&str, String> {
        let state = self
            .states
            .get((generation % 2) as usize)
            .ok_or_else(|| format!("no expected results for generation {generation}"))?;
        state
            .get(text)
            .map(String::as_str)
            .ok_or_else(|| format!("no expected result for `{text}`"))
    }
}

/// The fields of a successful read response the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply<'a> {
    /// Generation the server read.
    pub generation: u64,
    /// Server-side time the response reports (parse through execute).
    pub server_us: u64,
    /// The canonical JSON value, as sent.
    pub value: &'a str,
}

/// What was wrong with a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// `"ok":false`, or a response that is not a well-formed success.
    Failed(String),
    /// A success whose value differs from the expected one.
    Wrong(String),
}

fn number_field(line: &str, key: &str) -> Option<u64> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Split a query response into its fields.  The value is the last field
/// of the response object.
fn parse_read(line: &str) -> Result<Reply<'_>, Fault> {
    if !line.starts_with("{\"ok\":true,") || !line.ends_with('}') {
        return Err(Fault::Failed(format!("error response: {line}")));
    }
    let malformed = || Fault::Failed(format!("malformed response: {line}"));
    let generation = number_field(line, "generation").ok_or_else(malformed)?;
    let server_us = number_field(line, "us").ok_or_else(malformed)?;
    let at = line.find(",\"value\":").ok_or_else(malformed)? + ",\"value\":".len();
    Ok(Reply {
        generation,
        server_us,
        value: &line[at..line.len() - 1],
    })
}

/// Check a timed read response against the expected value for `text`.
pub fn check_read<'a>(expected: &Expected, text: &str, line: &'a str) -> Result<Reply<'a>, Fault> {
    let reply = parse_read(line)?;
    let want = expected.get(text, reply.generation).map_err(Fault::Wrong)?;
    if reply.value != want {
        return Err(Fault::Wrong(format!(
            "`{text}` at generation {}: expected {want}, got {}",
            reply.generation, reply.value
        )));
    }
    Ok(reply)
}

/// Check a `.commit` or `.refresh` response and return its generation.
pub fn check_generation(line: &str) -> Result<u64, Fault> {
    if !line.starts_with("{\"ok\":true,") {
        return Err(Fault::Failed(format!("error response: {line}")));
    }
    number_field(line, "generation")
        .ok_or_else(|| Fault::Failed(format!("malformed response: {line}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_db::{Database, VersionedDb};

    fn response(generation: u64, value: &str) -> String {
        format!(
            "{{\"ok\":true,\"generation\":{generation},\"rows\":2,\"plan_hash\":\"00000000000000ff\",\
             \"us\":417,\"phases\":{{\"parse\":3,\"execute\":400}},\"value\":{value}}}"
        )
    }

    fn expected() -> (Expected, String) {
        let mut db = Database::new();
        db.execute(
            "define type Dept : (dname: char, budget: int4) \
             create DS : {Dept} \
             append to DS ((dname: \"cs\", budget: 100)) \
             append to DS ((dname: \"ee\", budget: 200))",
        )
        .expect("seed program");
        let vdb = VersionedDb::new(db);
        let text = "retrieve (DS.dname)".to_string();
        let mut exp = Expected::default();
        exp.add_state(&mut vdb.begin_session(), &[(0, text.clone())])
            .expect("in-process query");
        vdb.shutdown();
        (exp, text)
    }

    #[test]
    fn a_faithful_response_passes() {
        let (exp, text) = expected();
        let value = exp.get(&text, 0).unwrap().to_string();
        let line = response(0, &value);
        let reply = check_read(&exp, &text, &line).expect("faithful response");
        assert_eq!(
            (reply.generation, reply.server_us, reply.value),
            (0, 417, value.as_str())
        );
    }

    #[test]
    fn a_tampered_response_is_rejected() {
        let (exp, text) = expected();
        let value = exp.get(&text, 0).unwrap().to_string();
        assert!(value.contains("\"ee\""), "{value}");
        // One changed byte in the value.
        let tampered = response(0, &value.replace("\"ee\"", "\"ef\""));
        assert!(matches!(
            check_read(&exp, &text, &tampered),
            Err(Fault::Wrong(_))
        ));
        // A dropped element.
        let dropped = response(0, &value.replace(",\"ee\"", "").replace("\"ee\",", ""));
        assert!(matches!(
            check_read(&exp, &text, &dropped),
            Err(Fault::Wrong(_))
        ));
        // The right value claimed for a generation with no expected state.
        assert!(matches!(
            check_read(&exp, &text, &response(1, &value)),
            Err(Fault::Wrong(_))
        ));
        // An error response is a failure, not a wrong result.
        let error = "{\"ok\":false,\"error\":\"boom\"}";
        assert!(matches!(
            check_read(&exp, &text, error),
            Err(Fault::Failed(_))
        ));
        assert!(matches!(check_generation(error), Err(Fault::Failed(_))));
        assert_eq!(
            check_generation("{\"ok\":true,\"generation\":12,\"value\":true}"),
            Ok(12)
        );
    }
}
