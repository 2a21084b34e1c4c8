//! Serialization of routing-vector series as JSONL: a header line naming
//! the sites and networks, then one JSON object per observation time with
//! the full dense code vector — lossless, including unknowns, for exact
//! round trips, and diff-friendly.

use crate::json::{self, Json};
use fenrir_core::error::{Error, Result};
use fenrir_core::ids::SiteTable;
use fenrir_core::series::VectorSeries;
use fenrir_core::time::Timestamp;
use fenrir_core::vector::RoutingVector;

/// Export a series as JSONL: a header line, then one line per observation.
pub fn to_jsonl(series: &VectorSeries, network_labels: &[String]) -> Result<String> {
    if network_labels.len() != series.networks() {
        return Err(Error::ShapeMismatch {
            what: "network labels",
            expected: series.networks(),
            actual: network_labels.len(),
        });
    }
    let quoted = |items: &mut dyn Iterator<Item = String>| {
        items
            .map(|s| format!("\"{}\"", json::escape(&s)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut out = format!(
        "{{\"sites\":[{}],\"networks\":[{}]}}\n",
        quoted(&mut series.sites().iter().map(|(_, n)| n.to_owned())),
        quoted(&mut network_labels.iter().cloned()),
    );
    for v in series.vectors() {
        let codes: Vec<String> = v.codes().iter().map(|c| c.to_string()).collect();
        out.push_str(&format!(
            "{{\"t\":{},\"codes\":[{}]}}\n",
            v.time().as_secs(),
            codes.join(",")
        ));
    }
    Ok(out)
}

/// An integer field of a JSONL record, rejecting fractions and values
/// outside `[lo, hi]` — a 1.5 or a 70000 in a code array is corruption,
/// not something to round or wrap.
fn jsonl_int(v: &Json, name: &'static str, line: usize, lo: f64, hi: f64) -> Result<i64> {
    let bad = |message: String| Error::InvalidParameter {
        name,
        message: format!("line {line}: {message}"),
    };
    let Json::Num(x) = v else {
        return Err(bad(format!("expected a number, got {v:?}")));
    };
    if x.fract() != 0.0 {
        return Err(bad(format!("{x} is not an integer")));
    }
    if *x < lo || *x > hi {
        return Err(bad(format!("{x} is outside [{lo}, {hi}]")));
    }
    Ok(*x as i64)
}

fn jsonl_strings(v: &Json, name: &'static str) -> Result<Vec<String>> {
    let arr = v.as_arr().ok_or_else(|| Error::InvalidParameter {
        name,
        message: format!("expected an array of strings, got {v:?}"),
    })?;
    arr.iter()
        .map(|s| match s {
            Json::Str(s) => Ok(s.clone()),
            other => Err(Error::InvalidParameter {
                name,
                message: format!("expected a string, got {other:?}"),
            }),
        })
        .collect()
}

/// Import JSONL produced by [`to_jsonl`]. Lossless round trip.
///
/// Hostile input is rejected with typed errors, never a panic: malformed
/// or non-finite JSON numbers, fractional or out-of-range timestamps and
/// codes, ragged code arrays, and out-of-order or duplicate observation
/// times all fail the load.
pub fn from_jsonl(jsonl: &str) -> Result<(VectorSeries, Vec<String>)> {
    let mut lines = jsonl.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or(Error::EmptyInput("jsonl"))?;
    let header = json::parse(header_line).map_err(|e| Error::InvalidParameter {
        name: "jsonl header",
        message: e,
    })?;
    let site_names = jsonl_strings(
        header.get("sites").ok_or(Error::InvalidParameter {
            name: "jsonl header",
            message: "missing \"sites\"".into(),
        })?,
        "jsonl sites",
    )?;
    let networks = jsonl_strings(
        header.get("networks").ok_or(Error::InvalidParameter {
            name: "jsonl header",
            message: "missing \"networks\"".into(),
        })?,
        "jsonl networks",
    )?;
    let sites = SiteTable::from_names(&site_names);
    let mut vectors: Vec<RoutingVector> = Vec::new();
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        let row = json::parse(line).map_err(|e| Error::InvalidParameter {
            name: "jsonl row",
            message: format!("line {lineno}: {e}"),
        })?;
        let t = jsonl_int(
            row.get("t").ok_or_else(|| Error::InvalidParameter {
                name: "jsonl row",
                message: format!("line {lineno}: missing \"t\""),
            })?,
            "jsonl t",
            lineno,
            -(2f64.powi(53)),
            2f64.powi(53),
        )?;
        if let Some(last) = vectors.last() {
            let last_t = last.time().as_secs();
            if t == last_t {
                return Err(Error::DuplicateTimestamp(t));
            }
            if t < last_t {
                return Err(Error::InvalidParameter {
                    name: "jsonl t",
                    message: format!("line {lineno}: time {t} goes backwards from {last_t}"),
                });
            }
        }
        let codes_val = row.get("codes").ok_or_else(|| Error::InvalidParameter {
            name: "jsonl row",
            message: format!("line {lineno}: missing \"codes\""),
        })?;
        let arr = codes_val.as_arr().ok_or_else(|| Error::InvalidParameter {
            name: "jsonl codes",
            message: format!("line {lineno}: expected an array"),
        })?;
        let codes: Vec<u16> = arr
            .iter()
            .map(|c| jsonl_int(c, "jsonl codes", lineno, 0.0, u16::MAX as f64).map(|v| v as u16))
            .collect::<Result<_>>()?;
        if codes.len() != networks.len() {
            return Err(Error::ShapeMismatch {
                what: "jsonl row codes",
                expected: networks.len(),
                actual: codes.len(),
            });
        }
        vectors.push(RoutingVector::from_codes(Timestamp::from_secs(t), codes));
    }
    let series = VectorSeries::from_vectors(sites, networks.len(), vectors)?;
    Ok((series, networks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fenrir_core::ids::SiteId;
    use fenrir_core::vector::Catchment;

    fn sample() -> (VectorSeries, Vec<String>) {
        let sites = SiteTable::from_names(["LAX", "AMS"]);
        let mut series = VectorSeries::new(sites, 3);
        let s = |n| Catchment::Site(SiteId(n));
        series
            .push(RoutingVector::from_catchments(
                Timestamp::from_days(0),
                vec![s(0), s(1), Catchment::Unknown],
            ))
            .unwrap();
        series
            .push(RoutingVector::from_catchments(
                Timestamp::from_days(1),
                vec![s(0), Catchment::Err, Catchment::Other],
            ))
            .unwrap();
        let labels = vec![
            "10.0.0.0/24".into(),
            "10.0.1.0/24".into(),
            "10.0.2.0/24".into(),
        ];
        (series, labels)
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let (series, labels) = sample();
        let jsonl = to_jsonl(&series, &labels).unwrap();
        let (back, back_labels) = from_jsonl(&jsonl).unwrap();
        assert_eq!(back_labels, labels);
        assert_eq!(back.len(), series.len());
        for (a, b) in series.vectors().iter().zip(back.vectors()) {
            assert_eq!(a, b);
        }
        assert_eq!(
            back.sites()
                .iter()
                .map(|(_, n)| n.to_owned())
                .collect::<Vec<_>>(),
            vec!["LAX".to_owned(), "AMS".to_owned()]
        );
    }

    #[test]
    fn jsonl_rejects_malformed_input() {
        assert!(from_jsonl("").is_err());
        assert!(from_jsonl("not json\n").is_err());
        let (series, labels) = sample();
        let jsonl = to_jsonl(&series, &labels).unwrap();
        // Corrupt a row's code count.
        let mut lines: Vec<String> = jsonl.lines().map(str::to_owned).collect();
        lines[1] = r#"{"t":0,"codes":[1]}"#.into();
        assert!(from_jsonl(&lines.join("\n")).is_err());
    }

    #[test]
    fn jsonl_rejects_label_mismatch() {
        let (series, _) = sample();
        assert!(to_jsonl(&series, &["x".into()]).is_err());
    }

    #[test]
    fn jsonl_rejects_non_finite_numbers() {
        let jsonl = "{\"sites\":[],\"networks\":[\"a\"]}\n{\"t\":1e999,\"codes\":[0]}\n";
        assert!(from_jsonl(jsonl).is_err());
        let jsonl = "{\"sites\":[],\"networks\":[\"a\"]}\n{\"t\":0,\"codes\":[NaN]}\n";
        assert!(from_jsonl(jsonl).is_err());
    }

    #[test]
    fn jsonl_rejects_fractional_and_out_of_range_codes() {
        for codes in ["[1.5]", "[-1]", "[70000]", "[true]", "42"] {
            let jsonl =
                format!("{{\"sites\":[],\"networks\":[\"a\"]}}\n{{\"t\":0,\"codes\":{codes}}}\n");
            assert!(from_jsonl(&jsonl).is_err(), "accepted codes {codes}");
        }
    }

    #[test]
    fn jsonl_rejects_duplicate_and_out_of_order_times() {
        let dup = "{\"sites\":[],\"networks\":[\"a\"]}\n\
                   {\"t\":5,\"codes\":[0]}\n{\"t\":5,\"codes\":[0]}\n";
        assert!(matches!(from_jsonl(dup), Err(Error::DuplicateTimestamp(5))));
        let rev = "{\"sites\":[],\"networks\":[\"a\"]}\n\
                   {\"t\":5,\"codes\":[0]}\n{\"t\":4,\"codes\":[0]}\n";
        assert!(matches!(
            from_jsonl(rev),
            Err(Error::InvalidParameter {
                name: "jsonl t",
                ..
            })
        ));
    }

    #[test]
    fn jsonl_never_panics_on_garbage() {
        for bad in [
            "{\"sites\":0,\"networks\":[]}\n",
            "{\"sites\":[],\"networks\":[0]}\n",
            "{\"networks\":[]}\n",
            "{\"sites\":[],\"networks\":[\"a\"]}\n{\"codes\":[0]}\n",
            "{\"sites\":[],\"networks\":[\"a\"]}\n{\"t\":0}\n",
            "{\"sites\":[],\"networks\":[\"a\"]}\n{\"t\":1e40,\"codes\":[0]}\n",
            "\u{0}\n",
        ] {
            assert!(from_jsonl(bad).is_err(), "accepted {bad:?}");
        }
        let deep = format!("{}\n", "[".repeat(1_000_000));
        assert!(from_jsonl(&deep).is_err());
    }

    #[test]
    fn jsonl_round_trips_nasty_labels() {
        let sites = SiteTable::from_names(["L\"A\\X\n"]);
        let mut series = VectorSeries::new(sites, 1);
        series
            .push(RoutingVector::from_catchments(
                Timestamp::from_days(0),
                vec![Catchment::Site(SiteId(0))],
            ))
            .unwrap();
        let labels = vec!["net,\twith\u{1}control".to_owned()];
        let jsonl = to_jsonl(&series, &labels).unwrap();
        let (back, back_labels) = from_jsonl(&jsonl).unwrap();
        assert_eq!(back_labels, labels);
        assert_eq!(
            back.sites()
                .iter()
                .map(|(_, n)| n.to_owned())
                .collect::<Vec<_>>(),
            vec!["L\"A\\X\n".to_owned()]
        );
    }
}
