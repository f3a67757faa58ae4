//! Identifier-aware tokenizer.
//!
//! SQL text is mostly identifiers, keywords and literals. Users searching a
//! query log type things like `salinity temp` and expect to find
//! `SELECT * FROM WaterSalinity, WaterTemp`, so the tokenizer:
//!
//! * lowercases everything,
//! * splits on non-alphanumerics,
//! * additionally splits `snake_case` and `CamelCase` identifiers into their
//!   components **and** keeps the whole identifier as a token,
//! * keeps numbers as tokens.

use std::ops::Range;

/// Tokenize `text` into lowercase terms.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut parts = Vec::new();
    for raw in text.split(|c: char| !c.is_alphanumeric() && c != '_') {
        if raw.is_empty() {
            continue;
        }
        parts.clear();
        identifier_parts(raw, &mut parts);
        if parts.len() > 1 {
            // Components lowercase char by char: `str::to_lowercase`
            // would read a component-final `Σ` as `ς`.
            out.extend(parts.iter().map(|p| {
                raw[p.clone()]
                    .chars()
                    .flat_map(char::to_lowercase)
                    .collect()
            }));
        }
        out.push(raw.to_lowercase());
    }
    out
}

/// Split an identifier on `_` boundaries and lower↔upper transitions,
/// pushing each component's byte range onto `parts`.
/// `WaterSalinity` → `Water`, `Salinity`; `loc_x` → `loc`, `x`.
fn identifier_parts(s: &str, parts: &mut Vec<Range<usize>>) {
    // The open component is `start..i`; it is empty when `start == i`.
    let mut start = 0;
    let mut prev = '_';
    let mut chars = s.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if c == '_' {
            if start < i {
                parts.push(start..i);
            }
            start = i + 1;
        } else if start < i && c.is_uppercase() {
            // CamelCase boundary: lowercase/digit followed by uppercase, or
            // uppercase followed by uppercase+lowercase (`SQLQuery` → sql query).
            let next_lower = chars.peek().is_some_and(|&(_, n)| n.is_lowercase());
            if prev.is_lowercase() || prev.is_numeric() || (prev.is_uppercase() && next_lower) {
                parts.push(start..i);
                start = i;
            }
        }
        prev = c;
    }
    if start < s.len() {
        parts.push(start..s.len());
    }
}

/// The tokenizer as first written, one `String` per component built
/// char by char; [`tokenize`] is tested against it.
#[cfg(test)]
pub(crate) fn reference_tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for raw in text.split(|c: char| !c.is_alphanumeric() && c != '_') {
        if raw.is_empty() {
            continue;
        }
        let whole = raw.to_lowercase();
        let parts = split_identifier(raw);
        if parts.len() > 1 {
            for p in &parts {
                out.push(p.clone());
            }
        }
        out.push(whole);
    }
    out
}

/// Split an identifier on `_` boundaries and lower↔upper transitions.
/// `WaterSalinity` → `["water", "salinity"]`; `loc_x` → `["loc", "x"]`.
#[cfg(test)]
fn split_identifier(s: &str) -> Vec<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut cur = String::new();
    let chars: Vec<char> = s.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '_' {
            if !cur.is_empty() {
                parts.push(std::mem::take(&mut cur));
            }
            continue;
        }
        // CamelCase boundary: lowercase/digit followed by uppercase, or
        // uppercase followed by uppercase+lowercase (`SQLQuery` → sql query).
        if !cur.is_empty() && c.is_uppercase() {
            let prev = chars[i - 1];
            let next_lower = chars.get(i + 1).is_some_and(|n| n.is_lowercase());
            if prev.is_lowercase() || prev.is_numeric() || (prev.is_uppercase() && next_lower) {
                parts.push(std::mem::take(&mut cur));
            }
        }
        cur.extend(c.to_lowercase());
    }
    if !cur.is_empty() {
        parts.push(cur);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_camel_case() {
        assert_eq!(split_identifier("WaterSalinity"), vec!["water", "salinity"]);
        assert_eq!(split_identifier("SQLQuery"), vec!["sql", "query"]);
        assert_eq!(split_identifier("loc_x"), vec!["loc", "x"]);
        assert_eq!(split_identifier("simple"), vec!["simple"]);
    }

    #[test]
    fn tokenizes_sql() {
        let toks = tokenize("SELECT * FROM WaterSalinity WHERE temp < 18");
        assert!(toks.contains(&"select".to_string()));
        assert!(toks.contains(&"watersalinity".to_string()));
        assert!(toks.contains(&"water".to_string()));
        assert!(toks.contains(&"salinity".to_string()));
        assert!(toks.contains(&"18".to_string()));
    }

    #[test]
    fn keeps_whole_and_parts() {
        let toks = tokenize("loc_x");
        assert!(toks.contains(&"loc_x".to_string()));
        assert!(toks.contains(&"loc".to_string()));
        assert!(toks.contains(&"x".to_string()));
    }

    #[test]
    fn empty_and_punctuation() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("();,.").is_empty());
    }

    #[test]
    fn quoted_strings_tokenize_their_words() {
        let toks = tokenize("lake = 'Lake Washington'");
        assert!(toks.contains(&"washington".to_string()));
    }
}
