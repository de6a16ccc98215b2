//! Keyed pseudonymization.
//!
//! The paper names "polymorphic encryption and pseudonymization" as the
//! security half of the confidentiality answer (§2). This module provides a
//! keyed pseudonymizer: identifiers are mapped through a keyed hash
//! (SipHash-flavoured mixing of an FNV stream) to stable tokens. The same
//! key maps an identifier to the same pseudonym (joins still work); without
//! the key, pseudonyms are not linkable back. Different keys produce
//! *unlinkable* pseudonym domains — the essence of "polymorphic"
//! pseudonymization: each data consumer gets its own domain.

use fact_data::{Column, Dataset, Result};

/// A keyed pseudonymizer.
#[derive(Debug, Clone)]
pub struct Pseudonymizer {
    key: u64,
}

impl Pseudonymizer {
    /// Create with a secret key.
    pub fn new(key: u64) -> Self {
        Pseudonymizer { key }
    }

    /// Pseudonymize one identifier to a 16-hex-digit token.
    pub fn token(&self, id: &str) -> String {
        format!("{:016x}", self.hash(id))
    }

    fn hash(&self, id: &str) -> u64 {
        // keyed FNV-1a stream followed by two rounds of splitmix64 finalizing
        let mut h = 0xcbf29ce484222325u64 ^ self.key;
        for b in id.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= self.key.rotate_left(32);
        // splitmix64 finalizer
        for _ in 0..2 {
            h = h.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = h;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            h = z ^ (z >> 31);
        }
        h
    }

    /// Replace a categorical identifier column with pseudonym tokens. A
    /// null identifier stays null, over an empty placeholder that is no
    /// one's token, so a missing identifier is never linked to a person.
    pub fn pseudonymize_column(&self, ds: &Dataset, column: &str) -> Result<Dataset> {
        let (col, cat) = ds.cat_column(column)?;
        let tokens: Vec<String> = (0..col.len())
            .map(|i| match col.is_null(i) {
                true => String::new(),
                false => self.token(cat.label(i)),
            })
            .collect();
        let mut tokenized = Column::from_labels(&tokens);
        if let Some(valid) = col.validity() {
            tokenized = tokenized.with_validity(valid.to_vec())?;
        }
        let mut out = ds.clone();
        out.replace_column(column, tokenized)?;
        Ok(out)
    }
}

/// Check that two pseudonym domains (same data, different keys) are
/// unlinkable at the token level: no token should appear in both.
pub fn domains_unlinkable(a: &[String], b: &[String]) -> bool {
    use std::collections::HashSet;
    let set: HashSet<&String> = a.iter().collect();
    !b.iter().any(|t| set.contains(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_data::FactError;

    #[test]
    fn stable_within_a_key() {
        let p = Pseudonymizer::new(42);
        assert_eq!(p.token("alice"), p.token("alice"));
        assert_ne!(p.token("alice"), p.token("bob"));
        assert_eq!(p.token("alice").len(), 16);
    }

    #[test]
    fn different_keys_give_different_domains() {
        let p1 = Pseudonymizer::new(1);
        let p2 = Pseudonymizer::new(2);
        let ids = ["alice", "bob", "carol", "dave"];
        let d1: Vec<String> = ids.iter().map(|i| p1.token(i)).collect();
        let d2: Vec<String> = ids.iter().map(|i| p2.token(i)).collect();
        assert!(domains_unlinkable(&d1, &d2));
    }

    #[test]
    fn no_collisions_over_many_ids() {
        use std::collections::HashSet;
        let p = Pseudonymizer::new(7);
        let tokens: HashSet<String> = (0..50_000).map(|i| p.token(&format!("user{i}"))).collect();
        assert_eq!(tokens.len(), 50_000);
    }

    #[test]
    fn column_pseudonymization_preserves_joins() {
        let ds = Dataset::builder()
            .cat("user", &["u1", "u2", "u1", "u3"])
            .f64("v", vec![1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let p = Pseudonymizer::new(99);
        let out = p.pseudonymize_column(&ds, "user").unwrap();
        let toks = out.labels("user").unwrap();
        assert_eq!(toks[0], toks[2], "same user, same token");
        assert_ne!(toks[0], toks[1]);
        // raw ids gone
        assert!(!toks.contains(&"u1".to_string()));
        assert!(matches!(
            p.pseudonymize_column(&ds, "v"),
            Err(FactError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn a_null_identifier_stays_null_and_unlinked() {
        let user = Column::from_labels(&["u1", "u2", "u2"])
            .with_validity(vec![true, false, true])
            .unwrap();
        let ds = Dataset::from_columns(vec![("user".into(), user)]).unwrap();
        let p = Pseudonymizer::new(3);
        let out = p.pseudonymize_column(&ds, "user").unwrap();
        let col = out.column("user").unwrap();
        assert!(col.is_null(1), "the missing identifier became a value");
        assert!(!col.is_null(0) && !col.is_null(2));
        let toks = out.labels("user").unwrap();
        assert_eq!(toks[0], p.token("u1"));
        assert_eq!(toks[2], p.token("u2"));
        // the null slot's placeholder is no one's pseudonym
        assert!(toks[1] != toks[0] && toks[1] != toks[2], "{toks:?}");
    }

    #[test]
    fn avalanche_on_similar_ids() {
        let p = Pseudonymizer::new(5);
        let a = p.token("user1");
        let b = p.token("user2");
        // tokens should differ in many hex positions, not just the tail
        let diff = a.chars().zip(b.chars()).filter(|(x, y)| x != y).count();
        assert!(diff >= 8, "weak diffusion: {a} vs {b}");
    }
}
