//! File-scope name lookup for the parser and sema.
//!
//! A program's functions and globals live in plain lists, and both
//! phases look names up in them once per declaration or identifier, so
//! a scan makes the front end quadratic. [`NameIndex`] maps a keyed
//! 64-bit hash of each name to the first position that carries it. It
//! stores no copy of any name: every hit is confirmed against the list
//! itself, and a hash collision falls back to the first-match scan, so
//! answers always equal the scan's.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};

/// Name → position of the first item carrying it, over a list the
/// caller owns and passes to every call.
#[derive(Debug, Default)]
pub(crate) struct NameIndex {
    keys: RandomState,
    first: HashMap<u64, u32>,
}

impl NameIndex {
    /// Indexes every item of `items`.
    pub(crate) fn build<T>(items: &[T], name_of: impl Fn(&T) -> &str) -> Self {
        let mut index = NameIndex {
            keys: RandomState::new(),
            first: HashMap::with_capacity(items.len()),
        };
        for (pos, item) in items.iter().enumerate() {
            index.insert(name_of(item), pos);
        }
        index
    }

    /// Records that `items[pos]` is named `name` (ignored if an earlier
    /// position already answers for the name's hash).
    pub(crate) fn insert(&mut self, name: &str, pos: usize) {
        let pos = u32::try_from(pos).expect("fewer than 2^32 file-scope names");
        self.first.entry(self.keys.hash_one(name)).or_insert(pos);
    }

    /// The first position in `items` named `name`.
    pub(crate) fn get<T>(
        &self,
        items: &[T],
        name: &str,
        name_of: impl Fn(&T) -> &str,
    ) -> Option<usize> {
        let &pos = self.first.get(&self.keys.hash_one(name))?;
        if name_of(&items[pos as usize]) == name {
            return Some(pos as usize);
        }
        // Another name with the same hash came first.
        items.iter().position(|item| name_of(item) == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_match_and_misses() {
        let names = ["a", "b", "a", "c"];
        let index = NameIndex::build(&names, |s| s);
        assert_eq!(index.get(&names, "a", |s| s), Some(0));
        assert_eq!(index.get(&names, "c", |s| s), Some(3));
        assert_eq!(index.get(&names, "zz", |s| s), None);
    }

    #[test]
    fn a_colliding_entry_falls_back_to_the_scan() {
        // As if "b" and "d" hashed like "a": their lookups land on
        // position 0, which holds another name.
        let names = ["a", "b", "c"];
        let mut index = NameIndex::build(&names[..1], |s| s);
        for n in ["b", "d"] {
            index.first.insert(index.keys.hash_one(n), 0);
        }
        assert_eq!(index.get(&names, "a", |s| s), Some(0));
        assert_eq!(index.get(&names, "b", |s| s), Some(1));
        assert_eq!(index.get(&names, "d", |s| s), None);
    }
}
