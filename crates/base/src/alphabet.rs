//! Finite alphabets of interned element names.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dense identifier for an alphabet symbol (an XML element name).
///
/// Symbols are cheap to copy and compare; the human-readable name lives in
/// the [`Alphabet`] that created the symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Returns the symbol's dense index, usable to index per-symbol tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a symbol from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        Symbol(i as u32)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An interner mapping element names to dense [`Symbol`] ids.
///
/// Alphabets are append-only: interning a new name never invalidates
/// previously returned symbols. They are cheaply cloneable via an internal
/// copy (alphabets are small — tens of symbols in every instance considered
/// by the paper).
#[derive(Clone, Default)]
pub struct Alphabet {
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, Symbol>,
}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an alphabet containing the given names, in order.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut a = Self::new();
        for n in names {
            a.intern(n.as_ref());
        }
        a
    }

    /// Interns `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let arc: Arc<str> = Arc::from(name);
        let s = Symbol(self.names.len() as u32);
        self.names.push(arc.clone());
        self.by_name.insert(arc, s);
        s
    }

    /// Returns the symbol for `name` if it was interned before.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// Returns the symbol for `name`, panicking when absent.
    ///
    /// Convenient in tests and examples where the alphabet is fixed.
    pub fn sym(&self, name: &str) -> Symbol {
        self.lookup(name)
            .unwrap_or_else(|| panic!("symbol `{name}` not in alphabet"))
    }

    /// Returns the name of `s`.
    pub fn name(&self, s: Symbol) -> &str {
        &self.names[s.index()]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all symbols in interning order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.names.len() as u32).map(Symbol)
    }

    /// Renders a string of symbols as whitespace-separated names.
    pub fn render(&self, word: &[Symbol]) -> String {
        let mut out = String::new();
        for (i, s) in word.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.name(*s));
        }
        out
    }
}

/// Alphabets are equal when they name the same symbols in the same order;
/// `by_name` is derived from `names`, so it takes no part.
impl PartialEq for Alphabet {
    fn eq(&self, other: &Alphabet) -> bool {
        self.names == other.names
    }
}

impl Eq for Alphabet {}

impl Hash for Alphabet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.names.hash(state);
    }
}

impl fmt::Debug for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.names.iter().map(|n| n.as_ref()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut a = Alphabet::new();
        let x = a.intern("book");
        let y = a.intern("chapter");
        assert_ne!(x, y);
        assert_eq!(a.intern("book"), x);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn lookup_and_name_roundtrip() {
        let a = Alphabet::from_names(["a", "b", "c"]);
        for s in a.symbols() {
            assert_eq!(a.lookup(a.name(s)), Some(s));
        }
        assert_eq!(a.lookup("missing"), None);
    }

    #[test]
    fn render_joins_names() {
        let a = Alphabet::from_names(["title", "author"]);
        let w = vec![a.sym("title"), a.sym("author"), a.sym("author")];
        assert_eq!(a.render(&w), "title author author");
    }

    #[test]
    #[should_panic(expected = "not in alphabet")]
    fn sym_panics_on_missing() {
        let a = Alphabet::new();
        a.sym("nope");
    }
}
