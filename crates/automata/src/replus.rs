//! `RE+` expressions (Section 5 of the paper).
//!
//! An `RE+` expression is a concatenation `α₁ ⋯ α_k` where every `α_i` is
//! `ε`, `a`, or `a+` for a symbol `a`. The paper's example:
//! `title author+ chapter+`.
//!
//! The module implements the paper's normal form (merging adjacent factors
//! over the same symbol into `a^{=i}` / `a^{≥i}`), the minimal string
//! `e_min`, *vast* strings `e_vast` (Lemma 31), PTIME inclusion, and the
//! translation to DFAs.

use crate::dfa::Dfa;
use crate::regex::Regex;
use crate::Letter;
use std::fmt;
use xmlta_base::{Alphabet, Symbol};

/// One factor of an `RE+` expression: `a` or `a+`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Factor {
    /// The symbol.
    pub sym: Letter,
    /// `true` for `a+`, `false` for a single mandatory `a`.
    pub plus: bool,
}

/// An `RE+` expression: a sequence of factors (ε factors are dropped).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct RePlus {
    factors: Vec<Factor>,
}

/// A normalized factor `a^{=count}` (when `open` is false) or `a^{≥count}`
/// (when `open` is true); adjacent normalized factors have distinct symbols.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NormFactor {
    /// The symbol.
    pub sym: Letter,
    /// The minimal number of occurrences (≥ 1).
    pub count: u32,
    /// Whether more than `count` occurrences are allowed.
    pub open: bool,
}

impl RePlus {
    /// The expression ε (empty concatenation).
    pub fn epsilon() -> Self {
        RePlus::default()
    }

    /// Builds from raw factors.
    pub fn from_factors(factors: Vec<Factor>) -> Self {
        RePlus { factors }
    }

    /// Parses a whitespace-separated factor list, e.g. `title author+ chapter+`.
    /// `eps` and `ε` parse to no factor.
    pub fn parse(input: &str, alphabet: &mut Alphabet) -> Result<RePlus, String> {
        let mut factors = Vec::new();
        for tok in input.split([' ', ',', '\t']).filter(|t| !t.is_empty()) {
            let (name, plus) = match tok.strip_suffix('+') {
                Some(base) => (base, true),
                None => (tok, false),
            };
            if name.is_empty() {
                return Err(format!("dangling `+` in `{input}`"));
            }
            if name.contains(['*', '?', '|', '(', ')']) {
                return Err(format!(
                    "`{tok}` is not an RE+ factor (only `a` and `a+` allowed)"
                ));
            }
            if name == "eps" || name == "ε" {
                if plus {
                    return Err("`eps+` is not an RE+ factor".to_string());
                }
                continue;
            }
            factors.push(Factor {
                sym: alphabet.intern(name).0,
                plus,
            });
        }
        Ok(RePlus { factors })
    }

    /// The raw factors.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Size measure: number of factors (ε counts 0).
    pub fn size(&self) -> usize {
        self.factors.len()
    }

    /// All symbols occurring in the expression.
    pub fn letters(&self) -> Vec<Letter> {
        let mut v: Vec<Letter> = self.factors.iter().map(|f| f.sym).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The paper's normal form: adjacent factors over the same symbol are
    /// merged (`a^{=i} a^{=j} ⇒ a^{=i+j}`, any `+` makes the merged factor
    /// open).
    pub fn normalize(&self) -> Vec<NormFactor> {
        let mut out: Vec<NormFactor> = Vec::new();
        for f in &self.factors {
            match out.last_mut() {
                Some(last) if last.sym == f.sym => {
                    last.count += 1;
                    last.open |= f.plus;
                }
                _ => out.push(NormFactor {
                    sym: f.sym,
                    count: 1,
                    open: f.plus,
                }),
            }
        }
        out
    }

    /// The minimal string `e_min = a₁^{x₁} ⋯ a_n^{x_n}`.
    pub fn min_string(&self) -> Vec<Letter> {
        let mut out = Vec::new();
        for nf in self.normalize() {
            out.extend(std::iter::repeat_n(nf.sym, nf.count as usize));
        }
        out
    }

    /// A canonical vast string: `count + 1` occurrences for open factors,
    /// exactly `count` otherwise (Section 5's `e`-vast strings).
    pub fn vast_string(&self) -> Vec<Letter> {
        let mut out = Vec::new();
        for nf in self.normalize() {
            let reps = nf.count as usize + usize::from(nf.open);
            out.extend(std::iter::repeat_n(nf.sym, reps));
        }
        out
    }

    /// Whether `word ∈ L(e)`.
    ///
    /// After normalization adjacent factors carry distinct symbols, so
    /// membership is a single left-to-right scan over the maximal blocks of
    /// equal symbols.
    pub fn accepts(&self, word: &[Letter]) -> bool {
        let norm = self.normalize();
        let mut i = 0usize;
        for nf in &norm {
            let mut run = 0u32;
            while i < word.len() && word[i] == nf.sym {
                run += 1;
                i += 1;
            }
            if run < nf.count || (!nf.open && run != nf.count) {
                return false;
            }
        }
        i == word.len()
    }

    /// PTIME inclusion test `L(self) ⊆ L(other)`.
    ///
    /// By Corollary 32 it suffices to test `e_min` and one `e`-vast string
    /// for membership in `other`.
    pub fn included_in(&self, other: &RePlus) -> bool {
        other.accepts(&self.min_string()) && other.accepts(&self.vast_string())
    }

    /// Language equivalence.
    pub fn equivalent(&self, other: &RePlus) -> bool {
        self.included_in(other) && other.included_in(self)
    }

    /// Converts to the equivalent [`Regex`].
    pub fn to_regex(&self) -> Regex {
        if self.factors.is_empty() {
            return Regex::Epsilon;
        }
        let items: Vec<Regex> = self
            .factors
            .iter()
            .map(|f| {
                let s = Regex::Sym(f.sym);
                if f.plus {
                    Regex::Plus(Box::new(s))
                } else {
                    s
                }
            })
            .collect();
        if items.len() == 1 {
            items.into_iter().next().expect("non-empty")
        } else {
            Regex::Concat(items)
        }
    }

    /// Direct linear-time translation to a DFA: a chain with self-loops on
    /// the open factors.
    pub fn to_dfa(&self, alphabet_size: usize) -> Dfa {
        let norm = self.normalize();
        let mut d = Dfa::new(alphabet_size);
        let mut cur = 0u32; // state after having matched a prefix
        for nf in &norm {
            for _ in 0..nf.count {
                let next = d.add_state();
                d.set_transition(cur, nf.sym, next);
                cur = next;
            }
            if nf.open {
                d.set_transition(cur, nf.sym, cur);
            }
        }
        d.set_final(cur);
        d
    }

    /// Whether the language is a single string (no open factors).
    pub fn is_singleton(&self) -> bool {
        self.normalize().iter().all(|nf| !nf.open)
    }

    /// Whether the expression is *bounded* in the sense of Section 5: its
    /// language is included in `a₁⁺ ⋯ a_ℓ⁺` with `a_i ≠ a_{i+1}` — which for
    /// RE+ expressions always holds; the witness is the normalized symbol
    /// sequence.
    pub fn bounded_witness(&self) -> Vec<Letter> {
        self.normalize().iter().map(|nf| nf.sym).collect()
    }

    /// Renders the expression through an alphabet.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> RePlusDisplay<'a> {
        RePlusDisplay { re: self, alphabet }
    }
}

/// Pretty-printer handle returned by [`RePlus::display`].
pub struct RePlusDisplay<'a> {
    re: &'a RePlus,
    alphabet: &'a Alphabet,
}

impl fmt::Display for RePlusDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.re.factors.is_empty() {
            return write!(f, "eps");
        }
        for (i, fac) in self.re.factors.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", self.alphabet.name(Symbol(fac.sym)))?;
            if fac.plus {
                write!(f, "+")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rp(s: &str, a: &mut Alphabet) -> RePlus {
        RePlus::parse(s, a).expect("parse RE+")
    }

    #[test]
    fn parse_and_membership() {
        let mut a = Alphabet::new();
        let e = rp("title author+ chapter+", &mut a);
        let t = a.sym("title").0;
        let au = a.sym("author").0;
        let c = a.sym("chapter").0;
        assert!(e.accepts(&[t, au, c]));
        assert!(e.accepts(&[t, au, au, c, c, c]));
        assert!(!e.accepts(&[t, c]));
        assert!(!e.accepts(&[au, t, c]));
        assert!(!e.accepts(&[t, au, c, t]));
    }

    #[test]
    fn normalization_merges_adjacent() {
        let mut a = Alphabet::new();
        // a a+ a ⇒ a^{≥3}
        let e = rp("a a+ a", &mut a);
        let n = e.normalize();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].count, 3);
        assert!(n[0].open);
        assert!(e.accepts(&[0, 0, 0]));
        assert!(e.accepts(&[0, 0, 0, 0, 0]));
        assert!(!e.accepts(&[0, 0]));
    }

    #[test]
    fn min_and_vast_strings() {
        let mut a = Alphabet::new();
        let e = rp("a b+ a+", &mut a);
        let (x, y) = (a.sym("a").0, a.sym("b").0);
        assert_eq!(e.min_string(), vec![x, y, x]);
        assert_eq!(e.vast_string(), vec![x, y, y, x, x]);
        assert!(e.accepts(&e.min_string()));
        assert!(e.accepts(&e.vast_string()));
    }

    #[test]
    fn inclusion_lemma31() {
        let mut a = Alphabet::new();
        let e = rp("a b+", &mut a);
        let f = rp("a+ b+", &mut a);
        assert!(e.included_in(&f));
        assert!(!f.included_in(&e));
        let g = rp("a b", &mut a);
        assert!(g.included_in(&e));
        assert!(!e.included_in(&g));
        assert!(e.included_in(&e));
    }

    #[test]
    fn inclusion_requires_both_min_and_vast() {
        let mut a = Alphabet::new();
        // e = a+, f = a: e_min = a ∈ f but e_vast = aa ∉ f.
        let e = rp("a+", &mut a);
        let f = rp("a", &mut a);
        assert!(!e.included_in(&f));
        assert!(f.included_in(&e));
    }

    #[test]
    fn epsilon_expression() {
        let mut a = Alphabet::new();
        let e = rp("eps", &mut a);
        assert!(e.accepts(&[]));
        assert_eq!(e.min_string(), Vec::<Letter>::new());
        assert!(e.is_singleton());
        let f = rp("ε", &mut a);
        assert!(f.equivalent(&e));
    }

    #[test]
    fn to_dfa_agrees_with_accepts() {
        let mut a = Alphabet::new();
        let e = rp("a b+ c a+", &mut a);
        let sigma = a.len();
        let d = e.to_dfa(sigma);
        // exhaustive small words over 3 letters
        let letters: Vec<Letter> = (0..sigma as u32).collect();
        let mut words: Vec<Vec<Letter>> = vec![vec![]];
        for _ in 0..5 {
            let mut next = Vec::new();
            for w in &words {
                for &l in &letters {
                    let mut w2 = w.clone();
                    w2.push(l);
                    next.push(w2);
                }
            }
            words.extend(next.iter().cloned());
            if words.len() > 2000 {
                break;
            }
        }
        for w in &words {
            assert_eq!(e.accepts(w), d.accepts(w), "word {w:?}");
        }
    }

    #[test]
    fn to_regex_agrees() {
        let mut a = Alphabet::new();
        let e = rp("a b+ a", &mut a);
        let sigma = a.len();
        let d1 = e.to_dfa(sigma);
        let d2 = e.to_regex().to_dfa(sigma);
        assert!(d1.equivalent(&d2));
    }

    #[test]
    fn parse_rejects_non_replus() {
        let mut a = Alphabet::new();
        assert!(RePlus::parse("a*", &mut a).is_err());
        assert!(RePlus::parse("a|b", &mut a).is_err());
        assert!(RePlus::parse("(a b)+", &mut a).is_err());
        assert!(RePlus::parse("eps+", &mut a).is_err());
    }

    #[test]
    fn bounded_witness_alternates() {
        let mut a = Alphabet::new();
        let e = rp("a a+ b a", &mut a);
        let (x, y) = (a.sym("a").0, a.sym("b").0);
        assert_eq!(e.bounded_witness(), vec![x, y, x]);
    }
}
