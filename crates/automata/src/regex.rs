//! Regular expressions with a Glushkov translation to NFAs.
//!
//! The concrete syntax used throughout the workspace mirrors the paper's DTD
//! rules: juxtaposition (whitespace or `,`) is concatenation, `|` is union,
//! postfix `* + ?` are Kleene star/plus/optional, `eps` (or `ε`) denotes the
//! empty word, and `empty` denotes the empty language. Example from the
//! paper: `title, (chapter, title*)*, chapter*`.

use crate::nfa::Nfa;
use crate::Letter;
use std::fmt;
use xmlta_base::Alphabet;

/// Abstract syntax of regular expressions over dense letters.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The empty word ε.
    Epsilon,
    /// A single letter.
    Sym(Letter),
    /// Concatenation (in order).
    Concat(Vec<Regex>),
    /// Union.
    Alt(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// Kleene plus.
    Plus(Box<Regex>),
    /// Optional.
    Opt(Box<Regex>),
}

impl Regex {
    /// Parses `input` with names interned into `alphabet`.
    pub fn parse(input: &str, alphabet: &mut Alphabet) -> Result<Regex, RegexParseError> {
        Parser::new(input, alphabet).parse()
    }

    /// Number of symbol occurrences + operators (a rough size measure used
    /// when reporting instance sizes).
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Sym(_) => 1,
            Regex::Concat(rs) | Regex::Alt(rs) => 1 + rs.iter().map(Regex::size).sum::<usize>(),
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => 1 + r.size(),
        }
    }

    /// Whether ε ∈ L(r).
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty => false,
            Regex::Epsilon => true,
            Regex::Sym(_) => false,
            Regex::Concat(rs) => rs.iter().all(Regex::nullable),
            Regex::Alt(rs) => rs.iter().any(Regex::nullable),
            Regex::Star(_) | Regex::Opt(_) => true,
            Regex::Plus(r) => r.nullable(),
        }
    }

    /// All letters occurring in the expression.
    pub fn letters(&self) -> Vec<Letter> {
        let mut out = Vec::new();
        self.collect_letters(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_letters(&self, out: &mut Vec<Letter>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Sym(l) => out.push(*l),
            Regex::Concat(rs) | Regex::Alt(rs) => {
                for r in rs {
                    r.collect_letters(out);
                }
            }
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => r.collect_letters(out),
        }
    }

    /// Glushkov (position automaton) construction.
    ///
    /// The resulting NFA has one state per symbol occurrence plus one start
    /// state, no ε-transitions, and at most a quadratic number of edges —
    /// linear for the deterministic ("one-unambiguous") expressions DTDs use
    /// in practice.
    pub fn to_nfa(&self, alphabet_size: usize) -> Nfa {
        let mut positions: Vec<Letter> = Vec::new();
        let info = GlushkovInfo::build(self, &mut positions);
        let mut nfa = Nfa::new(alphabet_size);
        let start = nfa.add_state();
        nfa.set_initial(start);
        // state p+1 corresponds to position p.
        for _ in 0..positions.len() {
            nfa.add_state();
        }
        for &p in &info.first {
            nfa.add_transition(start, positions[p], p as u32 + 1);
        }
        for (p, follows) in info.follow.iter().enumerate() {
            for &q in follows {
                nfa.add_transition(p as u32 + 1, positions[q], q as u32 + 1);
            }
        }
        for &p in &info.last {
            nfa.set_final(p as u32 + 1);
        }
        if info.nullable {
            nfa.set_final(start);
        }
        nfa
    }

    /// Convenience: Glushkov + subset construction.
    pub fn to_dfa(&self, alphabet_size: usize) -> crate::dfa::Dfa {
        crate::ops::determinize(&self.to_nfa(alphabet_size))
    }

    /// Renders the expression with names resolved through `alphabet`.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> RegexDisplay<'a> {
        RegexDisplay { re: self, alphabet }
    }
}

/// Pretty-printer handle returned by [`Regex::display`].
pub struct RegexDisplay<'a> {
    re: &'a Regex,
    alphabet: &'a Alphabet,
}

impl fmt::Display for RegexDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(re: &Regex, a: &Alphabet, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
            match re {
                Regex::Empty => write!(f, "empty"),
                Regex::Epsilon => write!(f, "eps"),
                Regex::Sym(l) => write!(f, "{}", a.name(xmlta_base::Symbol(*l))),
                Regex::Concat(rs) => {
                    let need = prec > 1;
                    if need {
                        write!(f, "(")?;
                    }
                    for (i, r) in rs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        go(r, a, f, 2)?;
                    }
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Regex::Alt(rs) => {
                    let need = prec > 0;
                    if need {
                        write!(f, "(")?;
                    }
                    for (i, r) in rs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " | ")?;
                        }
                        go(r, a, f, 1)?;
                    }
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Regex::Star(r) => {
                    go(r, a, f, 3)?;
                    write!(f, "*")
                }
                Regex::Plus(r) => {
                    go(r, a, f, 3)?;
                    write!(f, "+")
                }
                Regex::Opt(r) => {
                    go(r, a, f, 3)?;
                    write!(f, "?")
                }
            }
        }
        go(self.re, self.alphabet, f, 0)
    }
}

/// Glushkov sets for a regex whose positions are numbered in `positions`.
struct GlushkovInfo {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
    /// `follow[p]` = positions that may follow position `p`.
    follow: Vec<Vec<usize>>,
}

impl GlushkovInfo {
    fn build(re: &Regex, positions: &mut Vec<Letter>) -> GlushkovInfo {
        match re {
            Regex::Empty => GlushkovInfo {
                nullable: false,
                first: vec![],
                last: vec![],
                follow: vec![],
            },
            Regex::Epsilon => GlushkovInfo {
                nullable: true,
                first: vec![],
                last: vec![],
                follow: vec![],
            },
            Regex::Sym(l) => {
                let p = positions.len();
                positions.push(*l);
                GlushkovInfo {
                    nullable: false,
                    first: vec![p],
                    last: vec![p],
                    follow: vec![], // follow is global; indexed later
                }
            }
            Regex::Concat(rs) => {
                let mut acc = GlushkovInfo {
                    nullable: true,
                    first: vec![],
                    last: vec![],
                    follow: vec![],
                };
                for r in rs {
                    let info = GlushkovInfo::build(r, positions);
                    acc = concat_info(acc, info, positions.len());
                }
                acc
            }
            Regex::Alt(rs) => {
                let mut nullable = false;
                let mut first = vec![];
                let mut last = vec![];
                let mut follow: Vec<Vec<usize>> = vec![];
                for r in rs {
                    let info = GlushkovInfo::build(r, positions);
                    nullable |= info.nullable;
                    first.extend(info.first);
                    last.extend(info.last);
                    merge_follow(&mut follow, info.follow, positions.len());
                }
                GlushkovInfo {
                    nullable,
                    first,
                    last,
                    follow,
                }
            }
            Regex::Star(r) | Regex::Plus(r) => {
                let mut info = GlushkovInfo::build(r, positions);
                grow_follow(&mut info.follow, positions.len());
                // last × first loops
                for &l in &info.last {
                    for &f in &info.first {
                        if !info.follow[l].contains(&f) {
                            info.follow[l].push(f);
                        }
                    }
                }
                if matches!(re, Regex::Star(_)) {
                    info.nullable = true;
                }
                info
            }
            Regex::Opt(r) => {
                let mut info = GlushkovInfo::build(r, positions);
                info.nullable = true;
                info
            }
        }
    }
}

fn grow_follow(follow: &mut Vec<Vec<usize>>, n: usize) {
    while follow.len() < n {
        follow.push(Vec::new());
    }
}

fn merge_follow(into: &mut Vec<Vec<usize>>, from: Vec<Vec<usize>>, n: usize) {
    grow_follow(into, n);
    for (p, fs) in from.into_iter().enumerate() {
        for f in fs {
            if !into[p].contains(&f) {
                into[p].push(f);
            }
        }
    }
}

fn concat_info(a: GlushkovInfo, b: GlushkovInfo, n: usize) -> GlushkovInfo {
    let mut follow = a.follow;
    merge_follow(&mut follow, b.follow, n);
    for &l in &a.last {
        for &f in &b.first {
            if !follow[l].contains(&f) {
                follow[l].push(f);
            }
        }
    }
    let mut first = a.first.clone();
    if a.nullable {
        first.extend(b.first.iter().copied());
    }
    let mut last = b.last.clone();
    if b.nullable {
        last.extend(a.last.iter().copied());
    }
    GlushkovInfo {
        nullable: a.nullable && b.nullable,
        first,
        last,
        follow,
    }
}

/// Error produced by [`Regex::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for RegexParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for RegexParseError {}

struct Parser<'a, 'b> {
    input: &'a str,
    pos: usize,
    alphabet: &'b mut Alphabet,
}

impl<'a, 'b> Parser<'a, 'b> {
    fn new(input: &'a str, alphabet: &'b mut Alphabet) -> Self {
        Parser {
            input,
            pos: 0,
            alphabet,
        }
    }

    fn error(&self, message: impl Into<String>) -> RegexParseError {
        RegexParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn rest(&self) -> &str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let trimmed = r.trim_start();
            self.pos += r.len() - trimmed.len();
            // `,` is treated as pure whitespace (DTD-style concatenation).
            if self.rest().starts_with(',') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn parse(mut self) -> Result<Regex, RegexParseError> {
        let re = self.parse_alt()?;
        self.skip_ws();
        if !self.rest().is_empty() {
            return Err(self.error(format!("unexpected trailing input `{}`", self.rest())));
        }
        Ok(re)
    }

    fn parse_alt(&mut self) -> Result<Regex, RegexParseError> {
        let mut branches = vec![self.parse_cat()?];
        loop {
            self.skip_ws();
            if self.peek() == Some('|') {
                self.pos += 1;
                branches.push(self.parse_cat()?);
            } else {
                break;
            }
        }
        if branches.len() == 1 {
            Ok(branches.pop().expect("non-empty"))
        } else {
            Ok(Regex::Alt(branches))
        }
    }

    fn parse_cat(&mut self) -> Result<Regex, RegexParseError> {
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None | Some('|') | Some(')') => break,
                _ => items.push(self.parse_rep()?),
            }
        }
        match items.len() {
            0 => Ok(Regex::Epsilon),
            1 => Ok(items.pop().expect("non-empty")),
            _ => Ok(Regex::Concat(items)),
        }
    }

    fn parse_rep(&mut self) -> Result<Regex, RegexParseError> {
        let mut atom = self.parse_atom()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.pos += 1;
                    atom = Regex::Star(Box::new(atom));
                }
                Some('+') => {
                    self.pos += 1;
                    atom = Regex::Plus(Box::new(atom));
                }
                Some('?') => {
                    self.pos += 1;
                    atom = Regex::Opt(Box::new(atom));
                }
                _ => break,
            }
        }
        Ok(atom)
    }

    fn parse_atom(&mut self) -> Result<Regex, RegexParseError> {
        self.skip_ws();
        match self.peek() {
            Some('(') => {
                self.pos += 1;
                let inner = self.parse_alt()?;
                self.skip_ws();
                if self.peek() != Some(')') {
                    return Err(self.error("expected `)`"));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(c) if is_ident_char(c) => {
                let start = self.pos;
                while self.peek().is_some_and(is_ident_char) {
                    self.pos += self.peek().expect("peeked").len_utf8();
                }
                let name = &self.input[start..self.pos];
                match name {
                    "eps" | "ε" => Ok(Regex::Epsilon),
                    "empty" => Ok(Regex::Empty),
                    _ => Ok(Regex::Sym(self.alphabet.intern(name).0)),
                }
            }
            Some(c) => Err(self.error(format!("unexpected character `{c}`"))),
            None => Err(self.error("unexpected end of input")),
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '#' | '$' | '-' | 'ε')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accepts(re: &str, word: &[&str]) -> bool {
        let mut a = Alphabet::new();
        let r = Regex::parse(re, &mut a).expect("parse");
        let letters: Vec<Letter> = word.iter().map(|w| a.intern(w).0).collect();
        let sigma = a.len();
        r.to_nfa(sigma).accepts(&letters)
    }

    #[test]
    fn parse_and_match_paper_dtd_rules() {
        // book → title author+ chapter+
        assert!(accepts(
            "title author+ chapter+",
            &["title", "author", "chapter"]
        ));
        assert!(accepts(
            "title author+ chapter+",
            &["title", "author", "author", "chapter", "chapter"]
        ));
        assert!(!accepts("title author+ chapter+", &["title", "chapter"]));
        // section → title paragraph+ section*
        assert!(accepts(
            "title paragraph+ section*",
            &["title", "paragraph"]
        ));
        assert!(accepts(
            "title paragraph+ section*",
            &["title", "paragraph", "section", "section"]
        ));
    }

    #[test]
    fn parse_example_11_output_dtd() {
        // book → title, (chapter, title*)*, chapter*
        let re = "title, (chapter, title*)*, chapter*";
        assert!(accepts(re, &["title"]));
        assert!(accepts(
            re,
            &["title", "chapter", "title", "title", "chapter"]
        ));
        assert!(!accepts(re, &["chapter"]));
        // chapter → title, intro | eps
        let re2 = "title, intro | eps";
        assert!(accepts(re2, &["title", "intro"]));
        assert!(accepts(re2, &[]));
        assert!(!accepts(re2, &["title"]));
    }

    #[test]
    fn alternation_precedence() {
        // a b | c = (a b) | c
        assert!(accepts("a b | c", &["a", "b"]));
        assert!(accepts("a b | c", &["c"]));
        assert!(!accepts("a b | c", &["a", "c"]));
    }

    #[test]
    fn optional_and_star() {
        assert!(accepts("a? b*", &[]));
        assert!(accepts("a? b*", &["a"]));
        assert!(accepts("a? b*", &["b", "b", "b"]));
        assert!(!accepts("a? b*", &["a", "a"]));
    }

    #[test]
    fn empty_language_matches_nothing() {
        assert!(!accepts("empty", &[]));
        assert!(!accepts("empty", &["a"]));
        // But concatenated with ε-accepting context still nothing.
        assert!(!accepts("a empty", &["a"]));
    }

    #[test]
    fn nullable_computation() {
        let mut a = Alphabet::new();
        assert!(Regex::parse("a*", &mut a).unwrap().nullable());
        assert!(Regex::parse("a? b?", &mut a).unwrap().nullable());
        assert!(!Regex::parse("a+", &mut a).unwrap().nullable());
        assert!(Regex::parse("eps", &mut a).unwrap().nullable());
        assert!(!Regex::parse("empty", &mut a).unwrap().nullable());
    }

    #[test]
    fn parse_errors() {
        let mut a = Alphabet::new();
        assert!(Regex::parse("(a", &mut a).is_err());
        assert!(Regex::parse("a )", &mut a).is_err());
        assert!(Regex::parse("&", &mut a).is_err());
    }

    #[test]
    fn display_roundtrip() {
        let mut a = Alphabet::new();
        let r = Regex::parse("title (chapter title*)* chapter*", &mut a).unwrap();
        let s = format!("{}", r.display(&a));
        let r2 = Regex::parse(&s, &mut a).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn glushkov_star_loop() {
        // (ab)* — needs last→first follow edges.
        assert!(accepts("(a b)*", &[]));
        assert!(accepts("(a b)*", &["a", "b", "a", "b"]));
        assert!(!accepts("(a b)*", &["a", "a"]));
    }

    #[test]
    fn to_dfa_agrees_with_nfa() {
        let mut a = Alphabet::new();
        let r = Regex::parse("(a|b)* a", &mut a).unwrap();
        let sigma = a.len();
        let nfa = r.to_nfa(sigma);
        let dfa = r.to_dfa(sigma);
        let words: Vec<Vec<Letter>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![0, 1],
            vec![1, 0],
            vec![1, 1, 0],
            vec![0, 0, 1],
        ];
        for w in words {
            assert_eq!(nfa.accepts(&w), dfa.accepts(&w), "word {w:?}");
        }
    }
}
