//! Parser for the textual instance format.
//!
//! An instance file is a sequence of sections:
//!
//! ```text
//! # comments: full lines starting with `#` or `//`
//! alphabet { book title author chapter }
//!
//! input dtd {
//!   start book
//!   book -> title author+ chapter+
//!   chapter -> @replus title author
//!   title -> @dfa {
//!     states 1
//!     initial 0
//!     final 0
//!   }
//! }
//!
//! output dtd {
//!   start book
//!   book -> title chapter*
//! }
//!
//! transducer {
//!   states q
//!   initial q
//!   (q, book) -> book(q)
//!   (q, chapter) -> chapter <q, .//title>
//! }
//! ```
//!
//! Schemas may also be unranked tree automata (`input nta { ... }`) whose
//! transition languages are regular expressions over declared state names.
//! See the crate docs for the full grammar. Every error carries a 1-based
//! line/column [`Loc`].

use crate::error::{Loc, ParseError};
use typecheck_core::{Instance, Schema};
use xmlta_automata::{Dfa, Nfa, RePlus, Regex};
use xmlta_base::{Alphabet, FxHashSet, Symbol};
use xmlta_schema::{Dtd, Nta, StringLang};
use xmlta_transducer::{Transducer, TransducerBuilder};

/// Names the surface syntax can spell: the identifier charset shared with
/// the regex / rhs parsers, minus the reserved regex words. A leading `#`
/// is additionally excluded (a rule line starting with one would read as a
/// comment); `#` elsewhere in a name is fine.
pub(crate) fn is_ident(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('#')
        && !matches!(name, "eps" | "empty" | "ε")
        && name
            .chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '#' | '$' | '-' | '\''))
}

/// Line cursor over the source, tracking 1-based line numbers and skipping
/// blank and full-line-comment lines.
struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor {
            lines: src.lines(),
            line_no: 0,
        }
    }

    /// Next significant line: `(line_no, raw_line, trimmed)`.
    fn next(&mut self) -> Option<(usize, &'a str, &'a str)> {
        loop {
            let raw = self.lines.next()?;
            self.line_no += 1;
            let t = raw.trim();
            if t.is_empty() || t.starts_with('#') || t.starts_with("//") {
                continue;
            }
            return Some((self.line_no, raw, t));
        }
    }

    fn eof_loc(&self) -> Loc {
        Loc::new(self.line_no + 1, 1)
    }
}

/// Column (1-based) of `sub` within `raw`; `sub` must be a slice of `raw`.
fn col_of(raw: &str, sub: &str) -> usize {
    let off = sub.as_ptr() as usize - raw.as_ptr() as usize;
    off + 1
}

fn err_at(line: usize, raw: &str, sub: &str, msg: impl Into<String>) -> ParseError {
    ParseError::new(Loc::new(line, col_of(raw, sub)), msg)
}

/// Parses a complete instance file.
pub fn parse_instance(src: &str) -> Result<Instance, ParseError> {
    let mut cur = Cursor::new(src);
    let mut alphabet = Alphabet::new();
    let mut input: Option<Schema> = None;
    let mut output: Option<Schema> = None;
    let mut transducer: Option<Transducer> = None;

    while let Some((ln, raw, line)) = cur.next() {
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["alphabet", "{", rest @ ..] => {
                parse_alphabet(&mut cur, &mut alphabet, rest, ln, raw)?;
            }
            ["input", "dtd", "{"] => {
                check_unset(input.is_none(), "input", ln, raw, line)?;
                input = Some(Schema::Dtd(parse_dtd_section(&mut cur, &mut alphabet)?));
            }
            ["output", "dtd", "{"] => {
                check_unset(output.is_none(), "output", ln, raw, line)?;
                output = Some(Schema::Dtd(parse_dtd_section(&mut cur, &mut alphabet)?));
            }
            ["input", "nta", "{"] => {
                check_unset(input.is_none(), "input", ln, raw, line)?;
                input = Some(Schema::Nta(parse_nta_section(&mut cur, &mut alphabet)?));
            }
            ["output", "nta", "{"] => {
                check_unset(output.is_none(), "output", ln, raw, line)?;
                output = Some(Schema::Nta(parse_nta_section(&mut cur, &mut alphabet)?));
            }
            ["transducer", "{"] => {
                check_unset(transducer.is_none(), "transducer", ln, raw, line)?;
                transducer = Some(parse_transducer_section(&mut cur, &mut alphabet)?);
            }
            _ => {
                return Err(err_at(
                    ln,
                    raw,
                    line,
                    format!(
                        "expected a section header (`alphabet {{`, `input dtd {{`, \
                         `input nta {{`, `output dtd {{`, `output nta {{`, \
                         `transducer {{`), found `{line}`"
                    ),
                ));
            }
        }
    }

    let eof = cur.eof_loc();
    let missing = |what: &str| ParseError::new(eof, format!("instance has no {what} section"));
    let input = input.ok_or_else(|| missing("input schema"))?;
    let output = output.ok_or_else(|| missing("output schema"))?;
    let transducer = transducer.ok_or_else(|| missing("transducer"))?;
    Ok(Instance {
        alphabet,
        input,
        output,
        transducer,
    })
}

fn check_unset(
    unset: bool,
    what: &str,
    ln: usize,
    raw: &str,
    line: &str,
) -> Result<(), ParseError> {
    if unset {
        Ok(())
    } else {
        Err(err_at(ln, raw, line, format!("duplicate {what} section")))
    }
}

fn parse_alphabet(
    cur: &mut Cursor<'_>,
    alphabet: &mut Alphabet,
    inline: &[&str],
    header_ln: usize,
    header_raw: &str,
) -> Result<(), ParseError> {
    let mut intern = |name: &str, ln: usize, raw: &str| -> Result<bool, ParseError> {
        if name == "}" {
            return Ok(true);
        }
        if !is_ident(name) {
            return Err(err_at(ln, raw, name, format!("invalid name `{name}`")));
        }
        alphabet.intern(name);
        Ok(false)
    };
    for name in inline {
        if intern(name, header_ln, header_raw)? {
            return Ok(());
        }
    }
    loop {
        let Some((ln, raw, line)) = cur.next() else {
            return Err(ParseError::new(cur.eof_loc(), "unclosed alphabet section"));
        };
        for name in line.split_whitespace() {
            if intern(name, ln, raw)? {
                return Ok(());
            }
        }
    }
}

fn parse_dtd_section(cur: &mut Cursor<'_>, alphabet: &mut Alphabet) -> Result<Dtd, ParseError> {
    let mut start: Option<Symbol> = None;
    let mut rules: Vec<(Symbol, StringLang)> = Vec::new();
    loop {
        let Some((ln, raw, line)) = cur.next() else {
            return Err(ParseError::new(cur.eof_loc(), "unclosed dtd section"));
        };
        if line == "}" {
            break;
        }
        if let Some((lhs, rhs)) = line.split_once("->") {
            let lhs = lhs.trim();
            if !is_ident(lhs) {
                return Err(err_at(ln, raw, line, format!("invalid rule name `{lhs}`")));
            }
            let sym = alphabet.intern(lhs);
            if rules.iter().any(|(s, _)| *s == sym) {
                return Err(err_at(ln, raw, line, format!("duplicate rule for `{lhs}`")));
            }
            let rhs = rhs.trim();
            rules.push((sym, parse_lang(cur, alphabet, ln, raw, rhs)?));
        } else {
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks.as_slice() {
                ["start", name] if is_ident(name) => {
                    if start.is_some() {
                        return Err(err_at(ln, raw, line, "duplicate start directive"));
                    }
                    start = Some(alphabet.intern(name));
                }
                _ => {
                    return Err(err_at(
                        ln,
                        raw,
                        line,
                        format!(
                            "expected `start <name>`, `<name> -> <rhs>` or `}}`, found `{line}`"
                        ),
                    ));
                }
            }
        }
    }
    let start = start
        .or_else(|| rules.first().map(|(s, _)| *s))
        .ok_or_else(|| ParseError::new(cur.eof_loc(), "dtd section has no start symbol"))?;
    let mut dtd = Dtd::new(alphabet.len(), start);
    for (sym, lang) in rules {
        dtd.set_rule(sym, lang);
    }
    Ok(dtd)
}

/// Parses a DTD rule right-hand side: `@dfa {` / `@nfa {` open automaton
/// blocks, `@replus` prefixes an `RE+` expression, anything else is a
/// regular expression.
fn parse_lang(
    cur: &mut Cursor<'_>,
    alphabet: &mut Alphabet,
    ln: usize,
    raw: &str,
    rhs: &str,
) -> Result<StringLang, ParseError> {
    if let Some(rest) = rhs.strip_prefix("@dfa") {
        expect_block_open(rest, ln, raw, rhs)?;
        let dfa = parse_automaton_block(cur, alphabet, true)?.expect_dfa();
        Ok(StringLang::dfa(dfa))
    } else if let Some(rest) = rhs.strip_prefix("@nfa") {
        expect_block_open(rest, ln, raw, rhs)?;
        let nfa = parse_automaton_block(cur, alphabet, false)?.expect_nfa();
        Ok(StringLang::Nfa(nfa))
    } else if let Some(rest) = rhs.strip_prefix("@replus") {
        let re = RePlus::parse(rest.trim(), alphabet)
            .map_err(|e| err_at(ln, raw, rhs, format!("invalid RE+ expression: {e}")))?;
        Ok(StringLang::RePlus(re))
    } else {
        let re = Regex::parse(rhs, alphabet)
            .map_err(|e| ParseError::new(Loc::new(ln, col_of(raw, rhs) + e.offset), e.message))?;
        Ok(StringLang::Regex(re))
    }
}

fn expect_block_open(rest: &str, ln: usize, raw: &str, rhs: &str) -> Result<(), ParseError> {
    if rest.trim() == "{" {
        Ok(())
    } else {
        Err(err_at(
            ln,
            raw,
            rhs,
            "expected `{` opening an automaton block",
        ))
    }
}

/// The result of an automaton block: which variant was parsed is fixed by
/// the `@dfa` / `@nfa` opener, so each call site unwraps exactly one arm.
enum ParsedAutomaton {
    Dfa(Dfa),
    Nfa(Nfa),
}

impl ParsedAutomaton {
    fn expect_dfa(self) -> Dfa {
        match self {
            ParsedAutomaton::Dfa(d) => d,
            ParsedAutomaton::Nfa(_) => unreachable!("block was opened with `@dfa`"),
        }
    }

    fn expect_nfa(self) -> Nfa {
        match self {
            ParsedAutomaton::Nfa(n) => n,
            ParsedAutomaton::Dfa(_) => unreachable!("block was opened with `@nfa`"),
        }
    }
}

/// Parses a `@dfa { ... }` / `@nfa { ... }` block body (the opening line was
/// consumed by the caller).
///
/// Block grammar: `states N`, `initial Q...` (exactly one state for DFAs;
/// for NFAs a bare `initial` line declares the empty set, and a missing
/// line defaults to state 0), `final Q...`, and transition lines
/// `Q <letter-name> R`.
fn parse_automaton_block(
    cur: &mut Cursor<'_>,
    alphabet: &mut Alphabet,
    want_dfa: bool,
) -> Result<ParsedAutomaton, ParseError> {
    // State references may precede the `states N` directive, so every
    // reference keeps its source line and range checking happens once at
    // the end of the block — the automaton constructors would panic on
    // out-of-range states otherwise.
    let mut num_states: Option<usize> = None;
    let mut initial: Option<Vec<(u32, usize)>> = None;
    let mut finals: Vec<(u32, usize)> = Vec::new();
    let mut edges: Vec<(u32, Symbol, u32, usize)> = Vec::new();
    let parse_state = |tok: &str, ln: usize, raw: &str| -> Result<u32, ParseError> {
        tok.parse().map_err(|_| {
            err_at(
                ln,
                raw,
                tok,
                format!("expected a state number, found `{tok}`"),
            )
        })
    };
    loop {
        let Some((ln, raw, line)) = cur.next() else {
            return Err(ParseError::new(cur.eof_loc(), "unclosed automaton block"));
        };
        if line == "}" {
            break;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["states", n] => {
                let n: usize = n
                    .parse()
                    .map_err(|_| err_at(ln, raw, n, format!("invalid state count `{n}`")))?;
                if n == 0 {
                    return Err(err_at(ln, raw, line, "automaton needs at least one state"));
                }
                if num_states.is_some() {
                    return Err(err_at(ln, raw, line, "duplicate `states` directive"));
                }
                num_states = Some(n);
            }
            ["initial", qs @ ..] => {
                if want_dfa && (qs.len() != 1 || initial.is_some()) {
                    return Err(err_at(ln, raw, line, "a DFA has exactly one initial state"));
                }
                let states = initial.get_or_insert_with(Vec::new);
                for q in qs {
                    states.push((parse_state(q, ln, raw)?, ln));
                }
            }
            ["final", qs @ ..] => {
                for q in qs {
                    finals.push((parse_state(q, ln, raw)?, ln));
                }
            }
            [q, letter, r] => {
                let q = parse_state(q, ln, raw)?;
                let r = parse_state(r, ln, raw)?;
                if !is_ident(letter) {
                    return Err(err_at(
                        ln,
                        raw,
                        letter,
                        format!("invalid letter `{letter}`"),
                    ));
                }
                let sym = alphabet.intern(letter);
                if want_dfa && edges.iter().any(|&(q2, s2, _, _)| q2 == q && s2 == sym) {
                    return Err(err_at(
                        ln,
                        raw,
                        line,
                        format!("duplicate DFA transition from state {q} on `{letter}`"),
                    ));
                }
                edges.push((q, sym, r, ln));
            }
            _ => {
                return Err(err_at(
                    ln,
                    raw,
                    line,
                    format!(
                        "expected `states N`, `initial Q...`, `final Q...`, \
                         `Q letter R` or `}}`, found `{line}`"
                    ),
                ));
            }
        }
    }
    let n = num_states
        .ok_or_else(|| ParseError::new(cur.eof_loc(), "automaton block missing `states N`"))?;
    let state_refs = initial
        .iter()
        .flatten()
        .chain(&finals)
        .copied()
        .chain(edges.iter().flat_map(|&(q, _, r, ln)| [(q, ln), (r, ln)]));
    for (q, ln) in state_refs {
        if q as usize >= n {
            return Err(ParseError::new(
                Loc::new(ln, 1),
                format!("state {q} out of range (block declares {n} states)"),
            ));
        }
    }
    let sigma = alphabet.len();
    if want_dfa {
        let mut dfa = Dfa::new(sigma);
        for _ in 1..n {
            dfa.add_state();
        }
        dfa.set_initial(
            initial
                .as_deref()
                .and_then(|v| v.first())
                .map(|&(q, _)| q)
                .unwrap_or(0),
        );
        for (q, _) in finals {
            dfa.set_final(q);
        }
        for (q, sym, r, _) in edges {
            dfa.set_transition(q, sym.0, r);
        }
        Ok(ParsedAutomaton::Dfa(dfa))
    } else {
        let mut nfa = Nfa::new(sigma);
        for _ in 0..n {
            nfa.add_state();
        }
        // A bare `initial` line means the empty set (the printer emits it
        // for empty-language NFAs); only a *missing* line defaults to 0.
        for (q, _) in initial.unwrap_or_else(|| vec![(0, 0)]) {
            nfa.set_initial(q);
        }
        for (q, _) in finals {
            nfa.set_final(q);
        }
        for (q, sym, r, _) in edges {
            nfa.add_transition(q, sym.0, r);
        }
        Ok(ParsedAutomaton::Nfa(nfa))
    }
}

/// Splits a transition pair `(lhs, rhs)` (with parentheses) into its parts.
fn parse_pair<'l>(line: &'l str, ln: usize, raw: &str) -> Result<(&'l str, &'l str), ParseError> {
    let inner = line
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| err_at(ln, raw, line, "expected `(name, name)` pair"))?;
    let (a, b) = inner
        .split_once(',')
        .ok_or_else(|| err_at(ln, raw, line, "expected `,` inside `(name, name)` pair"))?;
    Ok((a.trim(), b.trim()))
}

fn parse_nta_section(cur: &mut Cursor<'_>, alphabet: &mut Alphabet) -> Result<Nta, ParseError> {
    // State names live in their own alphabet: transition languages are
    // regular expressions over *states*, not element names.
    let mut states = Alphabet::new();
    let mut finals: Vec<String> = Vec::new();
    let mut trans: Vec<(usize, u32, Symbol, Regex)> = Vec::new();
    loop {
        let Some((ln, raw, line)) = cur.next() else {
            return Err(ParseError::new(cur.eof_loc(), "unclosed nta section"));
        };
        if line == "}" {
            break;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["states", names @ ..] if !names.is_empty() => {
                for name in names {
                    if !is_ident(name) {
                        return Err(err_at(
                            ln,
                            raw,
                            name,
                            format!("invalid state name `{name}`"),
                        ));
                    }
                    if states.lookup(name).is_some() {
                        return Err(err_at(ln, raw, name, format!("duplicate state `{name}`")));
                    }
                    states.intern(name);
                }
            }
            ["final", names @ ..] => {
                for name in names {
                    finals.push((*name).to_string());
                }
            }
            _ if line.starts_with('(') => {
                let (arrow_lhs, rhs) = line.split_once("->").ok_or_else(|| {
                    err_at(
                        ln,
                        raw,
                        line,
                        "expected `(state, name) -> <regex over states>`",
                    )
                })?;
                let (qname, aname) = parse_pair(arrow_lhs.trim(), ln, raw)?;
                let q = states
                    .lookup(qname)
                    .ok_or_else(|| err_at(ln, raw, qname, format!("undeclared state `{qname}`")))?;
                if !is_ident(aname) {
                    return Err(err_at(ln, raw, aname, format!("invalid name `{aname}`")));
                }
                let sym = alphabet.intern(aname);
                let declared = states.len();
                let rhs = rhs.trim();
                let re = Regex::parse(rhs, &mut states).map_err(|e| {
                    ParseError::new(Loc::new(ln, col_of(raw, rhs) + e.offset), e.message)
                })?;
                if states.len() != declared {
                    let culprit = states.name(Symbol::from_index(declared)).to_string();
                    return Err(err_at(
                        ln,
                        raw,
                        rhs,
                        format!("undeclared state `{culprit}` in transition language"),
                    ));
                }
                trans.push((ln, q.0, sym, re));
            }
            _ => {
                return Err(err_at(
                    ln,
                    raw,
                    line,
                    format!(
                        "expected `states ...`, `final ...`, \
                         `(state, name) -> <regex>` or `}}`, found `{line}`"
                    ),
                ));
            }
        }
    }
    if states.is_empty() {
        return Err(ParseError::new(
            cur.eof_loc(),
            "nta section declares no states",
        ));
    }
    let mut nta = Nta::new(alphabet.len());
    nta.add_states(states.len());
    for name in &finals {
        let q = states.lookup(name).ok_or_else(|| {
            ParseError::new(cur.eof_loc(), format!("undeclared final state `{name}`"))
        })?;
        nta.set_final(q.0);
    }
    let mut seen = FxHashSet::default();
    for (ln, q, sym, re) in trans {
        if !seen.insert((q, sym)) {
            return Err(ParseError::new(
                Loc::new(ln, 1),
                format!(
                    "duplicate transition for ({}, {})",
                    states.name(Symbol(q)),
                    alphabet.name(sym)
                ),
            ));
        }
        nta.set_transition(q, sym, re.to_nfa(states.len()));
    }
    Ok(nta)
}

fn parse_transducer_section(
    cur: &mut Cursor<'_>,
    alphabet: &mut Alphabet,
) -> Result<Transducer, ParseError> {
    let mut states: Vec<String> = Vec::new();
    let mut initial: Option<String> = None;
    let mut selectors: Vec<(String, Dfa)> = Vec::new();
    let mut rules: Vec<(usize, String, String, String)> = Vec::new();
    let mut seen_rules = FxHashSet::default();
    let section_loc = Loc::new(cur.line_no, 1);
    loop {
        let Some((ln, raw, line)) = cur.next() else {
            return Err(ParseError::new(
                cur.eof_loc(),
                "unclosed transducer section",
            ));
        };
        if line == "}" {
            break;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["states", names @ ..] if !names.is_empty() => {
                for name in names {
                    if !is_ident(name) {
                        return Err(err_at(
                            ln,
                            raw,
                            name,
                            format!("invalid state name `{name}`"),
                        ));
                    }
                    if states.iter().any(|s| s == name) {
                        return Err(err_at(ln, raw, name, format!("duplicate state `{name}`")));
                    }
                    states.push((*name).to_string());
                }
            }
            ["initial", name] => {
                if !states.iter().any(|s| s == name) {
                    return Err(err_at(ln, raw, name, format!("undeclared state `{name}`")));
                }
                initial = Some((*name).to_string());
            }
            ["selector", ..] => {
                let rest = line.strip_prefix("selector").expect("matched").trim_start();
                let (name, body) = rest.split_once('=').ok_or_else(|| {
                    err_at(ln, raw, rest, "expected `selector $name = <dfa or regex>`")
                })?;
                let name = name
                    .trim()
                    .strip_prefix('$')
                    .filter(|n| is_ident(n))
                    .ok_or_else(|| err_at(ln, raw, rest, "selector names are written `$name`"))?;
                if selectors.iter().any(|(n, _)| n == name) {
                    return Err(err_at(
                        ln,
                        raw,
                        rest,
                        format!("duplicate selector `${name}`"),
                    ));
                }
                let body = body.trim();
                let dfa = if let Some(after) = body.strip_prefix("@dfa") {
                    expect_block_open(after, ln, raw, body)?;
                    parse_automaton_block(cur, alphabet, true)?.expect_dfa()
                } else {
                    let re = Regex::parse(body, alphabet).map_err(|e| {
                        ParseError::new(Loc::new(ln, col_of(raw, body) + e.offset), e.message)
                    })?;
                    re.to_dfa(alphabet.len())
                };
                selectors.push((name.to_string(), dfa));
            }
            _ if line.starts_with('(') => {
                let (arrow_lhs, rhs) = line
                    .split_once("->")
                    .ok_or_else(|| err_at(ln, raw, line, "expected `(state, name) -> <rhs>`"))?;
                let (qname, aname) = parse_pair(arrow_lhs.trim(), ln, raw)?;
                if !states.iter().any(|s| s == qname) {
                    return Err(err_at(
                        ln,
                        raw,
                        qname,
                        format!("undeclared state `{qname}`"),
                    ));
                }
                if !is_ident(aname) {
                    return Err(err_at(ln, raw, aname, format!("invalid name `{aname}`")));
                }
                if !seen_rules.insert((qname.to_string(), aname.to_string())) {
                    return Err(err_at(
                        ln,
                        raw,
                        line,
                        format!("duplicate rule for ({qname}, {aname})"),
                    ));
                }
                rules.push((
                    ln,
                    qname.to_string(),
                    aname.to_string(),
                    rhs.trim().to_string(),
                ));
            }
            _ => {
                return Err(err_at(
                    ln,
                    raw,
                    line,
                    format!(
                        "expected `states ...`, `initial ...`, `selector ...`, \
                         `(state, name) -> <rhs>` or `}}`, found `{line}`"
                    ),
                ));
            }
        }
    }
    if states.is_empty() {
        return Err(ParseError::new(
            cur.eof_loc(),
            "transducer declares no states",
        ));
    }
    build_transducer(alphabet, &states, initial, &selectors, &rules, section_loc)
}

/// Assembles the scanned transducer through [`TransducerBuilder`]. Builder
/// errors carry no position, so on failure each rule is re-built alone to
/// pin the error to its source line.
fn build_transducer(
    alphabet: &mut Alphabet,
    states: &[String],
    initial: Option<String>,
    selectors: &[(String, Dfa)],
    rules: &[(usize, String, String, String)],
    section_loc: Loc,
) -> Result<Transducer, ParseError> {
    let refs: Vec<&str> = states.iter().map(String::as_str).collect();
    let attempt = |alphabet: &mut Alphabet,
                   rules: &[(usize, String, String, String)]|
     -> Result<Transducer, xmlta_transducer::transducer::BuildError> {
        let mut b = TransducerBuilder::new(alphabet).states(&refs);
        if let Some(init) = &initial {
            b = b.initial(init);
        }
        for (name, dfa) in selectors {
            b = b.dfa_selector(name, dfa.clone());
        }
        for (_, q, a, rhs) in rules {
            b = b.rule(q, a, rhs);
        }
        b.build()
    };
    match attempt(alphabet, rules) {
        Ok(t) => Ok(t),
        Err(e) => {
            for rule in rules {
                // Throwaway single-rule build against a scratch alphabet to
                // locate the offending line (error paths only).
                let mut scratch = alphabet.clone();
                if attempt(&mut scratch, std::slice::from_ref(rule)).is_err() {
                    return Err(ParseError::new(
                        Loc::new(rule.0, 1),
                        format!("in rule ({}, {}): {e}", rule.1, rule.2),
                    ));
                }
            }
            Err(ParseError::new(section_loc, e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Out-of-range automaton states are parse errors even when the
    /// reference precedes the `states N` directive — the constructors
    /// would panic otherwise.
    #[test]
    fn automaton_block_bounds_checked_in_any_directive_order() {
        let src = "\
input dtd {
  start r
  r -> @dfa {
    final 3
    states 1
  }
}
";
        let err = parse_instance(src).unwrap_err();
        assert_eq!(err.loc.line, 4);
        assert!(err.message.contains("out of range"), "{err}");

        let src = "\
input dtd {
  start r
  r -> @nfa {
    0 x 5
    states 2
  }
}
";
        let err = parse_instance(src).unwrap_err();
        assert_eq!(err.loc.line, 4);
        assert!(err.message.contains("out of range"), "{err}");
    }

    /// The crate-docs example file parses as written.
    #[test]
    fn doc_example_parses() {
        let src = "\
# Comments are FULL LINES starting with `#` or `//`.
alphabet { book title author chapter }

input dtd {
  start book
  book -> title author+ chapter+
  chapter -> @replus title author
  title -> @dfa {
    states 1
    initial 0
    final 0
  }
}

output dtd {
  start book
  book -> title chapter*
}

transducer {
  states q
  initial q
  (q, book) -> book(q)
  (q, chapter) -> chapter <q, .//title>
  (q, title) -> title
}
";
        let inst = parse_instance(src).expect("doc example parses");
        assert_eq!(inst.alphabet.name(Symbol(0)), "book");
        assert!(typecheck_core::typecheck(&inst).is_ok());
    }

    /// An `@nfa` rule with an empty initial set denotes ∅ and must stay ∅
    /// through print∘parse: the printer spells it as a bare `initial` line,
    /// which is distinct from an absent line (that defaults to state 0).
    #[test]
    fn empty_initial_nfa_roundtrips() {
        let mut a = Alphabet::from_names(["r", "x"]);
        let mut empty = Nfa::new(2);
        let q = empty.add_state();
        empty.set_final(q); // final but unreachable: language ∅
        let mut din = Dtd::parse("r -> x*\nx -> ", &mut a).unwrap();
        din.set_rule(a.sym("x"), StringLang::Nfa(empty));
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "r")
            .build()
            .unwrap();
        let inst = Instance::dtds(
            a,
            din,
            Dtd::parse("r -> eps", &mut Alphabet::new()).unwrap(),
            t,
        );
        let printed = crate::print::print_instance(&inst).unwrap();
        let reparsed = parse_instance(&printed).unwrap();
        let Schema::Dtd(din2) = &reparsed.input else {
            panic!("schema kind changed");
        };
        let x = reparsed.alphabet.sym("x");
        match din2.rule(x).unwrap() {
            StringLang::Nfa(n) => assert!(n.initial_states().is_empty(), "∅ must stay ∅"),
            other => panic!("rule representation changed: {other:?}"),
        }
        assert_eq!(
            printed,
            crate::print::print_instance(&reparsed).unwrap(),
            "printed form is a fixpoint"
        );
    }

    /// Names starting with `#` cannot be spelled (a rule line starting
    /// with one would read as a comment), so the parser rejects them
    /// up front and the printer refuses to emit them.
    #[test]
    fn leading_hash_names_rejected() {
        assert!(!is_ident("#"));
        assert!(!is_ident("#42"));
        assert!(is_ident("q#1"));
        let err = parse_instance("alphabet { ok #bad }\n").unwrap_err();
        assert!(err.message.contains("invalid name"), "{err}");

        let mut a = Alphabet::from_names(["r", "#"]);
        let din = Dtd::parse("r -> #*\n# -> ", &mut a).unwrap();
        let t = TransducerBuilder::new(&mut a)
            .states(&["q"])
            .rule("q", "r", "r")
            .build()
            .unwrap();
        let inst = Instance::dtds(a, din.clone(), din, t);
        let err = crate::print::print_instance(&inst).unwrap_err();
        assert!(err.message.contains('#'), "{err}");
    }
}
