//! Rendering transducers as XSLT programs (Figure 1).
//!
//! The paper notes that "our tree transducers can be implemented as XSLT
//! programs in a straightforward way": each rule `(q, a) → h` becomes an
//! `<xsl:template match="a" mode="q">`, state leaves become
//! `<xsl:apply-templates mode="p"/>`, and state–pattern pairs become
//! `<xsl:apply-templates select="…" mode="p"/>`.

use crate::rhs::RhsNode;
use crate::transducer::{Selector, Transducer};
use xmlta_base::Alphabet;

/// Renders the transducer as an XSLT stylesheet fragment in the style of
/// Figure 1 (templates only, started in the initial state's mode).
pub fn to_xslt(t: &Transducer, alphabet: &Alphabet) -> String {
    let mut out = String::new();
    for (q, a, rhs) in t.sorted_rules() {
        let mode = &t.state_names()[q as usize];
        out.push_str(&format!(
            "<xsl:template match=\"{}\" mode=\"{}\">\n",
            alphabet.name(a),
            mode
        ));
        for node in &rhs.nodes {
            render_node(t, node, alphabet, 1, &mut out);
        }
        out.push_str("</xsl:template>\n\n");
    }
    out
}

fn render_node(t: &Transducer, n: &RhsNode, alphabet: &Alphabet, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match n {
        RhsNode::Elem(sym, children) => {
            let name = alphabet.name(*sym);
            if children.is_empty() {
                out.push_str(&format!("{pad}<{name}/>\n"));
            } else {
                out.push_str(&format!("{pad}<{name}>\n"));
                for c in children {
                    render_node(t, c, alphabet, depth + 1, out);
                }
                out.push_str(&format!("{pad}</{name}>\n"));
            }
        }
        RhsNode::State(q) => {
            let mode = &t.state_names()[*q as usize];
            out.push_str(&format!("{pad}<xsl:apply-templates mode=\"{mode}\"/>\n"));
        }
        RhsNode::Select(q, sel) => {
            let mode = &t.state_names()[*q as usize];
            // `./a` and `.//a` are valid XSLT select expressions as-is.
            let select = match t.selector(*sel) {
                Selector::XPath(p) => format!("{}", p.display(alphabet)),
                Selector::Dfa(_) => format!("dfa-selector-{sel}()"),
            };
            out.push_str(&format!(
                "{pad}<xsl:apply-templates select=\"{select}\" mode=\"{mode}\"/>\n"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    #[test]
    fn figure1_structure() {
        // The XSLT program of Figure 1 for the Example 6 transducer.
        let mut a = Alphabet::new();
        let t = examples::example6(&mut a);
        let xslt = to_xslt(&t, &a);
        // All four templates present with the right match/mode pairs.
        for (m, mode) in [("a", "p"), ("b", "p"), ("a", "q"), ("b", "q")] {
            assert!(
                xslt.contains(&format!("<xsl:template match=\"{m}\" mode=\"{mode}\">")),
                "missing template for ({m}, {mode}) in:\n{xslt}"
            );
        }
        // (p, a) → d(e): literal nested output.
        assert!(xslt.contains("<d>\n    <e/>\n  </d>"));
        // (q, b) → c(p q): two apply-templates inside <c>.
        assert!(xslt.contains("<xsl:apply-templates mode=\"p\"/>"));
        assert!(xslt.contains("<xsl:apply-templates mode=\"q\"/>"));
    }

    #[test]
    fn xpath_selector_rendering() {
        let mut a = Alphabet::new();
        let t = examples::example22(&mut a);
        let xslt = to_xslt(&t, &a);
        assert!(
            xslt.contains("select=\".//title\""),
            "descendant select rendered: {xslt}"
        );
    }
}
