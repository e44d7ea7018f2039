//! Typechecking instances (Definition 9).

use xmlta_base::Alphabet;
use xmlta_schema::{Dtd, Nta};
use xmlta_transducer::Transducer;

/// An input or output schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Schema {
    /// A DTD (Definition 1), over any rule representation.
    Dtd(Dtd),
    /// An unranked tree automaton (Definition 2).
    Nta(Nta),
}

impl Schema {
    /// The paper's size measure of the schema.
    pub fn size(&self) -> usize {
        match self {
            Schema::Dtd(d) => d.size(),
            Schema::Nta(n) => n.size(),
        }
    }

    /// The alphabet size the schema mentions.
    pub fn alphabet_size(&self) -> usize {
        match self {
            Schema::Dtd(d) => d.alphabet_size(),
            Schema::Nta(n) => n.alphabet_size(),
        }
    }
}

/// A typechecking instance `(S_in, S_out, T)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Shared alphabet (element names) of schemas and transducer.
    pub alphabet: Alphabet,
    /// The input schema.
    pub input: Schema,
    /// The output schema.
    pub output: Schema,
    /// The transformation.
    pub transducer: Transducer,
}

impl Instance {
    /// Builds an instance over DTD schemas.
    pub fn dtds(alphabet: Alphabet, input: Dtd, output: Dtd, transducer: Transducer) -> Instance {
        Instance {
            alphabet,
            input: Schema::Dtd(input),
            output: Schema::Dtd(output),
            transducer,
        }
    }

    /// Builds an instance over tree-automata schemas.
    pub fn ntas(alphabet: Alphabet, input: Nta, output: Nta, transducer: Transducer) -> Instance {
        Instance {
            alphabet,
            input: Schema::Nta(input),
            output: Schema::Nta(output),
            transducer,
        }
    }

    /// The joint alphabet size (max over all components).
    pub fn alphabet_size(&self) -> usize {
        self.alphabet
            .len()
            .max(self.input.alphabet_size())
            .max(self.output.alphabet_size())
            .max(self.transducer.alphabet_size())
    }

    /// The paper's instance size: `|S_in| + |S_out| + |T|`.
    pub fn size(&self) -> usize {
        self.input.size() + self.output.size() + self.transducer.size()
    }
}
