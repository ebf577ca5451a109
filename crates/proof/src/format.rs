//! Compact text serialization of proofs.
//!
//! ```text
//! rtlproof 2
//! vars 37
//! goal bad_p1
//! gaps 0
//! l -b5 w7:3..9 ; s b2 w7@5 ; a 0 1
//! l b3 ; d 0
//! f ; a 0 2
//! ```
//!
//! * Header: magic+version, variable count, goal signal name, gap
//!   count, one per line, in that order. Version 2 added the `d`
//!   section; version-1 proofs still parse. Version 3 adds an optional
//!   `assume <lits>` line after `gaps` carrying the assumption
//!   literals of an incremental session query (the goal name is `-`
//!   for such proofs, and the final step is a clause over the negated
//!   assumptions rather than `f`).
//! * One step per line. `l` opens a lemma, `f` the final empty clause.
//!   Sections are separated by `;`: literals, then optionally
//!   `s <splits>`, `a <antecedent-ids>`, and `d <deleted-step-ids>` in
//!   any order.
//! * Literal tokens: `b12`/`-b12` — Boolean variable 12 true/false;
//!   `w7:3..9` — variable 7 ∈ ⟨3,9⟩; `-w7:3..9` — variable 7 ∉ ⟨3,9⟩.
//!   Bounds may be negative.
//! * Split tokens: `b12` — case split on Boolean variable 12;
//!   `w7@5` — split variable 7 into `≤5` and `≥6`; `n40` — split the
//!   asserted disequality `a ≠ b` of lowered constraint 40 into `a < b`
//!   and `a > b` (a Fourier–Motzkin lemma's case split; the checker
//!   verifies that constraint 40 is an asserted disequality where the
//!   split is replayed). The token needs no new version: a proof
//!   without it prints exactly as before.
//! * Step ids are implicit (line order, 0-based); `a` ids must cite
//!   earlier steps. `#` starts a comment; blank lines are ignored.

use std::fmt::Write as _;

use crate::{PLit, PSplit, Proof, Step};

/// A parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proof line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn write_lit(out: &mut String, lit: &PLit) {
    match *lit {
        PLit::Bool { var, value } => {
            let _ = write!(out, "{}b{var}", if value { "" } else { "-" });
        }
        PLit::Word {
            var,
            lo,
            hi,
            positive,
        } => {
            let _ = write!(out, "{}w{var}:{lo}..{hi}", if positive { "" } else { "-" });
        }
    }
}

/// Serializes a proof to the text format.
///
/// Proofs without assumptions print as version 2 (byte-identical to
/// pre-incremental output); assumption proofs print as version 3 with
/// an `assume` header line after `gaps`.
#[must_use]
pub fn print(proof: &Proof) -> String {
    let mut out = String::new();
    let version = if proof.assumptions.is_empty() { 2 } else { 3 };
    let _ = writeln!(out, "rtlproof {version}");
    let _ = writeln!(out, "vars {}", proof.var_count);
    let _ = writeln!(out, "goal {}", proof.goal);
    let _ = writeln!(out, "gaps {}", proof.gaps);
    if !proof.assumptions.is_empty() {
        out.push_str("assume");
        for lit in &proof.assumptions {
            out.push(' ');
            write_lit(&mut out, lit);
        }
        out.push('\n');
    }
    for step in &proof.steps {
        if step.lits.is_empty() {
            out.push('f');
        } else {
            out.push('l');
            for lit in &step.lits {
                out.push(' ');
                write_lit(&mut out, lit);
            }
        }
        if !step.splits.is_empty() {
            out.push_str(" ; s");
            for split in &step.splits {
                match *split {
                    PSplit::Bool { var } => {
                        let _ = write!(out, " b{var}");
                    }
                    PSplit::Word { var, at } => {
                        let _ = write!(out, " w{var}@{at}");
                    }
                    PSplit::Diseq { cons } => {
                        let _ = write!(out, " n{cons}");
                    }
                }
            }
        }
        if !step.ants.is_empty() {
            out.push_str(" ; a");
            for id in &step.ants {
                let _ = write!(out, " {id}");
            }
        }
        if !step.dels.is_empty() {
            out.push_str(" ; d");
            for id in &step.dels {
                let _ = write!(out, " {id}");
            }
        }
        out.push('\n');
    }
    out
}

struct LineParser<'a> {
    line: usize,
    text: &'a str,
}

impl LineParser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    fn parse_u32(&self, tok: &str, what: &str) -> Result<u32, ParseError> {
        tok.parse()
            .map_err(|_| self.err(format!("bad {what} `{tok}`")))
    }

    fn parse_i64(&self, tok: &str, what: &str) -> Result<i64, ParseError> {
        tok.parse()
            .map_err(|_| self.err(format!("bad {what} `{tok}`")))
    }

    fn parse_lit(&self, tok: &str) -> Result<PLit, ParseError> {
        let (positive, body) = match tok.strip_prefix('-') {
            Some(rest) => (false, rest),
            None => (true, tok),
        };
        if let Some(var) = body.strip_prefix('b') {
            return Ok(PLit::Bool {
                var: self.parse_u32(var, "Boolean variable")?,
                value: positive,
            });
        }
        let Some(rest) = body.strip_prefix('w') else {
            return Err(self.err(format!("bad literal `{tok}`")));
        };
        let (var, bounds) = rest
            .split_once(':')
            .ok_or_else(|| self.err(format!("bad word literal `{tok}`")))?;
        let (lo, hi) = bounds
            .split_once("..")
            .ok_or_else(|| self.err(format!("bad interval in `{tok}`")))?;
        let lo = self.parse_i64(lo, "interval bound")?;
        let hi = self.parse_i64(hi, "interval bound")?;
        if lo > hi {
            return Err(self.err(format!("empty interval in `{tok}`")));
        }
        Ok(PLit::Word {
            var: self.parse_u32(var, "word variable")?,
            lo,
            hi,
            positive,
        })
    }

    fn parse_split(&self, tok: &str) -> Result<PSplit, ParseError> {
        if let Some(var) = tok.strip_prefix('b') {
            return Ok(PSplit::Bool {
                var: self.parse_u32(var, "Boolean variable")?,
            });
        }
        if let Some(cons) = tok.strip_prefix('n') {
            return Ok(PSplit::Diseq {
                cons: self.parse_u32(cons, "constraint id")?,
            });
        }
        let Some(rest) = tok.strip_prefix('w') else {
            return Err(self.err(format!("bad split `{tok}`")));
        };
        let (var, at) = rest
            .split_once('@')
            .ok_or_else(|| self.err(format!("bad split `{tok}`")))?;
        Ok(PSplit::Word {
            var: self.parse_u32(var, "word variable")?,
            at: self.parse_i64(at, "split point")?,
        })
    }

    fn parse_step(&self) -> Result<Step, ParseError> {
        let mut step = Step::default();
        let mut sections = self.text.split(';');
        let head = sections.next().unwrap_or("");
        let mut toks = head.split_whitespace();
        let kind = toks.next().ok_or_else(|| self.err("empty step"))?;
        match kind {
            "l" => {
                for tok in toks {
                    step.lits.push(self.parse_lit(tok)?);
                }
                if step.lits.is_empty() {
                    return Err(self.err("lemma with no literals (use `f`)"));
                }
            }
            "f" => {
                if toks.next().is_some() {
                    return Err(self.err("final step takes no literals"));
                }
            }
            other => return Err(self.err(format!("unknown step kind `{other}`"))),
        }
        for section in sections {
            let mut toks = section.split_whitespace();
            match toks.next() {
                Some("s") => {
                    for tok in toks {
                        step.splits.push(self.parse_split(tok)?);
                    }
                }
                Some("a") => {
                    for tok in toks {
                        step.ants.push(self.parse_u32(tok, "antecedent id")?);
                    }
                }
                Some("d") => {
                    for tok in toks {
                        step.dels.push(self.parse_u32(tok, "deleted step id")?);
                    }
                }
                Some(other) => {
                    return Err(self.err(format!("unknown section `{other}`")));
                }
                None => return Err(self.err("empty section")),
            }
        }
        Ok(step)
    }
}

/// Parses the text format back into a [`Proof`].
///
/// # Errors
///
/// Returns the first malformed line. Semantic problems (future
/// antecedent ids, variable indices out of range, missing final empty
/// clause) are left to the checker.
pub fn parse(text: &str) -> Result<Proof, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty())
        .peekable();

    let mut header = |key: &str| -> Result<(usize, String), ParseError> {
        let (line, text) = lines
            .next()
            .ok_or(ParseError {
                line: 0,
                message: format!("missing `{key}` header"),
            })?;
        let p = LineParser { line, text };
        let mut toks = text.split_whitespace();
        if toks.next() != Some(key) {
            return Err(p.err(format!("expected `{key}` header")));
        }
        let value = toks
            .next()
            .ok_or_else(|| p.err(format!("`{key}` needs a value")))?;
        if toks.next().is_some() {
            return Err(p.err(format!("trailing tokens after `{key}`")));
        }
        Ok((line, value.to_string()))
    };

    let (line, magic) = header("rtlproof")?;
    if magic != "1" && magic != "2" && magic != "3" {
        return Err(ParseError {
            line,
            message: format!("unsupported proof version `{magic}`"),
        });
    }
    let (line, vars) = header("vars")?;
    let var_count = LineParser { line, text: "" }.parse_u32(&vars, "variable count")?;
    let (_, goal) = header("goal")?;
    let (line, gaps) = header("gaps")?;
    let gaps = LineParser { line, text: "" }.parse_u32(&gaps, "gap count")?;

    let mut assumptions = Vec::new();
    if let Some(&(line, text)) = lines.peek() {
        if text.split_whitespace().next() == Some("assume") {
            let p = LineParser { line, text };
            if magic != "3" {
                return Err(p.err(format!("`assume` header requires version 3, got {magic}")));
            }
            for tok in text.split_whitespace().skip(1) {
                assumptions.push(p.parse_lit(tok)?);
            }
            if assumptions.is_empty() {
                return Err(p.err("`assume` needs at least one literal"));
            }
            lines.next();
        }
    }

    let mut steps = Vec::new();
    for (line, text) in lines {
        steps.push(LineParser { line, text }.parse_step()?);
    }
    Ok(Proof {
        var_count,
        goal,
        assumptions,
        gaps,
        steps,
    })
}
