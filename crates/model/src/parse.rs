//! Parser for the paper's bracket notation for serial-parallel tasks.
//!
//! Grammar (whitespace-separated children are serial, `||`-separated
//! children are parallel; the two separators cannot be mixed at one level):
//!
//! ```text
//! spec := IDENT | '[' spec (' ' spec)* ']' | '[' spec ('||' spec)* ']'
//! ```
//!
//! Identifier names (e.g. `T1`, `analysis`) label subtasks for human
//! readability but carry no semantics; the parser returns pure structure.

use std::fmt;

use crate::spec::TaskSpec;

/// The deepest bracket nesting [`parse_spec`] accepts. The parser
/// recurses once per level, so the bound keeps hostile input from
/// overflowing the stack; the paper's specs nest three levels at most.
const MAX_DEPTH: usize = 1024;

/// Error returned by [`parse_spec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSpecError {
    /// The input was empty or contained only whitespace.
    Empty,
    /// A `]` with no matching `[`, or a `[` never closed.
    Unbalanced,
    /// A bracket pair with nothing inside, e.g. `[]`.
    EmptyBrackets,
    /// Serial (whitespace) and parallel (`||`) separators mixed at one
    /// level, e.g. `[T1 T2 || T3]`.
    MixedSeparators,
    /// A `||` in an illegal position, e.g. `[|| T1]` or `[T1 ||]`.
    DanglingSeparator,
    /// Unexpected character in the input.
    UnexpectedChar(char),
    /// Extra input after a complete specification, e.g. `[T1] [T2]`.
    TrailingInput,
    /// Brackets nested more than 1,024 levels deep.
    TooDeep,
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSpecError::Empty => write!(f, "empty task specification"),
            ParseSpecError::Unbalanced => write!(f, "unbalanced brackets"),
            ParseSpecError::EmptyBrackets => write!(f, "empty bracket pair"),
            ParseSpecError::MixedSeparators => {
                write!(f, "serial and parallel separators mixed at one level")
            }
            ParseSpecError::DanglingSeparator => write!(f, "dangling `||` separator"),
            ParseSpecError::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ParseSpecError::TrailingInput => write!(f, "trailing input after specification"),
            ParseSpecError::TooDeep => {
                write!(f, "brackets nested deeper than {MAX_DEPTH} levels")
            }
        }
    }
}

impl std::error::Error for ParseSpecError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Open,
    Close,
    Par,
    Ident,
}

fn tokenize(input: &str) -> Result<Vec<Token>, ParseSpecError> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '[' => {
                chars.next();
                tokens.push(Token::Open);
            }
            ']' => {
                chars.next();
                tokens.push(Token::Close);
            }
            '|' => {
                chars.next();
                if chars.peek() == Some(&'|') {
                    chars.next();
                    tokens.push(Token::Par);
                } else {
                    return Err(ParseSpecError::UnexpectedChar('|'));
                }
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            c if c.is_alphanumeric() || c == '_' => {
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident);
            }
            other => return Err(ParseSpecError::UnexpectedChar(other)),
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Brackets open at the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Parses one `spec`.
    fn spec(&mut self) -> Result<TaskSpec, ParseSpecError> {
        match self.next() {
            Some(Token::Ident) => Ok(TaskSpec::Simple),
            Some(Token::Open) => {
                if self.depth == MAX_DEPTH {
                    return Err(ParseSpecError::TooDeep);
                }
                self.depth += 1;
                let body = self.body();
                self.depth -= 1;
                body
            }
            Some(Token::Close) => Err(ParseSpecError::Unbalanced),
            Some(Token::Par) => Err(ParseSpecError::DanglingSeparator),
            None => Err(ParseSpecError::Unbalanced),
        }
    }

    /// Parses the inside of a bracket pair up to and including the `]`.
    fn body(&mut self) -> Result<TaskSpec, ParseSpecError> {
        let mut children = Vec::new();
        let mut parallel: Option<bool> = None; // None until a separator is seen
        loop {
            match self.peek() {
                Some(Token::Close) => {
                    self.next();
                    break;
                }
                Some(Token::Par) => {
                    self.next();
                    if children.is_empty() {
                        return Err(ParseSpecError::DanglingSeparator);
                    }
                    match parallel {
                        None => parallel = Some(true),
                        Some(true) => {}
                        Some(false) => return Err(ParseSpecError::MixedSeparators),
                    }
                    // A `||` must be followed by a spec, not `]`.
                    match self.peek() {
                        Some(Token::Close) | None => return Err(ParseSpecError::DanglingSeparator),
                        Some(Token::Par) => return Err(ParseSpecError::DanglingSeparator),
                        _ => {}
                    }
                    children.push(self.spec()?);
                }
                Some(Token::Ident) | Some(Token::Open) => {
                    if !children.is_empty() {
                        // Adjacency without `||` is the serial separator.
                        match parallel {
                            None => parallel = Some(false),
                            Some(false) => {}
                            Some(true) => return Err(ParseSpecError::MixedSeparators),
                        }
                    }
                    children.push(self.spec()?);
                }
                None => return Err(ParseSpecError::Unbalanced),
            }
        }
        if children.is_empty() {
            return Err(ParseSpecError::EmptyBrackets);
        }
        // A single child defaults to serial: `[T1]` ≡ a one-stage pipeline.
        Ok(match parallel {
            Some(true) => TaskSpec::Parallel(children),
            _ => TaskSpec::Serial(children),
        })
    }
}

/// Parses the paper's bracket notation into a [`TaskSpec`].
///
/// Whitespace-separated children are serial (GT2); `||`-separated children
/// are parallel (GT3). A bare identifier is a simple subtask (GT1). A
/// single-child bracket pair parses as a one-stage serial composition.
///
/// ```
/// use sda_model::{parse_spec, TaskSpec};
///
/// let spec = parse_spec("[T1 [T21 || T22] T3]")?;
/// assert_eq!(spec.simple_count(), 4);
/// assert_eq!(spec.stage_count(), 3);
/// assert_eq!(spec.max_fanout(), 2);
/// # Ok::<(), sda_model::ParseSpecError>(())
/// ```
///
/// # Errors
///
/// Returns a [`ParseSpecError`] describing the first syntax problem: empty
/// input, unbalanced brackets, mixed separators at one level, a dangling
/// `||`, an unexpected character, trailing input, or brackets nested
/// more than 1,024 levels deep.
pub fn parse_spec(input: &str) -> Result<TaskSpec, ParseSpecError> {
    let tokens = tokenize(input)?;
    if tokens.is_empty() {
        return Err(ParseSpecError::Empty);
    }
    let mut parser = Parser {
        tokens: &tokens,
        pos: 0,
        depth: 0,
    };
    let spec = parser.spec()?;
    if parser.pos != tokens.len() {
        return Err(ParseSpecError::TrailingInput);
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_identifier_is_simple() {
        assert_eq!(parse_spec("T1").unwrap(), TaskSpec::Simple);
        assert_eq!(parse_spec("analysis_stage").unwrap(), TaskSpec::Simple);
    }

    #[test]
    fn serial_pipeline() {
        assert_eq!(parse_spec("[T1 T2 T3]").unwrap(), TaskSpec::pipeline(3));
    }

    #[test]
    fn parallel_fanout() {
        assert_eq!(
            parse_spec("[T1 || T2 || T3 || T4]").unwrap(),
            TaskSpec::parallel_simple(4)
        );
    }

    #[test]
    fn paper_figure1_example() {
        let spec = parse_spec("[T1 [T2 || [T3 T4 T5]] [T6 || T7] T8]").unwrap();
        assert_eq!(spec.simple_count(), 8);
        assert_eq!(spec.stage_count(), 4);
        // Round-trips through Display.
        assert_eq!(
            parse_spec(&spec.to_string()).unwrap(),
            spec,
            "printer output must re-parse to the same structure"
        );
    }

    #[test]
    fn paper_intro_example() {
        // [ {T11 ... T15} T2 ] from §1.
        let spec = parse_spec("[[T11 || T12 || T13 || T14 || T15] T2]").unwrap();
        assert_eq!(
            spec,
            TaskSpec::serial(vec![TaskSpec::parallel_simple(5), TaskSpec::simple()])
        );
    }

    #[test]
    fn figure14_text_matches_builder() {
        let text = "[init [g1 || g2 || g3 || g4] analysis [a1 || a2 || a3 || a4] conclude]";
        assert_eq!(
            parse_spec(text).unwrap(),
            TaskSpec::pipeline_with_fanout(5, &[(1, 4), (3, 4)])
        );
    }

    #[test]
    fn single_child_brackets_are_serial() {
        assert_eq!(
            parse_spec("[T1]").unwrap(),
            TaskSpec::Serial(vec![TaskSpec::Simple])
        );
    }

    #[test]
    fn whitespace_is_flexible() {
        assert_eq!(
            parse_spec("  [ T1   T2\tT3 ]\n").unwrap(),
            TaskSpec::pipeline(3)
        );
        assert_eq!(
            parse_spec("[T1||T2]").unwrap(),
            TaskSpec::parallel_simple(2)
        );
    }

    #[test]
    fn error_empty() {
        assert_eq!(parse_spec(""), Err(ParseSpecError::Empty));
        assert_eq!(parse_spec("   "), Err(ParseSpecError::Empty));
    }

    #[test]
    fn error_unbalanced() {
        assert_eq!(parse_spec("[T1 T2"), Err(ParseSpecError::Unbalanced));
        assert_eq!(parse_spec("]"), Err(ParseSpecError::Unbalanced));
    }

    #[test]
    fn error_trailing() {
        assert_eq!(parse_spec("[T1] [T2]"), Err(ParseSpecError::TrailingInput));
        assert_eq!(parse_spec("T1 T2"), Err(ParseSpecError::TrailingInput));
    }

    #[test]
    fn error_empty_brackets() {
        assert_eq!(parse_spec("[]"), Err(ParseSpecError::EmptyBrackets));
        assert_eq!(parse_spec("[T1 []]"), Err(ParseSpecError::EmptyBrackets));
    }

    #[test]
    fn error_mixed_separators() {
        assert_eq!(
            parse_spec("[T1 T2 || T3]"),
            Err(ParseSpecError::MixedSeparators)
        );
        assert_eq!(
            parse_spec("[T1 || T2 T3]"),
            Err(ParseSpecError::MixedSeparators)
        );
    }

    #[test]
    fn error_dangling_separator() {
        assert_eq!(
            parse_spec("[|| T1]"),
            Err(ParseSpecError::DanglingSeparator)
        );
        assert_eq!(
            parse_spec("[T1 ||]"),
            Err(ParseSpecError::DanglingSeparator)
        );
        assert_eq!(
            parse_spec("[T1 || || T2]"),
            Err(ParseSpecError::DanglingSeparator)
        );
    }

    #[test]
    fn error_unexpected_char() {
        assert_eq!(
            parse_spec("[T1 , T2]"),
            Err(ParseSpecError::UnexpectedChar(','))
        );
        assert_eq!(
            parse_spec("[T1 | T2]"),
            Err(ParseSpecError::UnexpectedChar('|'))
        );
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(
            ParseSpecError::MixedSeparators.to_string(),
            "serial and parallel separators mixed at one level"
        );
        assert_eq!(
            ParseSpecError::UnexpectedChar('!').to_string(),
            "unexpected character '!'"
        );
    }

    #[test]
    fn deep_nesting_parses() {
        let mut text = String::from("T0");
        for _ in 0..50 {
            text = format!("[{text} X]");
        }
        let spec = parse_spec(&text).unwrap();
        assert_eq!(spec.depth(), 51);
    }

    #[test]
    fn nesting_beyond_the_bound_is_an_error() {
        let nested = |levels: usize| format!("{}T1{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse_spec(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse_spec(&nested(MAX_DEPTH + 1)),
            Err(ParseSpecError::TooDeep)
        );
        // Far past the bound: an error, not a stack overflow.
        assert_eq!(parse_spec(&nested(50_000)), Err(ParseSpecError::TooDeep));
    }
}
