//! A small Rust lexer: just enough token structure for lexical lint
//! rules, with exact line numbers and comments preserved out-of-band.
//!
//! The lexer is deliberately not a full Rust grammar — rules match on
//! token shapes (`.unwrap` `(`, `partial_cmp`, `let` `_` `=`, lock
//! chains), so the hard requirements are only:
//!
//! * string/char/byte/raw-string literals never leak tokens (an
//!   `unwrap()` inside a string must not fire a rule),
//! * comments are captured separately (suppressions live in them),
//! * lifetimes are distinguished from char literals,
//! * every token knows its 1-based line.

/// What a token is. Literal *content* is irrelevant to every rule, so
/// literals carry no text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`unwrap`, `let`, `_`, `HashMap`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `(`, `!`, ...). Multi-char
    /// operators appear as consecutive `Punct` tokens.
    Punct(char),
    /// A lifetime (`'a`, `'_`, `'static`), name not preserved.
    Lifetime,
    /// Any string/char/byte-string literal.
    Literal,
    /// A numeric literal.
    Num,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind (and identifier text).
    pub kind: Tok,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// The identifier text, if this is an identifier.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this is the identifier `name`.
    #[must_use]
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(&self.kind, Tok::Ident(s) if s == name)
    }

    /// Whether this is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        matches!(&self.kind, Tok::Punct(p) if *p == c)
    }
}

/// One `//` comment: its 1-based line and full text (without the `//`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text after the leading `//` (or `/*`), trimmed.
    pub text: String,
    /// Whether any code token precedes the comment on its line.
    pub trailing: bool,
}

/// Lexer output: the significant-token stream plus captured comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Line comments (and single-line block comments), in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src`. Unterminated constructs (string, block comment) consume
/// to end of input rather than erroring — the analyzer must degrade
/// gracefully on code rustc itself would reject.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer<'s> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// Line of the most recently pushed token (for `Comment::trailing`).
    last_token_line: u32,
    out: Lexed,
    _src: &'s str,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            last_token_line: 0,
            out: Lexed::default(),
            _src: src,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: Tok, line: u32) {
        self.last_token_line = line;
        self.out.tokens.push(Token { kind, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => {
                    self.bump();
                    self.string_body(0);
                    self.push(Tok::Literal, line);
                }
                'r' | 'b' if self.raw_or_byte_literal(line) => {}
                '\'' => self.lifetime_or_char(line),
                c if c.is_alphabetic() || c == '_' => {
                    let mut ident = String::new();
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            ident.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(Tok::Ident(ident), line);
                }
                c if c.is_ascii_digit() => {
                    self.number();
                    self.push(Tok::Num, line);
                }
                c => {
                    self.bump();
                    self.push(Tok::Punct(c), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        self.bump();
        self.bump(); // consume `//`
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            line,
            text: text.trim_start_matches(['/', '!']).trim().to_string(),
            trailing: self.last_token_line == line,
        });
    }

    fn block_comment(&mut self, line: u32) {
        self.bump();
        self.bump(); // consume `/*`
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        // Only single-line block comments can carry suppressions; that
        // keeps the "which line does it apply to" rule unambiguous.
        if self.line == line {
            self.out.comments.push(Comment {
                line,
                text: text.trim_matches(['*', '!', ' ']).trim().to_string(),
                trailing: self.last_token_line == line,
            });
        }
    }

    /// Consumes a (possibly escaped) double-quoted string body after the
    /// opening quote, honouring `hashes` trailing `#`s for raw strings
    /// (0 = normal string with escapes).
    fn string_body(&mut self, hashes: usize) {
        if hashes == 0 {
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '"' => return,
                    _ => {}
                }
            }
        } else {
            // Raw string: ends at `"` followed by `hashes` `#`s.
            while let Some(c) = self.bump() {
                if c == '"' {
                    let mut n = 0;
                    while n < hashes && self.peek(0) == Some('#') {
                        self.bump();
                        n += 1;
                    }
                    if n == hashes {
                        return;
                    }
                }
            }
        }
    }

    /// Handles `r"..."`, `r#"..."#`, `b"..."`, `b'..'`, `br#"..."#`.
    /// Returns false when the `r`/`b` starts a plain identifier.
    fn raw_or_byte_literal(&mut self, line: u32) -> bool {
        let c0 = self.peek(0);
        let mut idx = 1;
        let mut raw = c0 == Some('r');
        if c0 == Some('b') {
            match self.peek(1) {
                Some('r') => {
                    raw = true;
                    idx = 2;
                }
                Some('"') => {
                    self.bump();
                    self.bump();
                    self.string_body(0);
                    self.push(Tok::Literal, line);
                    return true;
                }
                Some('\'') => {
                    self.bump(); // b
                    self.bump(); // '
                    if self.peek(0) == Some('\\') {
                        self.bump();
                        self.bump();
                    } else {
                        self.bump();
                    }
                    if self.peek(0) == Some('\'') {
                        self.bump();
                    }
                    self.push(Tok::Literal, line);
                    return true;
                }
                _ => return false,
            }
        }
        if !raw {
            return false;
        }
        // Count `#`s after the r/br prefix, then require a quote.
        let mut hashes = 0usize;
        while self.peek(idx + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(idx + hashes) != Some('"') {
            return false;
        }
        for _ in 0..(idx + hashes + 1) {
            self.bump();
        }
        self.string_body(hashes);
        self.push(Tok::Literal, line);
        true
    }

    /// Distinguishes `'a` (lifetime) from `'a'`/`'\n'` (char literal).
    fn lifetime_or_char(&mut self, line: u32) {
        self.bump(); // consume `'`
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume to the closing quote.
                self.bump();
                self.bump();
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                self.push(Tok::Literal, line);
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                if self.peek(1) == Some('\'') && c != '_' {
                    self.bump();
                    self.bump();
                    self.push(Tok::Literal, line);
                } else {
                    // Lifetime: consume the identifier.
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(Tok::Lifetime, line);
                }
            }
            _ => {
                // `'('`-style char literal of punctuation, or stray quote.
                if self.peek(1) == Some('\'') {
                    self.bump();
                    self.bump();
                    self.push(Tok::Literal, line);
                } else {
                    self.push(Tok::Punct('\''), line);
                }
            }
        }
    }

    fn number(&mut self) {
        while let Some(c) = self.peek(0) {
            let fraction = c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit());
            let exponent_sign = (c == '+' || c == '-')
                && self
                    .chars
                    .get(self.pos.wrapping_sub(1))
                    .is_some_and(|p| *p == 'e' || *p == 'E');
            if !(c.is_alphanumeric() || c == '_' || fraction || exponent_sign) {
                break;
            }
            self.bump();
        }
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let x = "foo.unwrap()"; y.unwrap();"#);
        let unwraps = l.tokens.iter().filter(|t| t.is_ident("unwrap")).count();
        assert_eq!(unwraps, 1, "string contents must not produce tokens");
    }

    #[test]
    fn raw_strings_and_hashes() {
        let l = lex(r##"let s = r#"has "quotes" and unwrap()"#; s.len()"##);
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(l.tokens.iter().any(|t| t.is_ident("len")));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let l = lex(r#"let a = b"panic!()"; let c = b'x'; let d = b'\n'; tail"#);
        assert!(!l.tokens.iter().any(|t| t.is_ident("panic")));
        assert!(l.tokens.iter().any(|t| t.is_ident("tail")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = l.tokens.iter().filter(|t| t.kind == Tok::Lifetime).count();
        let chars = l.tokens.iter().filter(|t| t.kind == Tok::Literal).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn escaped_char_literals() {
        let l = lex(r"let nl = '\n'; let q = '\''; let u = '\u{1F600}'; after");
        assert!(l.tokens.iter().any(|t| t.is_ident("after")));
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == Tok::Literal).count(),
            3
        );
    }

    #[test]
    fn static_lifetime_and_underscore() {
        let l = lex("x: &'static str, y: &'_ u8");
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == Tok::Lifetime).count(),
            2
        );
    }

    #[test]
    fn comments_are_captured_with_lines_and_position() {
        let src = "let a = 1; // trailing note\n// full line\nlet b = 2;\n/* boxed */ let c = 3;";
        let l = lex(src);
        assert_eq!(l.comments.len(), 3);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].trailing);
        assert_eq!(l.comments[0].text, "trailing note");
        assert_eq!(l.comments[1].line, 2);
        assert!(!l.comments[1].trailing);
        assert_eq!(l.comments[2].line, 4);
        assert!(!l.comments[2].trailing, "block comment precedes the code");
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ let x = 1;");
        assert!(l.tokens.iter().any(|t| t.is_ident("x")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("inner")));
        assert_eq!(idents("/* a */ b"), vec!["b"]);
    }

    #[test]
    fn line_numbers_are_exact() {
        let src = "a\nb\n\nc.unwrap()";
        let l = lex(src);
        let unwrap = l.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!(unwrap.line, 4);
    }

    #[test]
    fn numbers_with_suffixes_ranges_and_exponents() {
        let l = lex("0..10; 1.5e-3f64; 0xFF_u8; v[1]");
        // Ranges keep their dots as punctuation; `v` survives.
        assert!(l.tokens.iter().any(|t| t.is_ident("v")));
        let dots = l.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "range dots are punctuation");
    }

    #[test]
    fn idents_lex_whole() {
        assert_eq!(
            idents("let unwrap_or_else = unwrap"),
            vec!["let", "unwrap_or_else", "unwrap"]
        );
    }

    #[test]
    fn multi_hash_raw_strings_hide_inner_terminators() {
        // The inner `"#` must not close an `r##"..."##` string.
        let l = lex("let s = r##\"inner \"# quote, unwrap()\"##; tail.unwrap()");
        let unwraps = l.tokens.iter().filter(|t| t.is_ident("unwrap")).count();
        assert_eq!(unwraps, 1, "only the code unwrap survives");
        assert!(l.tokens.iter().any(|t| t.is_ident("tail")));
    }

    #[test]
    fn raw_strings_hide_comment_markers() {
        let l = lex("let s = r#\"// not a comment /* nor this */\"#; after");
        assert!(l.comments.is_empty(), "{:?}", l.comments);
        assert!(l.tokens.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn byte_raw_strings_hide_their_contents() {
        let l = lex("let s = br#\"panic!()\"#; tail");
        assert!(!l.tokens.iter().any(|t| t.is_ident("panic")));
        assert!(l.tokens.iter().any(|t| t.is_ident("tail")));
    }

    #[test]
    fn block_comment_hides_string_quotes() {
        // An odd number of quotes inside a comment must not open a string.
        let l = lex("/* \"unterminated */ let x = 1;");
        assert!(l.tokens.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn deeply_nested_block_comments_balance() {
        let l = lex("/* 1 /* 2 /* 3 */ 2 */ 1 */ survivor");
        assert_eq!(
            idents("/* 1 /* 2 /* 3 */ 2 */ 1 */ survivor"),
            vec!["survivor"]
        );
        assert!(!l.tokens.iter().any(|t| t.is_ident("1")));
    }

    #[test]
    fn unterminated_block_comment_stops_cleanly() {
        let l = lex("let a = 1; /* runs off the end of the file");
        assert!(l.tokens.iter().any(|t| t.is_ident("a")));
    }

    #[test]
    fn turbofish_lexes_as_punctuation() {
        let l = lex("v.iter().collect::<Vec<_>>(); done");
        assert!(l.tokens.iter().any(|t| t.is_ident("collect")));
        assert!(l.tokens.iter().any(|t| t.is_ident("Vec")));
        assert!(l.tokens.iter().any(|t| t.is_ident("done")));
        // No lifetime/char confusion from the angle brackets.
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == Tok::Lifetime).count(),
            0
        );
    }

    #[test]
    fn loop_labels_are_lifetimes_not_chars() {
        let l = lex("'outer: loop { break 'outer; }");
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == Tok::Lifetime).count(),
            2
        );
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == Tok::Literal).count(),
            0
        );
    }

    #[test]
    fn long_lifetimes_next_to_char_matches() {
        let l = lex("fn g<'long_name, T>(x: &'long_name T) { match c { 'b' => {} '\\n' => {} } }");
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == Tok::Lifetime).count(),
            2
        );
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == Tok::Literal).count(),
            2
        );
    }
}
