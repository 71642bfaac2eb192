#include "datalog/parser.h"

#include <cctype>
#include <string>
#include <vector>

namespace relcont {

namespace {

enum class TokenKind {
  kIdent,     // foo, Bar, _x
  kNumber,    // 12, -3, 12.5, 25/2
  kQuoted,    // 'red car'
  kLParen,
  kRParen,
  kComma,
  kPeriod,
  kImplies,   // :-
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;
};

class Lexer {
 public:
  Lexer(std::string_view text) : text_(text) {}

  Status Tokenize(std::vector<Token>* out) {
    size_t i = 0;
    int line = 1;
    auto n = text_.size();
    while (i < n) {
      char c = text_[i];
      if (c == '\n') {
        ++line;
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '%') {
        while (i < n && text_[i] != '\n') ++i;
        continue;
      }
      if (c == '(') {
        out->push_back({TokenKind::kLParen, "(", line});
        ++i;
        continue;
      }
      if (c == ')') {
        out->push_back({TokenKind::kRParen, ")", line});
        ++i;
        continue;
      }
      if (c == ',') {
        out->push_back({TokenKind::kComma, ",", line});
        ++i;
        continue;
      }
      if (c == ':') {
        if (i + 1 < n && text_[i + 1] == '-') {
          out->push_back({TokenKind::kImplies, ":-", line});
          i += 2;
          continue;
        }
        return Err(line, "expected ':-'");
      }
      if (c == '<') {
        if (i + 1 < n && text_[i + 1] == '=') {
          out->push_back({TokenKind::kLe, "<=", line});
          i += 2;
        } else {
          out->push_back({TokenKind::kLt, "<", line});
          ++i;
        }
        continue;
      }
      if (c == '>') {
        if (i + 1 < n && text_[i + 1] == '=') {
          out->push_back({TokenKind::kGe, ">=", line});
          i += 2;
        } else {
          out->push_back({TokenKind::kGt, ">", line});
          ++i;
        }
        continue;
      }
      if (c == '=') {
        out->push_back({TokenKind::kEq, "=", line});
        ++i;
        continue;
      }
      if (c == '!') {
        if (i + 1 < n && text_[i + 1] == '=') {
          out->push_back({TokenKind::kNe, "!=", line});
          i += 2;
          continue;
        }
        return Err(line, "expected '!='");
      }
      if (c == '\'') {
        size_t j = i + 1;
        while (j < n && text_[j] != '\'') ++j;
        if (j >= n) return Err(line, "unterminated quoted constant");
        out->push_back(
            {TokenKind::kQuoted, std::string(text_.substr(i + 1, j - i - 1)),
             line});
        i = j + 1;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < n &&
           std::isdigit(static_cast<unsigned char>(text_[i + 1])))) {
        size_t j = i + 1;
        while (j < n && (std::isdigit(static_cast<unsigned char>(text_[j])) ||
                         text_[j] == '/')) {
          ++j;
        }
        // Accept a decimal point only when followed by a digit, so that the
        // rule-terminating '.' in "p(1)." is not swallowed.
        if (j < n && text_[j] == '.' && j + 1 < n &&
            std::isdigit(static_cast<unsigned char>(text_[j + 1]))) {
          ++j;
          while (j < n &&
                 std::isdigit(static_cast<unsigned char>(text_[j]))) {
            ++j;
          }
        }
        out->push_back(
            {TokenKind::kNumber, std::string(text_.substr(i, j - i)), line});
        i = j;
        continue;
      }
      if (c == '.') {
        out->push_back({TokenKind::kPeriod, ".", line});
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i + 1;
        while (j < n && (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                         text_[j] == '_')) {
          ++j;
        }
        out->push_back(
            {TokenKind::kIdent, std::string(text_.substr(i, j - i)), line});
        i = j;
        continue;
      }
      return Err(line, std::string("unexpected character '") + c + "'");
    }
    out->push_back({TokenKind::kEnd, "", line});
    return Status::OK();
  }

 private:
  static Status Err(int line, const std::string& message) {
    return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                   message);
  }

  std::string_view text_;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, Interner* interner)
      : tokens_(std::move(tokens)), interner_(interner) {}

  Result<Program> ParseProgram() {
    Program program;
    while (Peek().kind != TokenKind::kEnd) {
      RELCONT_ASSIGN_OR_RETURN(Rule rule, ParseOneRule());
      program.rules.push_back(std::move(rule));
    }
    return program;
  }

  Result<Rule> ParseSingleRule() {
    RELCONT_ASSIGN_OR_RETURN(Rule rule, ParseOneRule());
    if (Peek().kind != TokenKind::kEnd) {
      return Err("trailing input after rule");
    }
    return rule;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() { return tokens_[pos_++]; }
  bool Accept(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(TokenKind kind, const char* what) {
    if (!Accept(kind)) return Err(std::string("expected ") + what);
    return Status::OK();
  }
  Status Err(const std::string& message) const {
    return Status::InvalidArgument("line " + std::to_string(Peek().line) +
                                   ": " + message);
  }

  static bool IsVariableName(const std::string& name) {
    return !name.empty() &&
           (std::isupper(static_cast<unsigned char>(name[0])) ||
            name[0] == '_');
  }

  Result<Rule> ParseOneRule() {
    RELCONT_ASSIGN_OR_RETURN(Atom head, ParseAtom());
    Rule rule;
    rule.head = std::move(head);
    if (Accept(TokenKind::kPeriod)) return rule;  // fact
    RELCONT_RETURN_NOT_OK(Expect(TokenKind::kImplies, "':-' or '.'"));
    for (;;) {
      RELCONT_RETURN_NOT_OK(ParseBodyLiteral(&rule));
      if (Accept(TokenKind::kComma)) continue;
      RELCONT_RETURN_NOT_OK(Expect(TokenKind::kPeriod, "'.'"));
      break;
    }
    return rule;
  }

  // A body literal is either a relational atom or a comparison
  // `term op term`.
  Status ParseBodyLiteral(Rule* rule) {
    // Comparison starting with a number or quoted constant.
    if (Peek().kind != TokenKind::kIdent ||
        IsComparisonAhead()) {
      RELCONT_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
      ComparisonOp op;
      RELCONT_RETURN_NOT_OK(ParseComparisonOp(&op));
      RELCONT_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      rule->comparisons.emplace_back(std::move(lhs), op, std::move(rhs));
      return Status::OK();
    }
    RELCONT_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    rule->body.push_back(std::move(atom));
    return Status::OK();
  }

  // True when the current position starts `ident op ...` (a comparison on a
  // variable or symbolic constant) rather than an atom.
  bool IsComparisonAhead() const {
    if (Peek().kind != TokenKind::kIdent) return true;
    TokenKind next = Peek(1).kind;
    return next == TokenKind::kLt || next == TokenKind::kLe ||
           next == TokenKind::kGt || next == TokenKind::kGe ||
           next == TokenKind::kEq || next == TokenKind::kNe;
  }

  Status ParseComparisonOp(ComparisonOp* op) {
    switch (Peek().kind) {
      case TokenKind::kLt:
        *op = ComparisonOp::kLt;
        break;
      case TokenKind::kLe:
        *op = ComparisonOp::kLe;
        break;
      case TokenKind::kGt:
        *op = ComparisonOp::kGt;
        break;
      case TokenKind::kGe:
        *op = ComparisonOp::kGe;
        break;
      case TokenKind::kEq:
        *op = ComparisonOp::kEq;
        break;
      case TokenKind::kNe:
        *op = ComparisonOp::kNe;
        break;
      default:
        return Err("expected comparison operator");
    }
    ++pos_;
    return Status::OK();
  }

  Result<Atom> ParseAtom() {
    if (Peek().kind != TokenKind::kIdent) {
      return Result<Atom>(Err("expected predicate name"));
    }
    std::string name = Next().text;
    Atom atom;
    atom.predicate = interner_->Intern(name);
    if (!Accept(TokenKind::kLParen)) return atom;  // zero-arity, bare form
    if (Accept(TokenKind::kRParen)) return atom;   // `q()`
    for (;;) {
      RELCONT_ASSIGN_OR_RETURN(Term t, ParseTerm());
      atom.args.push_back(std::move(t));
      if (Accept(TokenKind::kComma)) continue;
      RELCONT_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
      break;
    }
    return atom;
  }

  /// `depth` counts the function terms enclosing this one.
  Result<Term> ParseTerm(int depth = 0) {
    if (depth > kMaxTermDepth) {
      return Result<Term>(Err("function terms nest deeper than " +
                              std::to_string(kMaxTermDepth)));
    }
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kNumber: {
        Rational r;
        if (!Rational::Parse(tok.text, &r)) {
          return Result<Term>(Err("malformed number '" + tok.text + "'"));
        }
        ++pos_;
        return Term::Number(r);
      }
      case TokenKind::kQuoted: {
        SymbolId s = interner_->Intern(tok.text);
        ++pos_;
        return Term::Symbol(s);
      }
      case TokenKind::kIdent: {
        std::string name = Next().text;
        if (IsVariableName(name)) {
          return Term::Var(interner_->Intern(name));
        }
        // Lower-case identifier: function term if followed by '(', else a
        // symbolic constant.
        if (Accept(TokenKind::kLParen)) {
          std::vector<Term> args;
          if (!Accept(TokenKind::kRParen)) {
            for (;;) {
              RELCONT_ASSIGN_OR_RETURN(Term t, ParseTerm(depth + 1));
              args.push_back(std::move(t));
              if (Accept(TokenKind::kComma)) continue;
              RELCONT_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'"));
              break;
            }
          }
          return Term::Function(interner_->Intern(name), std::move(args));
        }
        return Term::Symbol(interner_->Intern(name));
      }
      default:
        return Result<Term>(Err("expected term"));
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Interner* interner_;
};

}  // namespace

Result<Rule> ParseRule(std::string_view text, Interner* interner) {
  std::vector<Token> tokens;
  RELCONT_RETURN_NOT_OK(Lexer(text).Tokenize(&tokens));
  return Parser(std::move(tokens), interner).ParseSingleRule();
}

Result<Program> ParseProgram(std::string_view text, Interner* interner) {
  std::vector<Token> tokens;
  RELCONT_RETURN_NOT_OK(Lexer(text).Tokenize(&tokens));
  return Parser(std::move(tokens), interner).ParseProgram();
}

}  // namespace relcont
