#ifndef RELCONT_DATALOG_PARSER_H_
#define RELCONT_DATALOG_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "datalog/program.h"

namespace relcont {

/// Parses datalog text.
///
/// Syntax:
///   q1(CarNo, Review) :- cardesc(CarNo, Model, C, Y),
///                        review(Model, Review, Rating).
///   q3(C, R) :- cardesc(C, M, Col, Y), review(M, R, 10), Y < 1970.
///   fact(1, red).
///
/// * Identifiers starting with an upper-case letter or '_' are variables.
/// * Identifiers starting with a lower-case letter are predicate names,
///   symbolic constants, or Skolem function symbols (when followed by '('
///   in argument position).
/// * Numeric literals may be integers, decimals ("12.5"), or fractions
///   ("25/2"); they live in the dense comparison domain.
/// * 'quoted text' is a symbolic constant.
/// * Comparisons use <, <=, >, >=, =, != and may appear anywhere in a body.
/// * '%' starts a comment that runs to end of line.
/// * A zero-arity head may be written `q()` or just `q`.
/// * Function terms nest at most kMaxTermDepth deep; deeper text is
///   rejected with InvalidArgument (the parser, and every later walk of a
///   term, recurses once per level).

inline constexpr int kMaxTermDepth = 256;

/// Parses a single rule (or fact) terminated by '.'.
Result<Rule> ParseRule(std::string_view text, Interner* interner);

/// Parses a whole program: a sequence of rules and facts.
Result<Program> ParseProgram(std::string_view text, Interner* interner);

}  // namespace relcont

#endif  // RELCONT_DATALOG_PARSER_H_
