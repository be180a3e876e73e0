#ifndef SCIDB_QUERY_LEXER_H_
#define SCIDB_QUERY_LEXER_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace scidb {

enum class TokenType {
  kIdentifier,  // My_remote, Subsample, even
  kInteger,     // 42
  kFloat,       // 16.3
  kString,      // 'text'
  kSymbol,      // ( ) [ ] { } , . = < > <= >= != : * + - / %
  kKeyword,     // define, create, updatable, as, and, or, not, with, into
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;
  int64_t int_value = 0;
  double float_value = 0;
  size_t offset = 0;  // for error messages

  bool Is(TokenType t) const { return type == t; }
  bool IsSymbol(const std::string& s) const {
    return type == TokenType::kSymbol && text == s;
  }
  bool IsKeyword(const std::string& s) const {
    return type == TokenType::kKeyword && text == s;
  }
};

// Tokenizes one AQL statement. Keywords are case-insensitive and
// normalized to lower case; identifiers keep their case.
Result<std::vector<Token>> Tokenize(const std::string& input);

// ASCII lower case: how keywords, operator, type and aggregate names fold.
std::string ToLower(const std::string& s);

}  // namespace scidb

#endif  // SCIDB_QUERY_LEXER_H_
