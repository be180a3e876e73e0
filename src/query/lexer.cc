#include "query/lexer.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>

namespace scidb {

namespace {

const std::set<std::string>& Keywords() {
  static const auto* const kKeywords = new std::set<std::string>{
      "define", "create",  "updatable", "as",   "and", "or",
      "not",    "with",    "into",      "store", "insert", "values",
      "uncertain", "select", "enhance", "shape", "true", "false", "null",
      "trace", "back", "forward", "explain", "analyze", "set",
  };
  return *kKeywords;
}

}  // namespace

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      tok.text = input.substr(start, i - start);
      std::string lower = ToLower(tok.text);
      if (Keywords().count(lower)) {
        tok.type = TokenType::kKeyword;
        tok.text = lower;
      } else {
        tok.type = TokenType::kIdentifier;
      }
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
        ++i;
      }
      // A '.' starts a fraction only when followed by a digit ("1.5"), not
      // member access ("A.x" never begins with a digit anyway).
      if (i + 1 < n && input[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(input[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
          ++i;
        }
      }
      tok.text = input.substr(start, i - start);
      if (is_float) {
        tok.type = TokenType::kFloat;
        // strtod never throws (std::stod throws out_of_range on literals
        // like "1" + 400 digits, found by fuzz_parser). Overflow to
        // infinity is a lex error; underflow to 0 is accepted as 0.
        errno = 0;
        tok.float_value = std::strtod(tok.text.c_str(), nullptr);
        if (!std::isfinite(tok.float_value)) {
          return Status::Invalid("float literal out of range at offset " +
                                 std::to_string(tok.offset));
        }
      } else {
        tok.type = TokenType::kInteger;
        // Manual accumulation: std::stoll throws out_of_range on
        // "9223372036854775808" and longer digit runs (found by
        // fuzz_parser); library code must return Status instead.
        int64_t v = 0;
        for (char d : tok.text) {
          int digit = d - '0';
          if (v > (INT64_MAX - digit) / 10) {
            return Status::Invalid("integer literal out of range at offset " +
                                   std::to_string(tok.offset));
          }
          v = v * 10 + digit;
        }
        tok.int_value = v;
      }
    } else if (c == '\'') {
      ++i;
      std::string s;
      while (i < n && input[i] != '\'') {
        s.push_back(input[i]);
        ++i;
      }
      if (i >= n) {
        return Status::Invalid("unterminated string literal at offset " +
                               std::to_string(tok.offset));
      }
      ++i;  // closing quote
      tok.type = TokenType::kString;
      tok.text = std::move(s);
    } else {
      // Two-character operators first.
      if (i + 1 < n) {
        std::string two = input.substr(i, 2);
        if (two == "<=" || two == ">=" || two == "!=" || two == "<>") {
          tok.type = TokenType::kSymbol;
          tok.text = two == "<>" ? "!=" : two;
          out.push_back(tok);
          i += 2;
          continue;
        }
      }
      static const std::string kSingles = "()[]{},.=<>:*+-/%";
      if (kSingles.find(c) == std::string::npos) {
        return Status::Invalid(std::string("unexpected character '") + c +
                               "' at offset " + std::to_string(i));
      }
      tok.type = TokenType::kSymbol;
      tok.text = std::string(1, c);
      ++i;
    }
    out.push_back(std::move(tok));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.offset = n;
  out.push_back(end);
  return out;
}

}  // namespace scidb
