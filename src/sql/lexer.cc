#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <cmath>

#include "util/string_util.h"

namespace subshare::sql {

namespace {

bool IsDigit(const std::string& sql, size_t i) {
  return i < sql.size() && std::isdigit(static_cast<unsigned char>(sql[i]));
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comments
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.position = static_cast<int>(i);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '@') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_' || sql[i] == '@')) {
        ++i;
      }
      tok.type = TokenType::kIdent;
      tok.text = ToLower(sql.substr(start, i - start));
    } else if (IsDigit(sql, i)) {
      // digits [ '.' digits ] [ ('e' | 'E') [ '+' | '-' ] digits ]; a
      // fraction or an exponent makes a kDouble.
      size_t start = i;
      bool is_double = false;
      while (IsDigit(sql, i)) ++i;
      if (i < n && sql[i] == '.' && IsDigit(sql, i + 1)) {
        is_double = true;
        ++i;
        while (IsDigit(sql, i)) ++i;
      }
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        size_t digits = i + 1;
        if (digits < n && (sql[digits] == '+' || sql[digits] == '-')) {
          ++digits;
        }
        if (IsDigit(sql, digits)) {
          is_double = true;
          i = digits;
          while (IsDigit(sql, i)) ++i;
        }
      }
      tok.text = sql.substr(start, i - start);
      const char* first = sql.data() + start;
      const char* last = sql.data() + i;
      std::from_chars_result parsed;
      if (is_double) {
        tok.type = TokenType::kDouble;
        parsed = std::from_chars(first, last, tok.double_value);
        if (parsed.ec == std::errc() && !std::isfinite(tok.double_value)) {
          parsed.ec = std::errc::result_out_of_range;
        }
      } else {
        tok.type = TokenType::kInt;
        parsed = std::from_chars(first, last, tok.int_value);
      }
      if (parsed.ec != std::errc() || parsed.ptr != last) {
        return Status::InvalidArgument(StrFormat(
            "numeric literal %s out of range at offset %d",
            tok.text.c_str(), tok.position));
      }
    } else if (c == '\'') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            text += '\'';
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        text += sql[i++];
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated string literal at offset %d",
                      tok.position));
      }
      tok.type = TokenType::kString;
      tok.text = std::move(text);
    } else {
      tok.type = TokenType::kSymbol;
      // two-char operators
      if (i + 1 < n) {
        std::string two = sql.substr(i, 2);
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
          tok.text = two == "!=" ? "<>" : two;
          i += 2;
          tokens.push_back(std::move(tok));
          continue;
        }
      }
      switch (c) {
        case ',': case '.': case '(': case ')': case '=': case '<':
        case '>': case '+': case '-': case '*': case '/': case ';':
          tok.text = std::string(1, c);
          ++i;
          break;
        default:
          return Status::InvalidArgument(
              StrFormat("unexpected character '%c' at offset %d", c,
                        tok.position));
      }
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = static_cast<int>(n);
  tokens.push_back(end);
  return tokens;
}

}  // namespace subshare::sql
