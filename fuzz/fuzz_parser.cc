// AQL parser harness: arbitrary bytes must never crash the
// lexer/parser, and for every statement that parses, print -> re-parse
// must be a fixed point (DESIGN.md §9). Found for real: std::stoll /
// std::stod throwing out_of_range on oversized numeric literals, and
// stack exhaustion on deeply nested "((((" / "not not" / "Filter(Filter("
// inputs. Every accepted operator tree must also pass the operator-table
// validation Session runs before optimization, so the grammar and the
// validator cannot drift apart.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "query/aql_printer.h"
#include "query/operator_table.h"
#include "query/parser.h"

namespace {

[[noreturn]] void Fail(const char* property, const std::string& detail) {
  std::fprintf(stderr, "fuzz_parser: %s\n%s\n", property, detail.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string input(reinterpret_cast<const char*>(data), size);
  auto parsed = scidb::ParseStatement(input, nullptr);
  if (!parsed.ok()) return 0;  // rejecting is fine; crashing is not
  if (parsed.value().query != nullptr) {
    scidb::Status valid = scidb::ValidateOpTree(parsed.value().query, nullptr);
    if (!valid.ok()) {
      Fail("parsed tree fails operator-table validation",
           input + "\n" + valid.ToString());
    }
  }

  // Accepted statements must print, and the printed form is canonical:
  // it re-parses, and printing the re-parse reproduces it byte for byte.
  auto printed = scidb::StatementToAql(parsed.value());
  if (!printed.ok()) {
    Fail("parsed statement failed to print",
         input + "\n" + printed.status().ToString());
  }
  auto reparsed = scidb::ParseStatement(printed.value(), nullptr);
  if (!reparsed.ok()) {
    Fail("printed statement failed to re-parse",
         printed.value() + "\n" + reparsed.status().ToString());
  }
  auto printed2 = scidb::StatementToAql(reparsed.value());
  if (!printed2.ok()) {
    Fail("re-parsed statement failed to print", printed.value());
  }
  if (printed2.value() != printed.value()) {
    Fail("print -> parse -> print is not a fixed point",
         printed.value() + "\n!=\n" + printed2.value());
  }
  return 0;
}
