#ifndef SCIDB_QUERY_OPERATOR_TABLE_H_
#define SCIDB_QUERY_OPERATOR_TABLE_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "exec/operators.h"
#include "query/parse_tree.h"

namespace scidb {

// The built-in AQL operators (paper §2.2), each declared once: its name,
// the ordered kinds of its arguments, and its executor. The parser, the
// AQL printer, the plan printer, tree validation and Session dispatch all
// read these rows, so adding an operator is one row plus its exec
// function (DESIGN.md §2, "Operator table").

// One argument of an operator call, and the OpNode field it fills.
enum class ArgKind {
  kInput,            // an array: nested call or array name  -> inputs
  kExpr,             // one expression                       -> exprs
  kName,             // one identifier                       -> names
  kNames,            // [a, b, ...]                          -> names
  kGroupNames,       // {a, b, ...}, may be empty            -> names
  kTrailingNames,    // ", a" repeated to the closing paren  -> names
  kNumbers,          // [1, 2, ...]                          -> numbers
  kTrailingNumbers,  // ", 1" repeated to the closing paren  -> numbers
  kDims,             // [K = 0 : 9, ...]                     -> dims
  kAgg,              // one aggregate call, sum(v)           -> aggs
  kAggs,             // one or more calls to the closing paren -> aggs
};

// The trailing kinds take zero or more ", item"s and close the call;
// kAggs is one item followed by the same trailing run.
inline bool IsTrailing(ArgKind kind) {
  return kind == ArgKind::kTrailingNames ||
         kind == ArgKind::kTrailingNumbers;
}

struct OperatorRow {
  std::string_view name;  // lowercase; AQL matches it case-insensitively
  std::vector<ArgKind> args;
  // Applies the operator to its evaluated inputs. Null for a predicate.
  Result<MemArray> (*exec)(const ExecContext& ctx, const OpNode& node,
                           const std::vector<MemArray>& inputs);
  // A predicate (Exists) yields a boolean instead of an array, so it runs
  // only at the root of a statement, over its one evaluated input.
  bool (*test)(const OpNode& node, const MemArray& input) = nullptr;
};

// The row named `lower_name`, or null.
const OperatorRow* FindOperator(std::string_view lower_name);

// Checks one node's fields against its row: the counts of inputs,
// expressions, names, numbers, dims and aggregate calls the row's kinds
// allow, and no null input or expression. Invalid on a mismatch.
Status CheckArgs(const OperatorRow& row, const OpNode& node);

// CheckArgs over every node of a tree. Operators in `user_ops`
// (lowercase) take any inputs and expressions; any other unknown name is
// NotImplemented. Run once before optimization, so the optimizer, the
// printers and the executors may index a node's arguments freely.
Status ValidateOpTree(const OpNodePtr& root,
                      const std::set<std::string>* user_ops);

// The ", "-joined items of the list field `kind` fills, as both printers
// render them; "" for kInput and kExpr.
std::string ListText(ArgKind kind, const OpNode& node);

// The AQL text of one list item, and the ", "-joined items of a list.
inline std::string ArgText(const std::string& name) { return name; }
inline std::string ArgText(int64_t number) { return std::to_string(number); }
inline std::string ArgText(const AggCall& call) {
  return call.agg + "(" + call.attr + ")";
}
inline std::string ArgText(const DimensionDesc& d) {
  return d.name + " = " + std::to_string(d.low) + " : " +
         std::to_string(d.high);
}
template <typename T>
std::string JoinArgs(const std::vector<T>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += ArgText(items[i]);
  }
  return out;
}

}  // namespace scidb

#endif  // SCIDB_QUERY_OPERATOR_TABLE_H_
