#include "query/plan_printer.h"

#include <sstream>

#include "query/operator_table.h"

namespace scidb {

namespace {

// One argument's part of a label: inputs (child lines) and reshape dims
// show nothing, an expression its text, a list its items.
std::string ArgSummary(ArgKind kind, const OpNode& node) {
  if (kind == ArgKind::kDims) return "";
  if (kind == ArgKind::kExpr) {
    return node.exprs.empty() || node.exprs[0] == nullptr
               ? ""
               : node.exprs[0]->ToString();
  }
  if (kind != ArgKind::kGroupNames) return ListText(kind, node);
  // Appended, not "{" + ... + "}": GCC 12 at -O3 raises a false
  // -Werror=restrict on that operator+ chain.
  std::string out = "{";
  return out.append(ListText(kind, node)).append("}");
}

// What separates a part from the one before it: "x = e" (apply),
// "2, 2; sum(v)" (regrid, window), "{Y} sum(v)" (aggregate).
const char* Joiner(ArgKind kind) {
  if (kind == ArgKind::kExpr) return " = ";
  if (kind == ArgKind::kAgg) return "; ";
  return kind == ArgKind::kAggs ? " " : ", ";
}

void RenderPlanNode(const OpNode& node, int depth, std::ostringstream* out) {
  for (int i = 0; i < depth; ++i) *out << "  ";
  *out << PlanLabel(node) << "\n";
  for (const auto& in : node.inputs) {
    if (in != nullptr) RenderPlanNode(*in, depth + 1, out);
  }
}

}  // namespace

std::string PlanLabel(const OpNode& node) {
  if (node.is_array_ref()) {
    std::string label = "scan " + node.array;
    if (!node.version.empty()) label += "@" + node.version;
    return label;
  }
  std::string detail;
  if (const OperatorRow* row = FindOperator(node.op)) {
    for (ArgKind kind : row->args) {
      std::string part = ArgSummary(kind, node);
      if (part.empty()) continue;
      if (!detail.empty()) detail += Joiner(kind);
      detail += part;
    }
  }
  if (detail.empty()) return node.op;
  return node.op + " [" + detail + "]";
}

std::string FormatPlan(const OpNode& root) {
  std::ostringstream out;
  RenderPlanNode(root, 0, &out);
  return out.str();
}

}  // namespace scidb
