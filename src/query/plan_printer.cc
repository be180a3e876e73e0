#include "query/plan_printer.h"

#include <sstream>

namespace scidb {

namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

std::string JoinNumbers(const std::vector<int64_t>& nums) {
  std::string out;
  for (size_t i = 0; i < nums.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(nums[i]);
  }
  return out;
}

std::string AggSummary(const OpNode& node) {
  // Multi-aggregate lists every call; plain nodes have just `agg`.
  const std::vector<AggSpec>& specs =
      node.aggs.size() > 1 ? node.aggs : std::vector<AggSpec>{node.agg};
  std::string out;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) out += ", ";
    out += specs[i].agg + "(" + specs[i].attr + ")";
  }
  return out;
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
  const std::string& op = node.op;
  std::string detail;
  if (op == "filter" || op == "subsample" || op == "cjoin" ||
      op == "sjoin") {
    if (!node.exprs.empty() && node.exprs[0] != nullptr) {
      detail = node.exprs[0]->ToString();
    }
  } else if (op == "apply") {
    if (!node.names.empty()) detail = node.names[0];
    if (!node.exprs.empty() && node.exprs[0] != nullptr) {
      detail += " = " + node.exprs[0]->ToString();
    }
  } else if (op == "aggregate") {
    detail = "{";
    detail.append(JoinNames(node.names)).append("} ").append(AggSummary(node));
  } else if (op == "regrid" || op == "window") {
    detail = JoinNumbers(node.numbers) + "; " + AggSummary(node);
  } else if (op == "project" || op == "concat" || op == "adddimension" ||
             op == "removedimension" || op == "reshape") {
    detail = JoinNames(node.names);
  } else if (op == "exists") {
    detail = JoinNumbers(node.numbers);
  }
  if (detail.empty()) return op;
  return op + " [" + detail + "]";
}

std::string FormatPlan(const OpNode& root) {
  std::ostringstream out;
  RenderPlanNode(root, 0, &out);
  return out.str();
}

}  // namespace scidb
