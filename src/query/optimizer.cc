#include "query/optimizer.h"

#include "common/macros.h"
#include "query/operator_table.h"

namespace scidb {

namespace {

std::shared_ptr<OpNode> CloneNode(const OpNode& n) {
  auto copy = std::make_shared<OpNode>();
  *copy = n;
  return copy;
}

bool IsOp(const OpNodePtr& n, const char* op) {
  return n != nullptr && n->op == op;
}

// `node` is an `op` over an `inner_op`, both well-formed (operator
// table): the rules never fire on, or index into, a malformed node;
// ValidateOpTree is what rejects it. Names are compared first, so only
// nodes a rule is about to rewrite pay for the check.
bool Matches(const OpNodePtr& node, const char* op, const char* inner_op) {
  return IsOp(node, op) && !node->inputs.empty() &&
         IsOp(node->inputs[0], inner_op) &&
         CheckArgs(*FindOperator(op), *node).ok() &&
         CheckArgs(*FindOperator(inner_op), *node->inputs[0]).ok();
}

// One top-down rewrite pass; sets *changed when a rule fired.
Result<OpNodePtr> Rewrite(const OpNodePtr& node, OptimizerStats* stats,
                          bool* changed);

Result<OpNodePtr> RewriteChildren(const OpNodePtr& node,
                                  OptimizerStats* stats, bool* changed) {
  bool child_changed = false;
  std::vector<OpNodePtr> new_inputs;
  new_inputs.reserve(node->inputs.size());
  for (const auto& in : node->inputs) {
    ASSIGN_OR_RETURN(OpNodePtr rewritten, Rewrite(in, stats, &child_changed));
    new_inputs.push_back(std::move(rewritten));
  }
  if (!child_changed) return node;
  *changed = true;
  auto copy = CloneNode(*node);
  copy->inputs = std::move(new_inputs);
  return OpNodePtr(copy);
}

Result<OpNodePtr> Rewrite(const OpNodePtr& node, OptimizerStats* stats,
                          bool* changed) {
  if (node == nullptr || node->is_array_ref()) return node;

  // R2: Subsample(Subsample(A, p), q) -> Subsample(A, p and q).
  if (Matches(node, "subsample", "subsample")) {
    const OpNode& inner = *node->inputs[0];
    auto merged = std::make_shared<OpNode>();
    merged->op = "subsample";
    merged->inputs = inner.inputs;
    merged->exprs = {And(inner.exprs[0], node->exprs[0])};
    if (stats) ++stats->subsample_merges;
    *changed = true;
    return Rewrite(OpNodePtr(merged), stats, changed);
  }

  // R3: Filter(Filter(A, p), q) -> Filter(A, p and q).
  if (Matches(node, "filter", "filter")) {
    const OpNode& inner = *node->inputs[0];
    auto merged = std::make_shared<OpNode>();
    merged->op = "filter";
    merged->inputs = inner.inputs;
    merged->exprs = {And(inner.exprs[0], node->exprs[0])};
    if (stats) ++stats->filter_merges;
    *changed = true;
    return Rewrite(OpNodePtr(merged), stats, changed);
  }

  // R1: Subsample(Filter(A, p), q) -> Filter(Subsample(A, q), p).
  if (Matches(node, "subsample", "filter")) {
    const OpNode& filter = *node->inputs[0];
    auto pushed = std::make_shared<OpNode>();
    pushed->op = "subsample";
    pushed->inputs = filter.inputs;
    pushed->exprs = node->exprs;
    auto outer = std::make_shared<OpNode>();
    outer->op = "filter";
    outer->inputs = {OpNodePtr(pushed)};
    outer->exprs = filter.exprs;
    if (stats) ++stats->subsample_pushdowns;
    *changed = true;
    return Rewrite(OpNodePtr(outer), stats, changed);
  }

  // R4: Subsample(Apply(A, x, e), q) -> Apply(Subsample(A, q), x, e),
  // legal only when q does not reference the applied attribute.
  if (Matches(node, "subsample", "apply")) {
    const OpNode& apply = *node->inputs[0];
    std::vector<std::string> refs;
    node->exprs[0]->CollectRefs(&refs);
    bool references_new_attr = false;
    for (const auto& r : refs) {
      if (r == apply.names[0]) {
        references_new_attr = true;
        break;
      }
    }
    // Subsample predicates are dimension-only, so this should always be
    // safe — the check guards against malformed trees.
    if (!references_new_attr) {
      auto pushed = std::make_shared<OpNode>();
      pushed->op = "subsample";
      pushed->inputs = apply.inputs;
      pushed->exprs = node->exprs;
      auto outer = CloneNode(apply);
      outer->inputs = {OpNodePtr(pushed)};
      if (stats) ++stats->subsample_pushdowns;
      *changed = true;
      return Rewrite(OpNodePtr(outer), stats, changed);
    }
  }

  // R5: Project(Project(A, xs), ys) -> Project(A, ys).
  if (Matches(node, "project", "project")) {
    const OpNode& inner = *node->inputs[0];
    bool subset = true;
    for (const auto& y : node->names) {
      bool found = false;
      for (const auto& x : inner.names) {
        if (x == y) {
          found = true;
          break;
        }
      }
      if (!found) {
        subset = false;
        break;
      }
    }
    if (subset) {
      auto collapsed = CloneNode(*node);
      collapsed->inputs = inner.inputs;
      if (stats) ++stats->project_collapses;
      *changed = true;
      return Rewrite(OpNodePtr(collapsed), stats, changed);
    }
  }

  return RewriteChildren(node, stats, changed);
}

}  // namespace

const Expr* RegionPredicate(const OpNode& node) {
  return node.op == "subsample" && !node.exprs.empty() ? node.exprs[0].get()
                                                       : nullptr;
}

Result<OpNodePtr> OptimizeOpTree(const OpNodePtr& root,
                                 OptimizerStats* stats) {
  if (root == nullptr) return Status::Invalid("null query tree");
  OpNodePtr current = root;
  // To fixpoint; each pass is O(tree), rule chains terminate because
  // every rule strictly reduces node count or pushes a subsample deeper.
  for (int round = 0; round < 64; ++round) {
    bool changed = false;
    ASSIGN_OR_RETURN(current, Rewrite(current, stats, &changed));
    if (!changed) return current;
  }
  return Status::Internal("optimizer did not reach a fixpoint");
}

}  // namespace scidb
