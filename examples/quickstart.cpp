// Quickstart: the paper's own syntax, end to end.
//
//   define Remote (s1 = float, s2 = float, s3 = float) (I, J)
//   create My_remote as Remote [1024, 1024]
//   ... insert cells, query with Subsample / Aggregate / Exists.
//
// Build & run:  ./build/examples/example_quickstart
#include <cstdio>

#include "query/session.h"

using namespace scidb;

static void Run(Session& session, const std::string& stmt) {
  auto result = session.Execute(stmt);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n  in: %s\n",
                 result.status().ToString().c_str(), stmt.c_str());
    std::exit(1);
  }
  const QueryResult& r = result.value();
  switch (r.kind) {
    case QueryResult::Kind::kNone:
    case QueryResult::Kind::kExplain:
      std::printf("> %-60s -- %s\n", stmt.c_str(), r.message.c_str());
      break;
    case QueryResult::Kind::kBool:
      std::printf("> %-60s -- %s\n", stmt.c_str(),
                  r.boolean ? "true" : "false");
      break;
    case QueryResult::Kind::kArray:
      std::printf("> %-60s -- %lld cells\n", stmt.c_str(),
                  static_cast<long long>(r.array->CellCount()));
      break;
    case QueryResult::Kind::kCells:
      std::printf("> %-60s -- %zu cells traced\n", stmt.c_str(),
                  r.cells.size());
      break;
    case QueryResult::Kind::kValues:
      std::printf("> %-60s -- %zu value(s)\n", stmt.c_str(),
                  r.values.size());
      break;
  }
}

int main() {
  Session session;

  // The paper's running example (§2.1).
  Run(session, "define Remote (s1 = float, s2 = float, s3 = float) (I, J)");
  Run(session, "create My_remote as Remote [1024, 1024]");

  // Load a small region.
  for (int64_t i = 1; i <= 32; ++i) {
    for (int64_t j = 1; j <= 32; ++j) {
      Run(session, "insert My_remote [" + std::to_string(i) + ", " +
                       std::to_string(j) + "] values (" +
                       std::to_string(i * j) + ".0, " +
                       std::to_string(i + j) + ".0, 0.5)");
    }
  }

  // A[7, 8].s1 via the C++ binding.
  auto arr = session.GetArray("My_remote").ValueOrDie();
  auto cell = arr->GetCell({7, 8});
  std::printf("A[7,8].s1 = %s\n", (*cell)[0].ToString().c_str());

  // Structural and content operators (§2.2).
  Run(session, "select Exists(My_remote, 7, 7)");
  Run(session, "select Subsample(My_remote, even(I) and J <= 8)");
  Run(session, "select Filter(My_remote, s1 > 500)");
  Run(session, "select Aggregate(My_remote, {I}, sum(s1))");
  Run(session, "select Regrid(My_remote, [8, 8], avg(s1))");
  Run(session, "store Subsample(My_remote, I <= 4 and J <= 4) into Corner");
  Run(session, "select Aggregate(Corner, {}, count(s1))");

  std::printf("quickstart done.\n");
  return 0;
}
