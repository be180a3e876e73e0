#ifndef SCIDB_QUERY_PARSE_TREE_H_
#define SCIDB_QUERY_PARSE_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "array/schema.h"
#include "exec/expression.h"
#include "exec/operators.h"

namespace scidb {

// The parse-tree representation for commands (paper §2.4): every language
// binding — the AQL text parser and the fluent C++ builder in binding.h —
// produces these nodes, and the Session executes them. There is
// deliberately no "data sublanguage" string API anywhere else.

// An operator invocation or a plain array reference. Operator inputs may
// be nested invocations ("Aggregate(Subsample(F, even(X)), {Y}, sum(v))").
struct OpNode;
using OpNodePtr = std::shared_ptr<const OpNode>;

struct OpNode {
  // "" means: this node is a reference to the array named `array`.
  std::string op;
  std::string array;            // for array references / version reads
  std::string version;          // optional named-version qualifier
  std::vector<OpNodePtr> inputs;       // array-valued arguments
  std::vector<ExprPtr> exprs;          // predicates / computed expressions
  std::vector<std::string> names;      // {Y}, attribute lists, dim names
  std::vector<int64_t> numbers;        // [2, 2] factors, Exists coords
  std::vector<DimensionDesc> dims;     // reshape target dims
  std::vector<AggCall> aggs;           // sum(v): Aggregate, Regrid, Window

  bool is_array_ref() const { return op.empty(); }
};

// A complete statement.
struct Statement {
  enum class Kind {
    kDefine,   // define [updatable] T (attrs)(dims)
    kCreate,   // create X as T [b1, b2]
    kQuery,    // select <opcall>   (or bare opcall)
    kStore,    // store <opcall> into X
    kInsert,   // insert X [c...] values (v...)
    kTrace,    // trace back|forward X [c...]   (provenance, §2.12)
    kEnhance,  // enhance X with func(args...)          (§2.1)
    kShape,    // shape X with func(args...)            (§2.1)
    kEnhancedRead,  // select X {v1, v2}  — pseudo-coordinate addressing
    kExplain,  // explain [analyze] <query> — plan / annotated execution
    kSet,      // set <option> = <int>  (session knob, e.g. parallelism)
  };

  Kind kind = Kind::kQuery;

  // kExplain: true = execute and annotate ("explain analyze"), false =
  // print the optimized plan shape only.
  bool explain_analyze = false;

  // kDefine: the array type template (dims may be unbounded).
  ArraySchema define_schema;

  // kCreate:
  std::string create_name;
  std::string create_type;
  std::vector<int64_t> create_highs;  // kUnboundedDim for '*'

  // kQuery / kStore:
  OpNodePtr query;
  std::string store_into;

  // kInsert:
  std::string insert_array;
  Coordinates insert_coords;
  std::vector<Value> insert_values;

  // kTrace:
  bool trace_back = true;  // false = forward
  std::string trace_array;
  Coordinates trace_coords;

  // kEnhance / kShape:
  std::string target_array;
  std::string func_name;            // scale|translate|transpose|mercator /
                                    // circle|triangle|rectangle
  std::vector<Value> func_args;

  // kEnhancedRead:
  std::string read_array;
  std::vector<Value> read_pseudo;   // the {..} operands

  // kSet:
  std::string set_option;           // lowercase option name
  int64_t set_value = 0;
};

}  // namespace scidb

#endif  // SCIDB_QUERY_PARSE_TREE_H_
