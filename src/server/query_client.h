#ifndef SCIDB_SERVER_QUERY_CLIENT_H_
#define SCIDB_SERVER_QUERY_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/mem_array.h"
#include "common/mutex.h"
#include "common/result.h"
#include "net/message.h"
#include "net/rpc.h"

namespace scidb {
namespace server {

// Client-side driver of the query protocol (DESIGN.md §15): Submit one
// AQL statement under a locally generated monotone query id, poll
// completion, pull result chunks one RPC at a time, reassemble the
// array, and release the server-side buffers. Every request is
// idempotent, so the RPC layer's retries (and a fault-injecting
// transport's duplicated frames) cannot duplicate or lose work:
// reassembly keys chunks by sequence number and rejects an origin
// collision outright.
//
// One QueryClient is NOT thread-safe — it models one client connection
// with one outstanding statement at a time. Concurrent load (the
// bench, the fairness tests) uses one QueryClient per thread, each
// bound to its own transport node.
class QueryClient {
 public:
  // The terminal result of one statement.
  struct Outcome {
    Status status;  // the query's own status (Busy/Cancelled are typed)
    uint8_t kind = 0;
    bool boolean = false;
    std::string message;
    std::shared_ptr<MemArray> array;  // kind == kArray
    int64_t snapshot_epoch = 0;
    uint64_t chunks_fetched = 0;
  };

  // `node` is this client's transport address; `server_node` the
  // query server's. Call Bind() once before the first Submit.
  QueryClient(net::Transport* transport, int node, int server_node);

  Status Bind();

  // Submits a statement; returns the query id to Await/Cancel on, or
  // the server's typed rejection (Status::Busy under admission
  // pressure — back off and resubmit).
  Result<uint64_t> Submit(const std::string& statement);

  // One completion poll, without fetching or releasing anything.
  // response.done == 0 while the query runs.
  Result<net::QueryDoneResponse> Poll(uint64_t qid);

  // Polls until done, fetches every result chunk, releases the query
  // server-side, and returns the outcome. The outcome's `status` is the
  // query's terminal status; a non-OK Result means the conversation
  // itself failed (transport down, protocol error).
  Result<Outcome> Await(uint64_t qid);

  // Aborts a running query (or releases a finished one). Idempotent.
  Status Cancel(uint64_t qid);

  // Submit + Await in one call.
  Result<Outcome> Execute(const std::string& statement);

 private:
  net::Transport* const transport_;
  const int node_;
  const int server_node_;
  net::RpcClient rpc_;
  uint64_t next_qid_ = 1;  // monotone: the server's watermark relies on it
};

}  // namespace server
}  // namespace scidb

#endif  // SCIDB_SERVER_QUERY_CLIENT_H_
