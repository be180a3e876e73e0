#include "server/query_client.h"

#include <chrono>
#include <utility>

#include "common/macros.h"
#include "net/frame.h"
#include "storage/chunk_serde.h"

namespace scidb {
namespace server {

namespace {

// Pause between kQueryDone polls while the query runs.
constexpr auto kPollInterval = std::chrono::microseconds(200);

}  // namespace

QueryClient::QueryClient(net::Transport* transport, int node, int server_node)
    : transport_(transport),
      node_(node),
      server_node_(server_node),
      rpc_(transport, node) {}

Status QueryClient::Bind() {
  return net::BindNode(transport_, node_, nullptr, &rpc_);
}

Result<uint64_t> QueryClient::Submit(const std::string& statement) {
  const uint64_t qid = next_qid_++;
  net::QueryRequest req;
  req.client_qid = qid;
  req.statement = statement;
  ASSIGN_OR_RETURN(std::vector<uint8_t> ack,
                   rpc_.Call(server_node_, net::MessageType::kQuery,
                             req.EncodePayload()));
  (void)ack;  // empty
  return qid;
}

Status QueryClient::Cancel(uint64_t qid) {
  net::CancelRequest req;
  req.client_qid = qid;
  Result<std::vector<uint8_t>> ack = rpc_.Call(
      server_node_, net::MessageType::kCancel, req.EncodePayload());
  return ack.ok() ? Status::OK() : ack.status();
}

Result<net::QueryDoneResponse> QueryClient::Poll(uint64_t qid) {
  net::QueryDoneRequest req;
  req.client_qid = qid;
  ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                   rpc_.Call(server_node_, net::MessageType::kQueryDone,
                             req.EncodePayload()));
  return net::QueryDoneResponse::Decode(raw);
}

Result<QueryClient::Outcome> QueryClient::Await(uint64_t qid) {
  // Poll completion. The server answers done=0 instantly while the
  // query runs; the pause between polls is the client's only busy-wait.
  net::QueryDoneResponse done;
  for (;;) {
    ASSIGN_OR_RETURN(done, Poll(qid));
    if (done.done != 0) break;
    // Wait without a raw sleep call: a private condvar nobody signals,
    // timed. Mirrors RpcClient::SleepNs.
    Mutex mu;
    CondVar cv;
    MutexLock lk(mu);
    cv.wait_for(mu, kPollInterval);
  }

  Outcome out;
  out.status = Status(static_cast<StatusCode>(done.status_code),
                      done.status_message);
  out.kind = done.kind;
  out.boolean = done.boolean != 0;
  out.message = done.message;
  out.snapshot_epoch = done.snapshot_epoch;

  if (out.status.ok() && done.has_schema != 0) {
    // Pull the buffered chunks one at a time and reassemble. Sequence
    // numbers make fetches idempotent; origins must be unique — a
    // duplicate origin means the server buffered a chunk twice, which
    // the fault-injection suite treats as corruption.
    auto arr = std::make_shared<MemArray>(done.schema);
    for (uint64_t seq = 0; seq < done.n_chunks; ++seq) {
      net::ResultChunkRequest creq;
      creq.client_qid = qid;
      creq.seq = seq;
      ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                       rpc_.Call(server_node_, net::MessageType::kResultChunk,
                                 creq.EncodePayload()));
      ASSIGN_OR_RETURN(net::ResultChunkResponse resp,
                       net::ResultChunkResponse::Decode(raw));
      if (resp.ready == 0) {
        return Status::Internal("server lost a finished query's chunks");
      }
      ASSIGN_OR_RETURN(Chunk chunk, DeserializeChunk(resp.chunk_bytes,
                                                     done.schema.attrs()));
      Coordinates origin = arr->ChunkOriginFor(chunk.box().low);
      auto [it, inserted] = arr->mutable_chunks()->emplace(
          std::move(origin), std::make_shared<Chunk>(std::move(chunk)));
      (void)it;
      if (!inserted) {
        return Status::Corruption("duplicated result chunk for seq " +
                                  std::to_string(seq));
      }
      ++out.chunks_fetched;
    }
    out.array = std::move(arr);
  }

  // Release the server-side buffers; on a finished query this is pure
  // release, not abort.
  RETURN_NOT_OK(Cancel(qid));
  return out;
}

Result<QueryClient::Outcome> QueryClient::Execute(
    const std::string& statement) {
  ASSIGN_OR_RETURN(uint64_t qid, Submit(statement));
  return Await(qid);
}

}  // namespace server
}  // namespace scidb
