#ifndef DLS_PERFBENCH_TRACE_H_
#define DLS_PERFBENCH_TRACE_H_

// Tracing for the traced run, recorded from the benchmark's own files:
// subclasses of the public virtual HandleFrame of FrontendServer and
// ShardServer, and decorators of the net::Transport, serve::Backend and
// federate::FederateBackend interfaces. Nothing under src/ knows about
// it. Spans are kept in memory and written out when the run ends.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "federate/backend.h"
#include "harness.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "serve/backend.h"
#include "serve/frontend_server.h"

namespace dls::perfbench {

/// One timed call at a layer boundary. Spans of one request share its
/// query key (QueryKey of its words, or the federated query text); a
/// span that serves several requests (a batch, a batched shard
/// exchange) lists their keys joined by '|'.
struct Span {
  const char* name = "";  ///< client, handle, batch, exchange, shard, ...
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string key;
  /// exchange: request + response frame bytes; batch: queries carried;
  /// filter: candidates returned.
  uint64_t bytes = 0;
  int32_t replica = -1;  ///< exchange / shard: replica index
  uint8_t frame = 0;     ///< exchange / shard: request net::MessageType
  uint64_t id = 0;       ///< assigned by SpanLog::Record
};

/// Thread-safe in-memory span store.
class SpanLog {
 public:
  void Record(Span span);
  std::vector<Span> Take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
  uint64_t next_id_ = 1;     ///< guarded by mu_
};

/// Request frame type of an encoded wire frame (0 when undecodable).
uint8_t FrameType(const std::vector<uint8_t>& frame);

/// Keys of the queries a QueryRequest frame carries, joined by '|'
/// (empty for other frames).
std::string QueryFrameKey(const std::vector<uint8_t>& frame);

/// Times every exchange over the wrapped transport.
class TracedTransport final : public net::Transport {
 public:
  TracedTransport(net::Transport* inner, int32_t replica, SpanLog* log)
      : inner_(inner), replica_(replica), log_(log) {}

  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& request_frame,
                                    Deadline deadline) override;

 private:
  net::Transport* inner_;
  int32_t replica_;
  SpanLog* log_;
};

/// A ShardServer that times each frame it handles.
class TracedShardServer final : public net::ShardServer {
 public:
  TracedShardServer(size_t num_workers, int32_t replica, SpanLog* log)
      : net::ShardServer(num_workers), replica_(replica), log_(log) {}
  ~TracedShardServer() override { Stop(); }

  Result<std::vector<uint8_t>> HandleFrame(
      const std::vector<uint8_t>& frame) const override;

 private:
  int32_t replica_;
  SpanLog* log_;
};

/// A FrontendServer that times each client frame it handles.
class TracedFrontendServer final : public serve::FrontendServer {
 public:
  TracedFrontendServer(serve::Frontend* frontend, size_t num_workers,
                       SpanLog* log)
      : serve::FrontendServer(frontend, num_workers), log_(log) {}
  ~TracedFrontendServer() override { Stop(); }

  Result<std::vector<uint8_t>> HandleFrame(
      const std::vector<uint8_t>& frame) const override;

 private:
  SpanLog* log_;
};

/// Work the index did, summed from the per-query ClusterQueryStats the
/// backend returns to the frontend.
struct IrWork {
  uint64_t queries = 0;
  uint64_t postings = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
  uint64_t pivots = 0;
  double shard_cpu_us = 0;
  std::vector<double> critical_path_us;  ///< one per query
  void Add(const ir::ClusterQueryStats& stats);
};

/// Times Backend::QueryBatch and keeps the per-query stats it returns.
class TracedBackend final : public serve::Backend {
 public:
  TracedBackend(const serve::Backend* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  uint64_t Epoch() const override { return inner_->Epoch(); }
  bool NormStem() const override { return inner_->NormStem(); }
  bool NormStop() const override { return inner_->NormStop(); }
  uint64_t BytesResident() const override { return inner_->BytesResident(); }
  uint64_t BytesMapped() const override { return inner_->BytesMapped(); }

  std::vector<std::vector<ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats,
      std::vector<ir::ClusterQueryStats>* per_query_stats,
      const ir::RankOptions& options) const override;

  IrWork TakeWork() const;

 private:
  const serve::Backend* inner_;
  SpanLog* log_;
  mutable std::mutex mu_;
  mutable IrWork work_;  ///< guarded by mu_
};

/// Times EvalFilter of a webspace or COBRA backend. The mediator's
/// BackendSet holds the concrete backend types, so the decoration is a
/// subclass that forwards to the base implementation.
template <typename Base>
class TracedFilter final : public Base {
 public:
  template <typename... Args>
  TracedFilter(const char* span_name, SpanLog* log, Args&&... args)
      : Base(std::forward<Args>(args)...), name_(span_name), log_(log) {}

  Result<federate::CandidateSet> EvalFilter(
      const federate::Predicate& pred) const override;

 private:
  const char* name_;
  SpanLog* log_;
};

template <typename Base>
Result<federate::CandidateSet> TracedFilter<Base>::EvalFilter(
    const federate::Predicate& pred) const {
  Span span;
  span.name = name_;
  span.start_ns = NowNs();
  Result<federate::CandidateSet> result = Base::EvalFilter(pred);
  span.end_ns = NowNs();
  if (result.ok()) span.bytes = result.value().size();
  log_->Record(std::move(span));
  return result;
}

}  // namespace dls::perfbench

#endif  // DLS_PERFBENCH_TRACE_H_
