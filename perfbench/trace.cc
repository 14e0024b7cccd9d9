#include "trace.h"

#include <utility>

#include "net/wire.h"

namespace dls::perfbench {

void SpanLog::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_++;
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

uint8_t FrameType(const std::vector<uint8_t>& frame) {
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t len = 0;
  if (!net::DecodeFrame(frame, &type, &body, &len).ok()) return 0;
  return static_cast<uint8_t>(type);
}

std::string QueryFrameKey(const std::vector<uint8_t>& frame) {
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t len = 0;
  if (!net::DecodeFrame(frame, &type, &body, &len).ok() ||
      type != net::MessageType::kQueryRequest) {
    return {};
  }
  Result<net::QueryRequest> request = net::DecodeQueryRequest(body, len);
  if (!request.ok()) return {};
  std::string key;
  for (const ir::ShardQuery& query : request.value().queries) {
    if (!key.empty()) key.push_back('|');
    key += QueryKey(query.stems);
  }
  return key;
}

Result<std::vector<uint8_t>> TracedTransport::Call(
    const std::vector<uint8_t>& request_frame, Deadline deadline) {
  Span span;
  span.name = "exchange";
  span.replica = replica_;
  span.start_ns = NowNs();
  Result<std::vector<uint8_t>> response = inner_->Call(request_frame, deadline);
  span.end_ns = NowNs();
  span.frame = FrameType(request_frame);
  span.key = QueryFrameKey(request_frame);
  span.bytes = request_frame.size() +
               (response.ok() ? response.value().size() : 0);
  log_->Record(std::move(span));
  return response;
}

Result<std::vector<uint8_t>> TracedShardServer::HandleFrame(
    const std::vector<uint8_t>& frame) const {
  Span span;
  span.name = "shard";
  span.replica = replica_;
  span.start_ns = NowNs();
  Result<std::vector<uint8_t>> response = net::ShardServer::HandleFrame(frame);
  span.end_ns = NowNs();
  span.frame = FrameType(frame);
  span.key = QueryFrameKey(frame);
  log_->Record(std::move(span));
  return response;
}

Result<std::vector<uint8_t>> TracedFrontendServer::HandleFrame(
    const std::vector<uint8_t>& frame) const {
  Span span;
  span.name = "handle";
  span.start_ns = NowNs();
  Result<std::vector<uint8_t>> response =
      serve::FrontendServer::HandleFrame(frame);
  span.end_ns = NowNs();
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t len = 0;
  if (net::DecodeFrame(frame, &type, &body, &len).ok() &&
      type == net::MessageType::kSearchRequest) {
    Result<net::SearchRequest> request = net::DecodeSearchRequest(body, len);
    if (request.ok()) {
      span.key = request.value().structured.empty()
                     ? QueryKey(request.value().words)
                     : request.value().structured;
    }
  }
  log_->Record(std::move(span));
  return response;
}

void IrWork::Add(const ir::ClusterQueryStats& stats) {
  ++queries;
  postings += stats.postings_touched_total;
  blocks_decoded += stats.blocks_decoded;
  blocks_skipped += stats.blocks_skipped;
  pivots += stats.pivot_iterations;
  shard_cpu_us += stats.total_cpu_us;
  critical_path_us.push_back(stats.critical_path_us);
}

std::vector<std::vector<ir::ClusterScoredDoc>> TracedBackend::QueryBatch(
    const std::vector<std::vector<std::string>>& queries, size_t n,
    size_t max_fragments, ir::ClusterQueryStats* stats,
    std::vector<ir::ClusterQueryStats>* per_query_stats,
    const ir::RankOptions& options) const {
  std::vector<ir::ClusterQueryStats> own_per_query;
  std::vector<ir::ClusterQueryStats>* per_query =
      per_query_stats != nullptr ? per_query_stats : &own_per_query;
  Span span;
  span.name = "batch";
  span.start_ns = NowNs();
  std::vector<std::vector<ir::ClusterScoredDoc>> results = inner_->QueryBatch(
      queries, n, max_fragments, stats, per_query, options);
  span.end_ns = NowNs();
  for (const std::vector<std::string>& words : queries) {
    if (!span.key.empty()) span.key.push_back('|');
    span.key += QueryKey(words);
  }
  span.bytes = queries.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ir::ClusterQueryStats& q : *per_query) work_.Add(q);
  }
  log_->Record(std::move(span));
  return results;
}

IrWork TracedBackend::TakeWork() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(work_, {});
}

}  // namespace dls::perfbench
