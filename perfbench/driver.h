#ifndef DLS_PERFBENCH_DRIVER_H_
#define DLS_PERFBENCH_DRIVER_H_

// The load generator and the measured phase: open-loop clients over TCP
// to the FrontendServer, a seeded writer for ingest_mixed, process
// accounting around the phase, and the correlation of the traced run's
// spans into per-request chains.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "net/remote_cluster.h"
#include "net/tcp.h"
#include "serve/serve_stats.h"
#include "topology.h"
#include "trace.h"

namespace dls::perfbench {

/// What a client keeps of one answer: enough to verify it afterwards
/// without holding every ranking in memory.
struct Answer {
  bool ok = false;
  bool degraded = false;
  uint64_t digest = 0;  ///< RankingDigest of the returned ranking
};

/// The encoded client requests of a schedule and the writer's documents,
/// prepared before set-up so the generator's own work stays out of the
/// measured phase.
struct Prepared {
  std::vector<std::vector<uint8_t>> frames;  ///< per Schedule::queries item
  std::vector<std::string> keys;             ///< span key per item
  std::vector<std::string> write_urls;       ///< per Schedule::write_ops
  std::vector<std::string> write_bodies;     ///< empty for deletes
};

/// The search request of one query (federated when `structured` is set).
std::vector<uint8_t> EncodeSearch(const std::vector<std::string>& words,
                                  const std::string& structured);

/// The search requests of `queries`; on federated_mix, query i is sent as
/// FederatedQueryText(queries[i], offset + i).
std::vector<std::vector<uint8_t>> EncodeQueries(
    const WorkloadConfig& config,
    const std::vector<std::vector<std::string>>& queries, size_t offset);

Prepared Prepare(const WorkloadConfig& config,
                 const synth::SyntheticCorpus& corpus,
                 const Schedule& schedule);

/// One client connection to the frontend.
class Client {
 public:
  explicit Client(uint16_t port) : conn_("127.0.0.1", port) {}
  /// Sends one request frame and decodes the answer.
  Answer Send(const std::vector<uint8_t>& frame);

 private:
  net::TcpTransport conn_;
};

/// Sends `frames` over `clients` (client i takes every clients.size()-th
/// frame), as fast as answers come. Returns the answers in order.
std::vector<Answer> SendAll(const std::vector<std::unique_ptr<Client>>& clients,
                            const std::vector<std::vector<uint8_t>>& frames);

/// Everything measured over one phase.
struct PhaseResult {
  // Per scheduled query, in schedule order.
  std::vector<Answer> answers;
  std::vector<double> query_latency_us;  ///< kFailedLatency when failed
  std::vector<double> send_lag_us;
  // Per scheduled mutation.
  std::vector<bool> write_ok;
  std::vector<double> mutation_latency_us;  ///< kFailedLatency when failed
  std::vector<double> merge_us;             ///< one per MergeAll
  size_t merge_failures = 0;                ///< MergeAll calls that failed
  std::vector<double> delta_docs;           ///< per-replica mean, per write

  double cpu_s = 0;
  double wall_s = 0;
  double steal_share = 0;
  double peak_rss_mb = 0;  ///< VmHWM since the start of the phase
  serve::ServeStats serve_before, serve_after;
  net::RemoteClusterIndex::ReplicaCounters replica_before, replica_after;

  /// Queries, mutations and MergeAll calls of the phase.
  size_t attempted() const {
    return query_latency_us.size() + mutation_latency_us.size() +
           merge_us.size();
  }
  size_t completed() const;
  double cpu_us_per_op() const;
};

/// Number of open-loop query clients (and connections) of a workload:
/// nproc capped at 4, less one thread for the writer of ingest_mixed.
size_t QueryClients(const WorkloadConfig& config);

/// Runs the measured phase of `schedule` against `stack`. Requests are
/// due at their schedule offsets from a common start; each is timed
/// from when it was due. With `trace`, client spans are recorded too.
PhaseResult RunPhase(const WorkloadConfig& config, Stack* stack,
                     const std::vector<std::unique_ptr<Client>>& clients,
                     const Schedule& schedule, const Prepared& prepared,
                     SpanLog* trace);

/// Per-request chains of a traced phase: client -> handle -> batch ->
/// exchange -> shard. Fills each span's parent (0 = none) and returns
/// what the per-layer metrics need.
struct Chains {
  std::vector<uint64_t> parent;       ///< parallel to the span vector
  std::vector<double> queue_wait_us;  ///< batch start - handle start
  size_t client_requests = 0;
  size_t complete = 0;  ///< client requests with handle, batch, exchanges
                        ///< on every shard and a shard span for each
};
Chains Correlate(const std::vector<Span>& spans);

/// Writes spans (with parents) as JSON lines; false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const Chains& chains);

}  // namespace dls::perfbench

#endif  // DLS_PERFBENCH_DRIVER_H_
