#ifndef DLS_PERFBENCH_TOPOLOGY_H_
#define DLS_PERFBENCH_TOPOLOGY_H_

// The served stack each workload drives, built from public APIs only:
//
//   clients -> serve::FrontendServer -> serve::Frontend -> backend
//
// search_cold / search_hot: the backend is net::RemoteClusterIndex over
//   4 shards x 2 replicas, each replica its own net::ShardServer serving
//   an mmap'd segment written by ir::ClusterIndex::FlushToDisk.
// ingest_mixed: the same topology on ingest::LiveIndex nodes.
// federated_mix: federate::Mediator over an in-process ir::ClusterIndex,
//   with webspace and COBRA filter backends.
//
// With a SpanLog the servers, transports and backends are the traced
// subclasses and decorators of trace.h; without one they are the plain
// library types.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "federate/backend.h"
#include "federate/executor.h"
#include "harness.h"
#include "ingest/live_index.h"
#include "ir/cluster.h"
#include "net/remote_cluster.h"
#include "net/shard_server.h"
#include "serve/backend.h"
#include "serve/frontend.h"
#include "serve/frontend_server.h"
#include "synth/corpus.h"
#include "trace.h"
#include "webspace/objects.h"
#include "webspace/schema.h"

namespace dls::perfbench {

enum class Workload { kSearchCold, kSearchHot, kIngestMixed, kFederatedMix };

constexpr size_t kShards = 4;
constexpr size_t kReplicas = 2;
constexpr size_t kFragments = 4;
constexpr size_t kTopN = 10;

/// Everything that fixes one workload: corpus shape, load and writer.
struct WorkloadConfig {
  const char* name = "";
  Workload workload = Workload::kSearchCold;
  synth::CorpusSpec corpus;  ///< seed filled from --seed
  LoadSpec load;             ///< seconds filled from --seconds
  size_t merge_every = 0;    ///< ingest: MergeAll after this many mutations
};

/// Looks up a workload by name; false when unknown.
bool ConfigFor(const std::string& name, WorkloadConfig* config);

/// One live instance of the served stack. Members are declared in
/// construction order, so destruction tears the stack down front to
/// back: the frontend server stops serving first, the index nodes go
/// last, and nothing a handler reaches dies before the handler.
struct Stack {
  // ---- shard tier (search / ingest) ---------------------------------
  std::vector<std::unique_ptr<ingest::LiveIndex>> lives;  ///< s-major
  std::vector<std::unique_ptr<net::ShardServer>> shard_servers;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::unique_ptr<net::RemoteClusterIndex> remote;
  std::vector<std::string> segment_paths;

  // ---- federated tier --------------------------------------------------
  std::unique_ptr<ir::ClusterIndex> cluster;
  webspace::Schema schema;
  std::unique_ptr<webspace::WebspaceInstance> instance;
  std::unique_ptr<federate::TextBackend> text;
  std::unique_ptr<federate::WebspaceBackend> web;
  std::unique_ptr<federate::CobraBackend> cobra;
  std::unique_ptr<federate::Mediator> mediator;

  // ---- serving tier ----------------------------------------------------
  std::unique_ptr<serve::Backend> backend;
  std::unique_ptr<TracedBackend> traced_backend;  ///< traced runs only
  std::unique_ptr<serve::Frontend> frontend;
  std::unique_ptr<serve::FrontendServer> server;
};

/// Builds the stack of `config` over `corpus`; segment files go under
/// `work_dir`. `trace` null builds the untraced stack. On failure
/// returns null and fills `error`.
std::unique_ptr<Stack> BuildStack(const WorkloadConfig& config,
                                  const synth::SyntheticCorpus& corpus,
                                  const std::string& work_dir, SpanLog* trace,
                                  std::string* error);

/// The federated query text of schedule query `index` (`words` are its
/// text() words): text AND webspace topic AND cobra rally filter.
std::string FederatedQueryText(const std::vector<std::string>& words,
                               size_t index);

/// Post-filter oracle of a federated query, as bench_federate computes
/// it: exhaustive filters, exhaustive ranking, intersect afterwards.
std::vector<ir::ClusterScoredDoc> FederatedOracle(
    const Stack& stack, const std::vector<std::string>& words, size_t index,
    size_t max_fragments);

}  // namespace dls::perfbench

#endif  // DLS_PERFBENCH_TOPOLOGY_H_
