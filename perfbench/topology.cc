#include "topology.h"

#include <algorithm>
#include <thread>

#include "common/rng.h"
#include "common/strings.h"
#include "federate/query_lang.h"
#include "net/tcp.h"

namespace dls::perfbench {
namespace {

constexpr size_t kShardWorkers = 2;
constexpr size_t kFrontendWorkers = 8;

// Federated corpus: two documents per web object; the webspace topic
// filter keeps 1/kTopics of the objects and the COBRA rally filter about
// an eighth of them.
constexpr size_t kDocsPerEntity = 2;
constexpr size_t kTopics = 40;
constexpr double kMinRallyS = 5.0;

constexpr char kSchema[] = R"(
webspace Bench;
class Article {
  topic: varchar(20);
  score: varchar(10);
}
)";

std::string EntityId(size_t entity) { return StrFormat("obj%05zu", entity); }

/// Federated document `doc` is attribute document doc % kDocsPerEntity
/// of object doc / kDocsPerEntity.
std::string FederatedUrl(size_t doc) {
  return StrFormat("%s#f%zu", EntityId(doc / kDocsPerEntity).c_str(),
                   doc % kDocsPerEntity);
}

bool Fail(std::string* error, const std::string& what, const Status& status) {
  *error = what + ": " + status.ToString();
  return false;
}

/// Starts the frontend (and its server) over `stack->backend`.
bool StartFrontend(Stack* stack, SpanLog* trace, std::string* error) {
  const serve::Backend* backend = stack->backend.get();
  if (trace != nullptr) {
    stack->traced_backend = std::make_unique<TracedBackend>(backend, trace);
    backend = stack->traced_backend.get();
  }
  stack->frontend = std::make_unique<serve::Frontend>(backend);
  if (stack->mediator) stack->frontend->AttachMediator(stack->mediator.get());
  if (trace != nullptr) {
    stack->server = std::make_unique<TracedFrontendServer>(
        stack->frontend.get(), kFrontendWorkers, trace);
  } else {
    stack->server = std::make_unique<serve::FrontendServer>(
        stack->frontend.get(), kFrontendWorkers);
  }
  Status started = stack->server->Start(0);
  if (!started.ok()) return Fail(error, "frontend server", started);
  return true;
}

std::unique_ptr<net::ShardServer> MakeShardServer(size_t replica,
                                                  SpanLog* trace) {
  if (trace != nullptr) {
    return std::make_unique<TracedShardServer>(
        kShardWorkers, static_cast<int32_t>(replica), trace);
  }
  return std::make_unique<net::ShardServer>(kShardWorkers);
}

/// Dials every shard server over TCP and builds the remote cluster
/// (not yet connected). Replica r of shard s is server s * kReplicas + r.
void DialShards(Stack* stack, SpanLog* trace) {
  std::vector<net::RemoteClusterIndex::ReplicaSet> sets(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      const size_t replica = s * kReplicas + r;
      auto tcp = std::make_unique<net::TcpTransport>(
          "127.0.0.1", stack->shard_servers[replica]->port());
      net::Transport* endpoint = tcp.get();
      stack->transports.push_back(std::move(tcp));
      if (trace != nullptr) {
        stack->transports.push_back(std::make_unique<TracedTransport>(
            endpoint, static_cast<int32_t>(replica), trace));
        endpoint = stack->transports.back().get();
      }
      sets[s].replicas.push_back({endpoint, 0});
    }
  }
  stack->remote = std::make_unique<net::RemoteClusterIndex>(
      std::move(sets), net::RemoteClusterIndex::Options{});
  stack->remote->EnableParallelism(kShards);
}

bool BuildSearch(Stack* stack, const synth::SyntheticCorpus& corpus,
                 const std::string& work_dir, SpanLog* trace,
                 std::string* error) {
  // Each shard builds and writes its own segment, as shard machines
  // would; shard s holds documents d with d % kShards == s, in order —
  // the layout (and the segments) of ir::ClusterIndex::FlushToDisk.
  const std::string prefix = work_dir + "/search";
  for (size_t s = 0; s < kShards; ++s) {
    stack->segment_paths.push_back(ir::ClusterIndex::SegmentPath(prefix, s));
  }
  std::vector<Status> flushed(kShards, Status::Ok());
  std::vector<std::thread> builders;
  for (size_t s = 0; s < kShards; ++s) {
    builders.emplace_back([&, s] {
      ir::TextIndex index;
      for (size_t d = s; d < corpus.spec().documents; d += kShards) {
        index.AddDocument(corpus.Url(d), corpus.Body(d));
      }
      index.Flush();
      flushed[s] = index.FlushToDisk(stack->segment_paths[s]);
    });
  }
  for (std::thread& builder : builders) builder.join();
  for (const Status& status : flushed) {
    if (!status.ok()) return Fail(error, "segment flush", status);
  }
  for (size_t replica = 0; replica < kShards * kReplicas; ++replica) {
    auto server = MakeShardServer(replica, trace);
    Result<uint32_t> node = server->AddNodeFromSegment(
        stack->segment_paths[replica / kReplicas], kFragments);
    if (!node.ok()) return Fail(error, "segment load", node.status());
    Status started = server->Start(0);
    if (!started.ok()) return Fail(error, "shard server", started);
    stack->shard_servers.push_back(std::move(server));
  }
  DialShards(stack, trace);
  Status connected = stack->remote->Connect();
  if (!connected.ok()) return Fail(error, "connect", connected);
  stack->backend = std::make_unique<serve::RemoteBackend>(stack->remote.get());
  return StartFrontend(stack, trace, error);
}

bool BuildIngest(Stack* stack, const WorkloadConfig& config,
                 const synth::SyntheticCorpus& corpus, SpanLog* trace,
                 std::string* error) {
  for (size_t replica = 0; replica < kShards * kReplicas; ++replica) {
    ingest::LiveIndexOptions options;
    options.num_fragments = kFragments;
    stack->lives.push_back(std::make_unique<ingest::LiveIndex>(options));
    auto server = MakeShardServer(replica, trace);
    server->AddLiveNode(stack->lives.back().get());
    Status started = server->Start(0);
    if (!started.ok()) return Fail(error, "shard server", started);
    stack->shard_servers.push_back(std::move(server));
  }
  DialShards(stack, trace);

  // Preload straight into the replicas, routed by the centre's hash: one
  // thread per shard feeds both of its replicas in the same order, so
  // their ids and epochs agree, then packs them into a frozen run.
  std::vector<std::vector<size_t>> routed(kShards);
  for (size_t d = 0; d < config.load.preload_docs; ++d) {
    routed[stack->remote->ShardForUrl(corpus.Url(d))].push_back(d);
  }
  std::vector<std::string> failures(kShards);
  std::vector<std::thread> loaders;
  for (size_t s = 0; s < kShards; ++s) {
    loaders.emplace_back([&, s] {
      for (size_t d : routed[s]) {
        const std::string url = corpus.Url(d);
        const std::string body = corpus.Body(d);
        for (size_t r = 0; r < kReplicas; ++r) {
          Result<uint64_t> id =
              stack->lives[s * kReplicas + r]->Insert(url, body);
          if (!id.ok()) {
            failures[s] = id.status().ToString();
            return;
          }
        }
      }
      for (size_t r = 0; r < kReplicas; ++r) {
        stack->lives[s * kReplicas + r]->Merge();
      }
    });
  }
  for (std::thread& loader : loaders) loader.join();
  for (const std::string& failure : failures) {
    if (!failure.empty()) {
      *error = "preload: " + failure;
      return false;
    }
  }
  Status connected = stack->remote->Connect();
  if (!connected.ok()) return Fail(error, "connect", connected);
  stack->backend = std::make_unique<serve::RemoteBackend>(stack->remote.get());
  return StartFrontend(stack, trace, error);
}

bool BuildFederated(Stack* stack, const synth::SyntheticCorpus& corpus,
                    SpanLog* trace, std::string* error) {
  Result<webspace::Schema> schema = webspace::ParseSchema(kSchema);
  if (!schema.ok()) return Fail(error, "schema", schema.status());
  stack->schema = std::move(schema).value();
  stack->instance =
      std::make_unique<webspace::WebspaceInstance>(&stack->schema);

  const size_t docs = corpus.spec().documents;
  stack->cluster = std::make_unique<ir::ClusterIndex>(kShards, kFragments);
  stack->cluster->EnableParallelism(kShards);
  for (size_t d = 0; d < docs; ++d) {
    stack->cluster->AddDocument(FederatedUrl(d), corpus.Body(d));
  }
  stack->cluster->Finalize();

  Rng rng(corpus.spec().seed * 0x9e3779b97f4a7c15ULL + 0x3c6ef372fe94f82bULL);
  webspace::DocumentView view;
  view.document_url = "perfbench/corpus";
  std::vector<federate::CobraEvent> events;
  const size_t entities = (docs + kDocsPerEntity - 1) / kDocsPerEntity;
  for (size_t e = 0; e < entities; ++e) {
    const std::string id = EntityId(e);
    webspace::WebObject object;
    object.cls = "Article";
    object.id = id;
    object.attributes = {{"topic", StrFormat("topic%02zu", e % kTopics), ""},
                         {"score", StrFormat("%zu", rng.Uniform(100)), ""}};
    view.objects.push_back(std::move(object));
    // A quarter of the objects hold a rally of 0..10 s; about half of
    // those pass the min_len cut.
    if (rng.Uniform(4) == 0) {
      events.push_back({id, "rally", static_cast<double>(rng.Uniform(100)) / 10.0});
    }
    if (rng.Uniform(8) == 0) {
      events.push_back({id, "ace", static_cast<double>(rng.Uniform(30)) / 10.0});
    }
  }
  Status merged = stack->instance->Merge(view);
  if (!merged.ok()) return Fail(error, "webspace", merged);

  stack->text = std::make_unique<federate::TextBackend>(stack->cluster.get());
  if (trace != nullptr) {
    stack->web = std::make_unique<TracedFilter<federate::WebspaceBackend>>(
        "filter.webspace", trace, stack->instance.get());
    stack->cobra = std::make_unique<TracedFilter<federate::CobraBackend>>(
        "filter.cobra", trace, std::move(events));
  } else {
    stack->web =
        std::make_unique<federate::WebspaceBackend>(stack->instance.get());
    stack->cobra = std::make_unique<federate::CobraBackend>(std::move(events));
  }
  stack->mediator = std::make_unique<federate::Mediator>(federate::BackendSet{
      stack->text.get(), stack->web.get(), stack->cobra.get()});
  stack->backend = std::make_unique<serve::LocalBackend>(stack->cluster.get());
  return StartFrontend(stack, trace, error);
}

}  // namespace

bool ConfigFor(const std::string& name, WorkloadConfig* config) {
  static const char* const kNames[] = {"search_cold", "search_hot",
                                       "ingest_mixed", "federated_mix"};
  WorkloadConfig c;
  for (const char* known : kNames) {
    if (name == known) c.name = known;
  }
  c.corpus.zipf_theta = 1.1;
  if (name == "search_cold" || name == "search_hot") {
    c.workload = name == "search_cold" ? Workload::kSearchCold
                                       : Workload::kSearchHot;
    c.corpus.documents = 20000;
    c.corpus.words_per_doc = 60;
    c.corpus.vocabulary = 20000;
    c.load.query_rate = name == "search_cold" ? 400 : 3000;
    c.load.pool = name == "search_cold" ? 0 : 64;
    c.load.warmup = 300;
  } else if (name == "ingest_mixed") {
    c.workload = Workload::kIngestMixed;
    c.corpus.documents = 10000;
    c.corpus.words_per_doc = 40;
    c.corpus.vocabulary = 5000;
    c.load.preload_docs = 8000;
    c.load.query_rate = 75;
    c.load.write_rate = 7.5;
    c.load.warmup = 200;
    c.load.verify = 60;
    c.merge_every = 25;
  } else if (name == "federated_mix") {
    c.workload = Workload::kFederatedMix;
    c.corpus.documents = 8000;
    c.corpus.words_per_doc = 30;
    c.corpus.vocabulary = 3000;
    c.load.query_rate = 350;
    c.load.warmup = 100;
  } else {
    return false;
  }
  *config = c;
  return true;
}

std::unique_ptr<Stack> BuildStack(const WorkloadConfig& config,
                                  const synth::SyntheticCorpus& corpus,
                                  const std::string& work_dir, SpanLog* trace,
                                  std::string* error) {
  auto stack = std::make_unique<Stack>();
  bool ok = false;
  switch (config.workload) {
    case Workload::kSearchCold:
    case Workload::kSearchHot:
      ok = BuildSearch(stack.get(), corpus, work_dir, trace, error);
      break;
    case Workload::kIngestMixed:
      ok = BuildIngest(stack.get(), config, corpus, trace, error);
      break;
    case Workload::kFederatedMix:
      ok = BuildFederated(stack.get(), corpus, trace, error);
      break;
  }
  if (!ok) return nullptr;
  return stack;
}

std::string FederatedQueryText(const std::vector<std::string>& words,
                               size_t index) {
  std::string text = "text(\"";
  for (size_t i = 0; i < words.size(); ++i) {
    if (i != 0) text += ' ';
    text += words[i];
  }
  text += "\")";
  text += StrFormat(" AND webspace(class=Article, topic=topic%02zu)",
                    index % kTopics);
  text += StrFormat(" AND cobra(event=rally, min_len=%.0fs)", kMinRallyS);
  return text;
}

std::vector<ir::ClusterScoredDoc> FederatedOracle(
    const Stack& stack, const std::vector<std::string>& words, size_t index,
    size_t max_fragments) {
  federate::CandidateSet survivors;
  bool have_filter = false;
  auto apply = [&](const federate::FederateBackend& backend,
                   const std::string& pred) {
    Result<federate::FederatedQuery> parsed =
        federate::ParseFederatedQuery(pred);
    if (!parsed.ok()) return false;
    Result<federate::CandidateSet> set =
        backend.EvalFilter(parsed.value().root.pred);
    if (!set.ok()) return false;
    survivors = have_filter ? federate::IntersectSets(survivors, set.value())
                            : std::move(set).value();
    have_filter = true;
    return true;
  };
  if (!apply(*stack.web,
             StrFormat("webspace(class=Article, topic=topic%02zu)",
                       index % kTopics)) ||
      !apply(*stack.cobra,
             StrFormat("cobra(event=rally, min_len=%.0fs)", kMinRallyS))) {
    return {};
  }
  ir::RankOptions options;
  options.prune = true;
  std::vector<ir::ClusterScoredDoc> ranked = stack.cluster->Query(
      words, stack.cluster->document_count(), max_fragments, nullptr, options);
  std::vector<ir::ClusterScoredDoc> reference;
  for (ir::ClusterScoredDoc& doc : ranked) {
    const std::string entity = doc.url.substr(0, doc.url.find('#'));
    if (std::binary_search(survivors.begin(), survivors.end(), entity)) {
      reference.push_back(std::move(doc));
      if (reference.size() == kTopN) break;
    }
  }
  return reference;
}

}  // namespace dls::perfbench
